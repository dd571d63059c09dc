// Bit-packed boolean lanes for the word-parallel datapath evaluators.
//
// The sequencing circuits of Figure 5 and the scheduler of Memo 2 are
// 1-bit-per-station parallel prefixes; simulated one byte per station they
// cost O(n) scalar ops per cycle. PackedBits stores those per-station
// booleans 64 to a uint64_t so the same prefixes evaluate 64 lanes per word
// op: a word's AND-prefix is a trailing-ones count, its OR-prefix a
// trailing-zeros count, and oldest-first ALU granting a popcount walk. The
// packed sequencing/scheduler entry points (sequencing.hpp, scheduler.hpp)
// and the cores' DatapathEval::kPacked fast paths build on this header.
//
// Invariant: bits at positions >= size() ("tail bits") are always zero --
// every mutator maintains this, so whole-word reductions never see ghost
// lanes.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#if defined(ULTRA_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace ultra::datapath {

/// Number of 64-bit words needed for @p bits bit lanes.
[[nodiscard]] constexpr int PackedWordCount(int bits) {
  return (bits + 63) >> 6;
}

/// Mask selecting the live lanes of the last word of an @p bits-lane array
/// (all-ones when @p bits is a multiple of 64).
[[nodiscard]] constexpr std::uint64_t PackedTailMask(int bits) {
  const int rem = bits & 63;
  return rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
}

/// A fixed-size array of single-bit lanes packed 64 per uint64_t word.
class PackedBits {
 public:
  PackedBits() = default;
  explicit PackedBits(int bits) { Assign(bits); }

  /// Resizes to @p bits lanes, all clear.
  void Assign(int bits) {
    assert(bits >= 0);
    bits_ = bits;
    words_.assign(static_cast<std::size_t>(PackedWordCount(bits)), 0);
  }

  [[nodiscard]] int size() const { return bits_; }
  [[nodiscard]] int num_words() const {
    return static_cast<int>(words_.size());
  }

  [[nodiscard]] bool Test(int i) const {
    assert(i >= 0 && i < bits_);
    return (words_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1U;
  }
  void Set(int i) {
    assert(i >= 0 && i < bits_);
    words_[static_cast<std::size_t>(i >> 6)] |= 1ULL << (i & 63);
  }
  void Clear(int i) {
    assert(i >= 0 && i < bits_);
    words_[static_cast<std::size_t>(i >> 6)] &= ~(1ULL << (i & 63));
  }
  void SetTo(int i, bool value) { value ? Set(i) : Clear(i); }

  void ClearAll() { words_.assign(words_.size(), 0); }
  void SetAll() {
    if (bits_ == 0) return;
    words_.assign(words_.size(), ~0ULL);
    words_.back() &= PackedTailMask(bits_);
  }

  [[nodiscard]] std::uint64_t word(int w) const {
    return words_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] std::uint64_t& word(int w) {
    return words_[static_cast<std::size_t>(w)];
  }
  /// Raw word storage, for the multi-word block kernels below.
  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }
  [[nodiscard]] std::uint64_t* words() { return words_.data(); }

  [[nodiscard]] bool AnySet() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  [[nodiscard]] int PopCount() const {
    int count = 0;
    for (const std::uint64_t w : words_) count += std::popcount(w);
    return count;
  }

  friend bool operator==(const PackedBits&, const PackedBits&) = default;

 private:
  int bits_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Calls fn(i) for every set lane of @p bits, in increasing lane order.
template <typename Fn>
void ForEachSetBit(const PackedBits& bits, Fn&& fn) {
  for (int w = 0; w < bits.num_words(); ++w) {
    std::uint64_t word = bits.word(w);
    while (word != 0) {
      const int b = std::countr_zero(word);
      fn((w << 6) + b);
      word &= word - 1;
    }
  }
}

namespace packed_internal {

// Multi-word block kernels. Each processes kBlockWords words per step so the
// plain-C++ loop auto-vectorizes; under ULTRA_HAVE_AVX2 a block is one
// 256-bit op. Word counts are tiny (n=1024 lanes is 16 words) so the scalar
// remainder loop is never hot. The kernels operate on raw word arrays; the
// PackedBits entry points below re-apply the tail mask on complement forms
// so the tail-bits-zero invariant survives.
inline constexpr int kBlockWords = 4;

#if defined(ULTRA_HAVE_AVX2)
inline void BlockAnd(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst) {
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(dst),
      _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b))));
}
inline void BlockAndNot(const std::uint64_t* a, const std::uint64_t* b,
                        std::uint64_t* dst) {
  // _mm256_andnot_si256(x, y) = ~x & y, so pass b first for a & ~b.
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(dst),
      _mm256_andnot_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a))));
}
inline void BlockOr(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst) {
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(dst),
      _mm256_or_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b))));
}
inline void BlockOrNot(const std::uint64_t* a, const std::uint64_t* b,
                       std::uint64_t* dst) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(dst),
      _mm256_or_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)),
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)),
              ones)));
}
#else
inline void BlockAnd(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst) {
  for (int i = 0; i < kBlockWords; ++i) dst[i] = a[i] & b[i];
}
inline void BlockAndNot(const std::uint64_t* a, const std::uint64_t* b,
                        std::uint64_t* dst) {
  for (int i = 0; i < kBlockWords; ++i) dst[i] = a[i] & ~b[i];
}
inline void BlockOr(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst) {
  for (int i = 0; i < kBlockWords; ++i) dst[i] = a[i] | b[i];
}
inline void BlockOrNot(const std::uint64_t* a, const std::uint64_t* b,
                       std::uint64_t* dst) {
  for (int i = 0; i < kBlockWords; ++i) dst[i] = a[i] | ~b[i];
}
#endif

/// Runs @p block over full blocks of @p nw words and @p scalar over the
/// remainder.
template <typename BlockFn, typename ScalarFn>
inline void ForEachBlock(int nw, BlockFn&& block, ScalarFn&& scalar) {
  int w = 0;
  for (; w + kBlockWords <= nw; w += kBlockWords) block(w);
  for (; w < nw; ++w) scalar(w);
}

}  // namespace packed_internal

/// out = a & b, word-parallel. All operands must be the same size (out may
/// alias a or b).
inline void PackedAndInto(const PackedBits& a, const PackedBits& b,
                          PackedBits& out) {
  assert(a.size() == b.size() && a.size() == out.size());
  packed_internal::ForEachBlock(
      a.num_words(),
      [&](int w) { packed_internal::BlockAnd(a.words() + w, b.words() + w, out.words() + w); },
      [&](int w) { out.word(w) = a.word(w) & b.word(w); });
}

/// out = a & ~b (set difference), word-parallel.
inline void PackedAndNotInto(const PackedBits& a, const PackedBits& b,
                             PackedBits& out) {
  assert(a.size() == b.size() && a.size() == out.size());
  packed_internal::ForEachBlock(
      a.num_words(),
      [&](int w) { packed_internal::BlockAndNot(a.words() + w, b.words() + w, out.words() + w); },
      [&](int w) { out.word(w) = a.word(w) & ~b.word(w); });
}

/// out = a | b, word-parallel.
inline void PackedOrInto(const PackedBits& a, const PackedBits& b,
                         PackedBits& out) {
  assert(a.size() == b.size() && a.size() == out.size());
  packed_internal::ForEachBlock(
      a.num_words(),
      [&](int w) { packed_internal::BlockOr(a.words() + w, b.words() + w, out.words() + w); },
      [&](int w) { out.word(w) = a.word(w) | b.word(w); });
}

/// out = a | ~b (e.g. the Figure 5 store-ordering condition
/// "finished | ~is_store"), word-parallel, tail-masked so the complement
/// introduces no ghost lanes.
inline void PackedOrNotInto(const PackedBits& a, const PackedBits& b,
                            PackedBits& out) {
  assert(a.size() == b.size() && a.size() == out.size());
  packed_internal::ForEachBlock(
      a.num_words(),
      [&](int w) { packed_internal::BlockOrNot(a.words() + w, b.words() + w, out.words() + w); },
      [&](int w) { out.word(w) = a.word(w) | ~b.word(w); });
  if (out.num_words() > 0) {
    out.word(out.num_words() - 1) &= PackedTailMask(out.size());
  }
}

/// dst |= src, word-parallel.
inline void PackedOrAccumulate(PackedBits& dst, const PackedBits& src) {
  PackedOrInto(dst, src, dst);
}

/// popcount(a & b) without materializing the intersection.
[[nodiscard]] inline int PackedAndPopCount(const PackedBits& a,
                                           const PackedBits& b) {
  assert(a.size() == b.size());
  int count = 0;
  for (int w = 0; w < a.num_words(); ++w) {
    count += std::popcount(a.word(w) & b.word(w));
  }
  return count;
}

/// Shifts every lane down by @p shift positions (lane i takes lane
/// i + shift's value; the top @p shift lanes clear). Used by the hybrid
/// core's cluster deallocation, which retires C positions at once.
inline void PackedShiftDown(PackedBits& bits, int shift) {
  assert(shift >= 0);
  if (shift == 0 || bits.size() == 0) return;
  if (shift >= bits.size()) {
    bits.ClearAll();
    return;
  }
  const int nw = bits.num_words();
  const int ws = shift >> 6;
  const int bs = shift & 63;
  if (bs == 0) {
    for (int w = 0; w + ws < nw; ++w) bits.word(w) = bits.word(w + ws);
  } else {
    for (int w = 0; w + ws < nw; ++w) {
      std::uint64_t v = bits.word(w + ws) >> bs;
      if (w + ws + 1 < nw) v |= bits.word(w + ws + 1) << (64 - bs);
      bits.word(w) = v;
    }
  }
  for (int w = nw - ws; w < nw; ++w) bits.word(w) = 0;
}

/// Index of the highest set lane in [lo, hi), or -1 when none. Word-at-a-time
/// scan from the top; the building block of the nearest-preceding-writer
/// searches in packed_resolve.hpp.
[[nodiscard]] inline int HighestSetInRange(const PackedBits& bits, int lo,
                                           int hi) {
  assert(lo >= 0 && hi <= bits.size());
  if (lo >= hi) return -1;
  const int wl = lo >> 6;
  const int wh = (hi - 1) >> 6;
  for (int w = wh; w >= wl; --w) {
    std::uint64_t word = bits.word(w);
    if (w == wh) {
      const int rem = hi - (w << 6);
      if (rem < 64) word &= (1ULL << rem) - 1;
    }
    if (w == wl) word &= ~((1ULL << (lo & 63)) - 1);
    if (word != 0) return (w << 6) + 63 - std::countl_zero(word);
  }
  return -1;
}

/// Index of the lowest set lane in [lo, hi), or -1 when none. Twin of
/// HighestSetInRange for the nearest-following-writer searches.
[[nodiscard]] inline int LowestSetInRange(const PackedBits& bits, int lo,
                                          int hi) {
  assert(lo >= 0 && hi <= bits.size());
  if (lo >= hi) return -1;
  const int wl = lo >> 6;
  const int wh = (hi - 1) >> 6;
  for (int w = wl; w <= wh; ++w) {
    std::uint64_t word = bits.word(w);
    if (w == wl) word &= ~((1ULL << (lo & 63)) - 1);
    if (w == wh) {
      const int rem = hi - (w << 6);
      if (rem < 64) word &= (1ULL << rem) - 1;
    }
    if (word != 0) return (w << 6) + std::countr_zero(word);
  }
  return -1;
}

/// dst |= (src restricted to lanes [lo, hi)). Touches only the words the
/// range spans, so marking a short span costs O(span), not O(n).
inline void PackedOrRangeInto(const PackedBits& src, int lo, int hi,
                              PackedBits& dst) {
  assert(src.size() == dst.size());
  assert(lo >= 0 && hi <= src.size());
  if (lo >= hi) return;
  const int wl = lo >> 6;
  const int wh = (hi - 1) >> 6;
  for (int w = wl; w <= wh; ++w) {
    std::uint64_t word = src.word(w);
    if (w == wl) word &= ~((1ULL << (lo & 63)) - 1);
    if (w == wh) {
      const int rem = hi - (w << 6);
      if (rem < 64) word &= (1ULL << rem) - 1;
    }
    dst.word(w) |= word;
  }
}

namespace packed_internal {

/// Exclusive AND-prefix over lanes [lo, hi) of @p cond with carry-in
/// @p carry: writes the delivered prefix into the same lane span of
/// @p out_word and advances @p carry to include every lane of the range.
inline void PrefixAndRange(std::uint64_t cond, int lo, int hi, bool& carry,
                           std::uint64_t& out_word) {
  const int width = hi - lo;
  const std::uint64_t width_mask =
      width == 64 ? ~0ULL : ((1ULL << width) - 1);
  const std::uint64_t cs = (cond >> lo) & width_mask;
  const int t = std::countr_one(cs);  // Lanes before the first unsatisfied.
  std::uint64_t o = 0;
  if (carry) {
    // Delivered lanes 0..t are true (lane k sees lanes 0..k-1 only).
    o = t >= 63 ? ~0ULL : ((1ULL << (t + 1)) - 1);
    o &= width_mask;
  }
  out_word = (out_word & ~(width_mask << lo)) | (o << lo);
  carry = carry && t >= width;
}

/// OR twin of PrefixAndRange.
inline void PrefixOrRange(std::uint64_t cond, int lo, int hi, bool& carry,
                          std::uint64_t& out_word) {
  const int width = hi - lo;
  const std::uint64_t width_mask =
      width == 64 ? ~0ULL : ((1ULL << width) - 1);
  const std::uint64_t cs = (cond >> lo) & width_mask;
  std::uint64_t o;
  if (carry) {
    o = width_mask;
  } else {
    const int s = std::countr_zero(cs);  // First satisfied lane.
    o = s >= width ? 0
                   : (width_mask & ~(s >= 63 ? ~0ULL : ((1ULL << (s + 1)) - 1)));
  }
  out_word = (out_word & ~(width_mask << lo)) | (o << lo);
  carry = carry || cs != 0;
}

}  // namespace packed_internal

}  // namespace ultra::datapath
