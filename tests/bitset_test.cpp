// Differential tests for the bit-packed datapath lanes (datapath/bitset.hpp,
// the packed sequencing/scheduler entry points and the writer map): every
// packed circuit must match its byte-lane twin or a plain scan lane for
// lane, across sizes that exercise word boundaries, split words, and tail
// masks.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "datapath/bitset.hpp"
#include "datapath/packed_resolve.hpp"
#include "datapath/scheduler.hpp"
#include "datapath/sequencing.hpp"

namespace ultra::datapath {
namespace {

/// Deterministic xorshift so the differential sweeps are reproducible.
std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::vector<std::uint8_t> RandomBytes(int n, double density,
                                      std::uint64_t& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
  const auto threshold =
      static_cast<std::uint64_t>(density * 18446744073709551615.0);
  for (auto& b : bytes) b = NextRand(state) < threshold;
  return bytes;
}

PackedBits Pack(const std::vector<std::uint8_t>& bytes) {
  PackedBits bits(static_cast<int>(bytes.size()));
  for (int i = 0; i < bits.size(); ++i) {
    if (bytes[static_cast<std::size_t>(i)]) bits.Set(i);
  }
  return bits;
}

void ExpectSameLanes(const std::vector<std::uint8_t>& bytes,
                     const PackedBits& bits, const char* what, int n,
                     int oldest) {
  ASSERT_EQ(static_cast<int>(bytes.size()), bits.size());
  for (int i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(bytes[static_cast<std::size_t>(i)] != 0, bits.Test(i))
        << what << " lane " << i << " n=" << n << " oldest=" << oldest;
  }
}

// Sizes straddling word boundaries: sub-word, exact words, word + tail.
const int kSizes[] = {1, 2, 63, 64, 65, 100, 127, 128, 129, 192, 200};

TEST(PackedBitsTest, BasicInvariants) {
  PackedBits b(70);
  EXPECT_EQ(b.size(), 70);
  EXPECT_EQ(b.num_words(), 2);
  EXPECT_FALSE(b.AnySet());
  b.Set(0);
  b.Set(69);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(69));
  EXPECT_EQ(b.PopCount(), 2);
  b.SetAll();
  EXPECT_EQ(b.PopCount(), 70);
  // Tail lanes must stay clear so whole-word reductions see no ghosts.
  EXPECT_EQ(b.word(1) & ~PackedTailMask(70), 0u);
  b.SetTo(69, false);
  EXPECT_EQ(b.PopCount(), 69);
  int visited = 0;
  ForEachSetBit(b, [&](int i) {
    EXPECT_TRUE(b.Test(i));
    ++visited;
  });
  EXPECT_EQ(visited, 69);
}

// Multi-word block kernels (4 words per step, one AVX2 op per block when
// ULTRA_HAVE_AVX2 is on): every boolean combiner must match the naive
// per-lane reference on the same word-boundary-straddling sizes. The same
// binary runs with AVX2 on and off in CI, so this sweep is the
// scalar-vs-SIMD equivalence check.
TEST(PackedBitsTest, BlockCombinersMatchPerLaneReference) {
  std::uint64_t state = 0xa5a5a5a55a5a5a5aULL;
  for (const int n : kSizes) {
    for (const double density : {0.0, 0.2, 0.5, 0.8, 1.0}) {
      const auto a_bytes = RandomBytes(n, density, state);
      const auto b_bytes = RandomBytes(n, 1.0 - density, state);
      const PackedBits a = Pack(a_bytes);
      const PackedBits b = Pack(b_bytes);
      PackedBits out(n);
      std::vector<std::uint8_t> expect(static_cast<std::size_t>(n));

      PackedAndInto(a, b, out);
      for (int i = 0; i < n; ++i) expect[i] = a_bytes[i] & b_bytes[i];
      ExpectSameLanes(expect, out, "and", n, -1);

      PackedAndNotInto(a, b, out);
      for (int i = 0; i < n; ++i) expect[i] = a_bytes[i] & !b_bytes[i];
      ExpectSameLanes(expect, out, "and-not", n, -1);

      PackedOrInto(a, b, out);
      for (int i = 0; i < n; ++i) expect[i] = a_bytes[i] | b_bytes[i];
      ExpectSameLanes(expect, out, "or", n, -1);

      PackedOrNotInto(a, b, out);
      for (int i = 0; i < n; ++i) expect[i] = a_bytes[i] | !b_bytes[i];
      ExpectSameLanes(expect, out, "or-not", n, -1);
      // The complement must not leak ghost lanes into the tail word.
      EXPECT_EQ(out.word(out.num_words() - 1) & ~PackedTailMask(n), 0u);

      int pc = 0;
      for (int i = 0; i < n; ++i) pc += a_bytes[i] & b_bytes[i];
      EXPECT_EQ(PackedAndPopCount(a, b), pc) << "n=" << n;

      PackedBits acc = Pack(a_bytes);
      PackedOrAccumulate(acc, b);
      for (int i = 0; i < n; ++i) expect[i] = a_bytes[i] | b_bytes[i];
      ExpectSameLanes(expect, acc, "or-accumulate", n, -1);

      // Aliased output (out == a) must be safe.
      PackedBits alias = Pack(a_bytes);
      PackedAndInto(alias, b, alias);
      for (int i = 0; i < n; ++i) expect[i] = a_bytes[i] & b_bytes[i];
      ExpectSameLanes(expect, alias, "and-aliased", n, -1);
    }
  }
}

TEST(PackedBitsTest, ShiftDownMatchesPerLaneReference) {
  std::uint64_t state = 0xdeadbeefcafef00dULL;
  for (const int n : kSizes) {
    const auto bytes = RandomBytes(n, 0.5, state);
    for (const int shift : {0, 1, 4, 8, 63, 64, 65, n - 1, n, n + 7}) {
      if (shift < 0) continue;
      PackedBits bits = Pack(bytes);
      PackedShiftDown(bits, shift);
      std::vector<std::uint8_t> expect(static_cast<std::size_t>(n), 0);
      for (int i = 0; i + shift < n; ++i) expect[i] = bytes[i + shift];
      ExpectSameLanes(expect, bits, "shift-down", n, shift);
    }
  }
}

TEST(PackedBitsTest, RangeScansMatchLinearReference) {
  std::uint64_t state = 0x0badc0ffee0ddf00ULL;
  for (const int n : kSizes) {
    for (const double density : {0.0, 0.05, 0.5, 1.0}) {
      const auto bytes = RandomBytes(n, density, state);
      const PackedBits bits = Pack(bytes);
      const int step = n > 32 ? 11 : 1;
      for (int lo = 0; lo <= n; lo += step) {
        for (int hi = lo; hi <= n; hi += step) {
          int lowest = -1;
          int highest = -1;
          for (int i = lo; i < hi; ++i) {
            if (!bytes[static_cast<std::size_t>(i)]) continue;
            if (lowest < 0) lowest = i;
            highest = i;
          }
          ASSERT_EQ(LowestSetInRange(bits, lo, hi), lowest)
              << "n=" << n << " [" << lo << "," << hi << ")";
          ASSERT_EQ(HighestSetInRange(bits, lo, hi), highest)
              << "n=" << n << " [" << lo << "," << hi << ")";

          PackedBits dst(n);
          dst.Set(0);  // Pre-existing lanes must survive the |=.
          PackedOrRangeInto(bits, lo, hi, dst);
          std::vector<std::uint8_t> expect(static_cast<std::size_t>(n), 0);
          expect[0] = 1;
          for (int i = lo; i < hi; ++i) {
            if (bytes[static_cast<std::size_t>(i)]) expect[i] = 1;
          }
          ExpectSameLanes(expect, dst, "or-range", n, lo);
        }
      }
    }
  }
}

TEST(PackedSequencingTest, CyclicPrefixesMatchByteLanes) {
  SCOPED_TRACE("cyclic");
  std::uint64_t state = 0x1234567890abcdefULL;
  for (const int n : kSizes) {
    SequencingCspp seq(n);
    std::vector<std::uint8_t> out_bytes(static_cast<std::size_t>(n));
    PackedBits out_bits(n);
    for (const double density : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      const auto cond = RandomBytes(n, density, state);
      const PackedBits packed = Pack(cond);
      for (int oldest = 0; oldest < n; ++oldest) {
        seq.AllPrecedingSatisfyInto(cond, oldest, out_bytes);
        PackedAllPrecedingSatisfyInto(packed, oldest, out_bits);
        ExpectSameLanes(out_bytes, out_bits, "all-preceding", n, oldest);
        seq.AnyPrecedingSatisfiesInto(cond, oldest, out_bytes);
        PackedAnyPrecedingSatisfiesInto(packed, oldest, out_bits);
        ExpectSameLanes(out_bytes, out_bits, "any-preceding", n, oldest);
      }
    }
  }
}

TEST(PackedSequencingTest, AcyclicPrefixMatchesByteLanes) {
  std::uint64_t state = 0xfeedfacecafebeefULL;
  for (const int n : kSizes) {
    std::vector<std::uint8_t> out_bytes(static_cast<std::size_t>(n));
    PackedBits out_bits(n);
    for (const double density : {0.0, 0.3, 0.7, 1.0}) {
      for (int trial = 0; trial < 8; ++trial) {
        const auto cond = RandomBytes(n, density, state);
        AllPrecedingSatisfyAcyclicInto(cond, out_bytes);
        PackedAllPrecedingSatisfyAcyclicInto(Pack(cond), out_bits);
        ExpectSameLanes(out_bytes, out_bits, "acyclic", n, -1);
      }
    }
  }
}

TEST(PackedSchedulerTest, GrantsMatchByteLanes) {
  std::uint64_t state = 0x0123456789abcdefULL;
  for (const int n : kSizes) {
    AluScheduler sched(n);
    std::vector<std::uint8_t> out_bytes(static_cast<std::size_t>(n));
    PackedBits out_bits(n);
    for (const double density : {0.0, 0.2, 0.6, 1.0}) {
      const auto requests = RandomBytes(n, density, state);
      const PackedBits packed = Pack(requests);
      for (const int available : {0, 1, 2, 7, n / 2, n, n + 5}) {
        for (int oldest = 0; oldest < n; oldest += (n > 16 ? 7 : 1)) {
          sched.GrantInto(requests, available, oldest, out_bytes);
          sched.PackedGrantInto(packed, available, oldest, out_bits);
          ExpectSameLanes(out_bytes, out_bits, "grant", n, oldest);
        }
        AluScheduler::GrantAcyclicInto(requests, available, out_bytes);
        AluScheduler::PackedGrantAcyclicInto(packed, available, out_bits);
        ExpectSameLanes(out_bytes, out_bits, "grant-acyclic", n, -1);
      }
    }
  }
}


// The writer map's rules against a scan in program order, cyclic from every
// oldest slot: the nearest writer before and after each slot, and the
// readers a result change at each slot marks stale -- those after it up to
// and including the next writer, or to the youngest slot when none follows.
// At oldest = 0 the same calls must give the acyclic answers (plain scans
// of slots [0, i) and (j, n)) that Ultrascalar II and the hybrid rely on.
TEST(PackedWriterMapTest, RulesMatchAProgramOrderScan) {
  std::uint64_t state = 0x5eed0f3173e6a9b1ULL;
  constexpr int kRegs = 3;
  for (const int n : {1, 63, 64, 65, 200}) {
    std::vector<std::vector<std::uint8_t>> writes, reads;
    PackedWriterMap wmap;
    wmap.Assign(n, kRegs);
    for (int r = 0; r < kRegs; ++r) {
      writes.push_back(RandomBytes(n, 0.02 + 0.2 * r, state));
      reads.push_back(RandomBytes(n, 0.4, state));
      for (int s = 0; s < n; ++s) {
        if (writes[r][static_cast<std::size_t>(s)]) wmap.SetWriter(s, r);
        if (reads[r][static_cast<std::size_t>(s)]) wmap.AddReader(s, r);
      }
    }
    for (int oldest = 0; oldest < n; ++oldest) {
      const auto slot = [&](int age) { return (oldest + age) % n; };
      for (int r = 0; r < kRegs; ++r) {
        const auto& w = writes[static_cast<std::size_t>(r)];
        for (int j = 0; j < n; ++j) {
          const int age = (j - oldest + n) % n;
          int before = -1;
          for (int a = age - 1; a >= 0 && before < 0; --a) {
            if (w[static_cast<std::size_t>(slot(a))]) before = slot(a);
          }
          int after = -1;
          int end = n;  // Ages (age, end) hold the stale readers.
          for (int a = age + 1; a < n && after < 0; ++a) {
            if (w[static_cast<std::size_t>(slot(a))]) after = slot(a);
            end = a + 1;
          }
          ASSERT_EQ(wmap.NearestWriterBefore(j, r, oldest), before)
              << "n=" << n << " oldest=" << oldest << " r=" << r << " j=" << j;
          ASSERT_EQ(wmap.NearestWriterAfter(j, r, oldest), after)
              << "n=" << n << " oldest=" << oldest << " r=" << r << " j=" << j;

          PackedBits stale(n);
          wmap.OrReadersInCyclicRange(r, (j + 1) % n,
                                      after >= 0 ? (after + 1) % n : oldest,
                                      stale);
          std::vector<std::uint8_t> expect(static_cast<std::size_t>(n), 0);
          for (int a = age + 1; a < end; ++a) {
            expect[static_cast<std::size_t>(slot(a))] =
                reads[static_cast<std::size_t>(r)]
                     [static_cast<std::size_t>(slot(a))];
          }
          ExpectSameLanes(expect, stale, "stale span", n, oldest);

          if (oldest != 0) continue;
          const PackedBits row = Pack(w);
          ASSERT_EQ(before, HighestSetInRange(row, 0, j)) << "n=" << n;
          ASSERT_EQ(after, LowestSetInRange(row, j + 1, n)) << "n=" << n;
          PackedBits acyclic(n);
          wmap.OrReadersInCyclicRange(r, j + 1, after >= 0 ? after + 1 : 0,
                                      acyclic);
          ExpectSameLanes(expect, acyclic, "acyclic span", n, j);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ultra::datapath
