#include "memory/butterfly.hpp"

#include <algorithm>
#include <cassert>

namespace ultra::memory {

namespace {
int NextPowerOfTwo(int v) {
  int p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

ButterflyNetwork::ButterflyNetwork(int num_leaves)
    : leaves_(NextPowerOfTwo(std::max(1, num_leaves))), stages_(0) {
  for (int v = leaves_; v > 1; v >>= 1) ++stages_;
  fwd_.assign(static_cast<std::size_t>(stages_ + 1),
              std::vector<Node>(static_cast<std::size_t>(leaves_)));
  rev_.assign(static_cast<std::size_t>(stages_ + 1),
              std::vector<Node>(static_cast<std::size_t>(leaves_)));
}

void ButterflyNetwork::SubmitForward(int leaf, int bank, std::uint64_t id) {
  assert(leaf >= 0 && leaf < leaves_);
  assert(bank >= 0 && bank < leaves_);
  fwd_[0][static_cast<std::size_t>(leaf)].queue.push_back({id, bank});
  ++stats_.messages;
}

void ButterflyNetwork::SubmitReverse(int bank, int leaf, std::uint64_t id) {
  assert(leaf >= 0 && leaf < leaves_);
  assert(bank >= 0 && bank < leaves_);
  rev_[0][static_cast<std::size_t>(bank)].queue.push_back({id, leaf});
  ++stats_.messages;
}

void ButterflyNetwork::TickDirection(std::vector<std::vector<Node>>& net,
                                     std::vector<Arrival>& out) {
  // Deepest stages first so a message advances one stage per cycle.
  for (int s = stages_ - 1; s >= 0; --s) {
    for (int p = 0; p < leaves_; ++p) {
      auto& q = net[static_cast<std::size_t>(s)][static_cast<std::size_t>(p)]
                    .queue;
      // An idle node has nothing to route; skipping it also keeps the
      // empty `stay` deque (two allocations) off the per-cycle path.
      if (q.empty()) continue;
      bool straight_used = false;
      bool cross_used = false;
      std::deque<Msg> stay;
      while (!q.empty()) {
        const Msg m = q.front();
        q.pop_front();
        const bool cross = ((p ^ m.dest) >> s) & 1;
        const int next_row = cross ? (p ^ (1 << s)) : p;
        bool& used = cross ? cross_used : straight_used;
        if (used) {
          stay.push_back(m);
          continue;
        }
        used = true;
        if (s + 1 == stages_) {
          out.push_back({next_row, m.id});
        } else {
          net[static_cast<std::size_t>(s + 1)]
             [static_cast<std::size_t>(next_row)]
                 .queue.push_back(m);
        }
      }
      q = std::move(stay);
      stats_.queue_cycles += q.size();
      stats_.max_queue_depth =
          std::max<std::uint64_t>(stats_.max_queue_depth, q.size());
    }
  }
  // Degenerate single-leaf network: stage 0 is also the output.
  if (stages_ == 0) {
    auto& q = net[0][0].queue;
    while (!q.empty()) {
      out.push_back({0, q.front().id});
      q.pop_front();
    }
  }
}

void ButterflyNetwork::Tick() {
  TickDirection(fwd_, fwd_out_);
  TickDirection(rev_, rev_out_);
}

std::vector<ButterflyNetwork::Arrival> ButterflyNetwork::DrainForward() {
  auto out = std::move(fwd_out_);
  fwd_out_.clear();
  return out;
}

std::vector<ButterflyNetwork::Arrival> ButterflyNetwork::DrainReverse() {
  auto out = std::move(rev_out_);
  rev_out_.clear();
  return out;
}

void ButterflyNetwork::SaveState(persist::Encoder& e) const {
  const auto save_net = [&e](const std::vector<std::vector<Node>>& net) {
    e.U32(static_cast<std::uint32_t>(net.size()));
    for (const auto& stage : net) {
      e.U32(static_cast<std::uint32_t>(stage.size()));
      for (const Node& node : stage) {
        e.U32(static_cast<std::uint32_t>(node.queue.size()));
        for (const Msg& m : node.queue) {
          e.U64(m.id);
          e.I32(m.dest);
        }
      }
    }
  };
  const auto save_out = [&e](const std::vector<Arrival>& out) {
    e.U32(static_cast<std::uint32_t>(out.size()));
    for (const Arrival& a : out) {
      e.I32(a.port);
      e.U64(a.id);
    }
  };
  save_net(fwd_);
  save_net(rev_);
  save_out(fwd_out_);
  save_out(rev_out_);
  e.U64(stats_.messages);
  e.U64(stats_.queue_cycles);
  e.U64(stats_.max_queue_depth);
}

void ButterflyNetwork::RestoreState(persist::Decoder& d) {
  const auto restore_net = [&d](std::vector<std::vector<Node>>& net) {
    if (d.U32() != net.size()) {
      throw persist::FormatError("butterfly geometry mismatch");
    }
    for (auto& stage : net) {
      if (d.U32() != stage.size()) {
        throw persist::FormatError("butterfly geometry mismatch");
      }
      for (Node& node : stage) {
        node.queue.clear();
        const std::uint32_t n = d.U32();
        for (std::uint32_t i = 0; i < n; ++i) {
          const std::uint64_t id = d.U64();
          node.queue.push_back({id, d.I32()});
        }
      }
    }
  };
  const auto restore_out = [&d](std::vector<Arrival>& out) {
    out.clear();
    const std::uint32_t n = d.U32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const int port = d.I32();
      out.push_back({port, d.U64()});
    }
  };
  restore_net(fwd_);
  restore_net(rev_);
  restore_out(fwd_out_);
  restore_out(rev_out_);
  stats_.messages = d.U64();
  stats_.queue_cycles = d.U64();
  stats_.max_queue_depth = d.U64();
}

}  // namespace ultra::memory
