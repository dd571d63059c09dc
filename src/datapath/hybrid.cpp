#include "datapath/hybrid.hpp"

#include <algorithm>
#include <cassert>

#include "circuit/circuit.hpp"

namespace ultra::datapath {

using circuit::CeilLog2;
using circuit::ReductionDepth;

// --- HybridDatapathState -----------------------------------------------------

HybridDatapathState::HybridDatapathState(int num_stations, int num_regs,
                                         int cluster_size)
    : n_(num_stations),
      L_(num_regs),
      C_(cluster_size),
      K_(num_stations / cluster_size),
      ring_(num_stations / cluster_size, num_regs) {
  assert(n_ >= 1 && C_ >= 1 && n_ % C_ == 0);
  stations_.resize(static_cast<std::size_t>(n_));
  cluster_dirty_.assign(static_cast<std::size_t>(K_), 1);
  cluster_in_dirty_.assign(static_cast<std::size_t>(K_), 1);
  args_.resize(static_cast<std::size_t>(n_));
  ring_changed_.resize(static_cast<std::size_t>(K_));
  sweep_written_.resize(static_cast<std::size_t>(L_));
  sweep_val_.resize(static_cast<std::size_t>(L_));
  resolve_regs_.resize(static_cast<std::size_t>(L_));
}

void HybridDatapathState::SetStation(int station,
                                     const StationRequest& request) {
  auto& slot = stations_[static_cast<std::size_t>(station)];
  if (slot == request) return;
  slot = request;
  cluster_dirty_[static_cast<std::size_t>(station / C_)] = 1;
}

void HybridDatapathState::SetCommitted(int reg, const RegBinding& value) {
  if (ring_.committed(reg) == value) return;
  ring_.SetCommitted(reg, value);
  // The oldest cluster resolves against the committed file directly (it
  // bypasses the ring), so its argument resolution must re-run.
  cluster_in_dirty_[static_cast<std::size_t>(ring_.oldest())] = 1;
}

void HybridDatapathState::SetOldestCluster(int cluster) {
  if (cluster == ring_.oldest()) return;
  // Both the old and the new oldest cluster switch register-file source
  // (ring delivery <-> committed file).
  cluster_in_dirty_[static_cast<std::size_t>(ring_.oldest())] = 1;
  cluster_in_dirty_[static_cast<std::size_t>(cluster)] = 1;
  ring_.SetOldest(cluster);
}

void HybridDatapathState::MarkAllDirty() {
  std::fill(cluster_dirty_.begin(), cluster_dirty_.end(), 1);
  std::fill(cluster_in_dirty_.begin(), cluster_in_dirty_.end(), 1);
  ring_.MarkAllDirty();
}

// --- HybridDatapath ----------------------------------------------------------

HybridDatapath::HybridDatapath(int num_stations, int num_regs,
                               int cluster_size, UsiiImpl cluster_impl,
                               PrefixImpl tree_impl)
    : n_(num_stations),
      L_(num_regs),
      C_(cluster_size),
      cluster_impl_(cluster_impl),
      tree_impl_(tree_impl) {
  assert(n_ >= 1 && C_ >= 1);
  assert(n_ % C_ == 0 && "station count must be a multiple of cluster size");
  assert(L_ >= 1 && L_ <= isa::kMaxLogicalRegisters);
}

HybridPropagation HybridDatapath::Propagate(
    std::span<const RegBinding> committed_regfile,
    std::span<const StationRequest> stations, int oldest_cluster) const {
  assert(committed_regfile.size() == static_cast<std::size_t>(L_));
  assert(stations.size() == static_cast<std::size_t>(n_));
  const int num_clusters = n_ / C_;
  assert(oldest_cluster >= 0 && oldest_cluster < num_clusters);

  // Step 1 (Figure 9): each cluster's outgoing register values and modified
  // bits. Outgoing value for register r = result of the last station in the
  // cluster writing r; modified bit = OR over the cluster's write lines.
  std::vector<RegBinding> cluster_out(
      static_cast<std::size_t>(num_clusters) * L_);
  std::vector<std::uint8_t> cluster_modified(
      static_cast<std::size_t>(num_clusters) * L_, 0);
  for (int k = 0; k < num_clusters; ++k) {
    for (int r = 0; r < L_; ++r) {
      const std::size_t idx = static_cast<std::size_t>(k) * L_ + r;
      for (int j = C_ - 1; j >= 0; --j) {
        const auto& s = stations[static_cast<std::size_t>(k * C_ + j)];
        if (s.writes && s.dest == r) {
          cluster_out[idx] = s.result;
          cluster_modified[idx] = 1;
          break;
        }
      }
    }
  }
  // The oldest cluster inserts the committed register file for every
  // register it does not itself overwrite. (All its modified bits are set;
  // the UltrascalarIDatapath treats the oldest's bits as all-set anyway, so
  // we must also supply the committed values on unmodified registers.)
  for (int r = 0; r < L_; ++r) {
    const std::size_t idx =
        static_cast<std::size_t>(oldest_cluster) * L_ + r;
    if (!cluster_modified[idx]) {
      cluster_out[idx] = committed_regfile[r];
    }
  }

  // Step 2: inter-cluster Ultrascalar I ring delivers each cluster's
  // incoming register file.
  const UltrascalarIDatapath ring(num_clusters, L_, tree_impl_);
  HybridPropagation out;
  out.cluster_in = ring.Propagate(cluster_out, cluster_modified,
                                  oldest_cluster);
  // The oldest cluster ignores the ring and uses the committed file.
  for (int r = 0; r < L_; ++r) {
    out.cluster_in[static_cast<std::size_t>(oldest_cluster) * L_ + r] =
        committed_regfile[r];
  }

  // Step 3: intra-cluster argument resolution -- each cluster is an
  // Ultrascalar II whose register file is the cluster's incoming values.
  out.args.resize(static_cast<std::size_t>(n_));
  const UltrascalarIIDatapath grid(C_, L_, cluster_impl_);
  for (int k = 0; k < num_clusters; ++k) {
    const std::span<const RegBinding> cluster_regfile(
        out.cluster_in.data() + static_cast<std::size_t>(k) * L_,
        static_cast<std::size_t>(L_));
    const std::span<const StationRequest> cluster_stations(
        stations.data() + static_cast<std::size_t>(k) * C_,
        static_cast<std::size_t>(C_));
    auto prop = grid.Propagate(cluster_regfile, cluster_stations);
    for (int j = 0; j < C_; ++j) {
      out.args[static_cast<std::size_t>(k * C_ + j)] =
          prop.args[static_cast<std::size_t>(j)];
    }
  }
  return out;
}

void HybridDatapath::PropagateIncremental(HybridDatapathState& state) const {
  assert(state.n_ == n_ && state.L_ == L_ && state.C_ == C_);
  // Step 1: refresh the inter-cluster ring's cells for clusters whose
  // station requests changed. The cluster's outgoing value for register r
  // is its last writer's result; registers without a writer clear their
  // modified bit (the oldest cluster's committed insertion is handled by
  // the ring itself). The ring's setters self-diff, so a dirty cluster
  // whose outgoing registers end up unchanged dirties nothing downstream.
  for (int k = 0; k < state.K_; ++k) {
    if (!state.cluster_dirty_[static_cast<std::size_t>(k)]) continue;
    std::fill(state.sweep_written_.begin(), state.sweep_written_.end(), 0);
    for (int j = 0; j < C_; ++j) {
      const auto& s = state.stations_[static_cast<std::size_t>(k * C_ + j)];
      if (s.writes) {
        state.sweep_written_[s.dest] = 1;
        state.sweep_val_[s.dest] = s.result;
      }
    }
    for (int r = 0; r < L_; ++r) {
      if (state.sweep_written_[static_cast<std::size_t>(r)]) {
        state.ring_.SetWrite(k, r,
                             state.sweep_val_[static_cast<std::size_t>(r)]);
      } else {
        state.ring_.ClearWrite(k, r);
      }
    }
  }

  // Step 2: inter-cluster Ultrascalar I ring, incrementally; record which
  // clusters saw any incoming register change.
  const int num_clusters = state.K_;
  const UltrascalarIDatapath ring(num_clusters, L_, tree_impl_);
  std::fill(state.ring_changed_.begin(), state.ring_changed_.end(), 0);
  ring.PropagateIncremental(state.ring_, state.ring_changed_);

  // Step 3: intra-cluster argument resolution, only where inputs moved. A
  // cluster's args depend on its own requests and its register-file source
  // (committed file when oldest, ring delivery otherwise) — each covered by
  // one of the three flags.
  for (int k = 0; k < num_clusters; ++k) {
    const std::size_t ks = static_cast<std::size_t>(k);
    if (!state.cluster_dirty_[ks] && !state.cluster_in_dirty_[ks] &&
        !state.ring_changed_[ks]) {
      continue;
    }
    state.cluster_dirty_[ks] = 0;
    state.cluster_in_dirty_[ks] = 0;
    const bool is_oldest = k == state.ring_.oldest();
    for (int r = 0; r < L_; ++r) {
      state.resolve_regs_[static_cast<std::size_t>(r)] =
          is_oldest ? state.ring_.committed(r) : state.ring_.incoming(k, r);
    }
    for (int j = 0; j < C_; ++j) {
      const std::size_t idx = static_cast<std::size_t>(k * C_ + j);
      const auto& s = state.stations_[idx];
      auto& a = state.args_[idx];
      a.arg1 = s.reads1 ? state.resolve_regs_[s.arg1] : RegBinding{};
      a.arg2 = s.reads2 ? state.resolve_regs_[s.arg2] : RegBinding{};
      if (s.writes) state.resolve_regs_[s.dest] = s.result;
    }
  }
}

int HybridDatapath::WorstCaseGateDepth() const {
  const int num_clusters = n_ / C_;
  // A value produced in one cluster and consumed in another traverses:
  // the producing cluster's outgoing-register column, the modified-bit OR
  // tree, the inter-cluster CSPP, and the consuming cluster's argument
  // column.
  const UltrascalarIIDatapath grid(C_, L_, cluster_impl_);
  const int column = grid.WorstCaseGateDepth();
  const int or_tree = ReductionDepth(C_) * circuit::kOrCost;
  const UltrascalarIDatapath ring(num_clusters, L_, tree_impl_);
  const int inter = ring.WorstCaseGateDepth();
  return column + or_tree + inter + column;
}

}  // namespace ultra::datapath
