// The hybrid Ultrascalar register datapath (Section 6, Figures 9 and 10).
//
// The window is divided into n/C clusters of C stations. Each cluster is an
// Ultrascalar II datapath extended with per-register modified bits computed
// by OR trees over the stations' write lines (Figure 9). The clusters are
// then connected by the Ultrascalar I CSPP datapath, with each cluster
// acting as a "super execution station": exactly one cluster is the oldest
// on any cycle and holds the committed register file.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datapath/reg_binding.hpp"
#include "datapath/usi.hpp"
#include "datapath/usii.hpp"

namespace ultra::datapath {

struct HybridPropagation {
  std::vector<ResolvedArgs> args;        // Per station (n entries).
  std::vector<RegBinding> cluster_in;    // Per cluster x register
                                         // [cluster*L + r]: what the
                                         // inter-cluster ring delivers.
};

/// Caller-owned state for incremental, allocation-free hybrid propagation.
///
/// Mirrors UsiDatapathState one level up: the caller mutates station
/// requests, the committed file, and the oldest-cluster position through
/// self-diffing setters; PropagateIncremental re-runs only the clusters
/// whose inputs (or incoming inter-cluster values) changed. args() matches
/// the full Propagate element-for-element, including stations the core
/// considers dead.
class HybridDatapathState {
 public:
  HybridDatapathState(int num_stations, int num_regs, int cluster_size);

  [[nodiscard]] int num_stations() const { return n_; }
  [[nodiscard]] int num_regs() const { return L_; }
  [[nodiscard]] int cluster_size() const { return C_; }
  [[nodiscard]] int num_clusters() const { return K_; }

  /// Replaces station @p station's request (cluster-major index, as in
  /// Propagate). No-op when equal to the current request.
  void SetStation(int station, const StationRequest& request);

  /// Updates one committed register. No-op when unchanged.
  void SetCommitted(int reg, const RegBinding& value);

  /// Moves the oldest-cluster position.
  void SetOldestCluster(int cluster);

  /// Forces the next PropagateIncremental to recompute everything.
  void MarkAllDirty();

  [[nodiscard]] int oldest_cluster() const { return ring_.oldest(); }
  /// Valid after PropagateIncremental: the station's resolved arguments.
  [[nodiscard]] const ResolvedArgs& args(int station) const {
    return args_[static_cast<std::size_t>(station)];
  }
  /// Valid after PropagateIncremental: what cluster @p cluster resolves
  /// cluster-external reads against (the committed file for the oldest
  /// cluster, the inter-cluster ring's delivery otherwise).
  [[nodiscard]] const RegBinding& cluster_in(int cluster, int reg) const {
    return cluster == ring_.oldest() ? ring_.committed(reg)
                                     : ring_.incoming(cluster, reg);
  }

 private:
  friend class HybridDatapath;

  int n_;
  int L_;
  int C_;
  int K_;                                     // Number of clusters, n/C.
  std::vector<StationRequest> stations_;      // [i], cluster-major shadow.
  std::vector<std::uint8_t> cluster_dirty_;   // [k]: requests changed.
  std::vector<std::uint8_t> cluster_in_dirty_;  // [k]: regfile source
                                                // changed (oldest moved or
                                                // committed updated).
  UsiDatapathState ring_;                     // Inter-cluster ring (K x L).
  std::vector<ResolvedArgs> args_;            // [i].
  // Scratch reused across PropagateIncremental calls.
  std::vector<std::uint8_t> ring_changed_;    // [k].
  std::vector<std::uint8_t> sweep_written_;   // [r].
  std::vector<RegBinding> sweep_val_;         // [r].
  std::vector<RegBinding> resolve_regs_;      // [r].
};

class HybridDatapath {
 public:
  /// @p num_stations must be a multiple of @p cluster_size.
  HybridDatapath(int num_stations, int num_regs, int cluster_size,
                 UsiiImpl cluster_impl = UsiiImpl::kGrid,
                 PrefixImpl tree_impl = PrefixImpl::kTree);

  [[nodiscard]] int num_stations() const { return n_; }
  [[nodiscard]] int num_regs() const { return L_; }
  [[nodiscard]] int cluster_size() const { return C_; }
  [[nodiscard]] int num_clusters() const { return n_ / C_; }

  /// Combinational propagation for one cycle.
  ///
  /// @p committed_regfile  the committed register file (L entries), inserted
  ///                       into the inter-cluster ring by the oldest cluster.
  /// @p stations           n station requests, cluster-major (stations
  ///                       [k*C, (k+1)*C) belong to cluster k, in program
  ///                       order within the cluster).
  /// @p oldest_cluster     index of the oldest cluster.
  ///
  /// Argument resolution: nearest preceding writer within the station's own
  /// cluster, else the cluster's incoming inter-cluster value, which comes
  /// from the nearest preceding cluster (cyclically, stopping at the oldest)
  /// that modified the register.
  [[nodiscard]] HybridPropagation Propagate(
      std::span<const RegBinding> committed_regfile,
      std::span<const StationRequest> stations, int oldest_cluster) const;

  /// Incremental, allocation-free propagation into caller-owned state.
  /// Recomputes a cluster's outgoing registers only when its station
  /// requests changed, and a cluster's argument resolution only when its
  /// requests, its incoming ring values, or its register-file source
  /// changed. See docs/runtime.md for the dirty-set invariants.
  void PropagateIncremental(HybridDatapathState& state) const;

  /// Critical-path gate depth: intra-cluster grid/mesh search + modified-bit
  /// OR tree + inter-cluster CSPP + intra-cluster argument resolution.
  [[nodiscard]] int WorstCaseGateDepth() const;

 private:
  int n_;
  int L_;
  int C_;
  UsiiImpl cluster_impl_;
  PrefixImpl tree_impl_;
};

}  // namespace ultra::datapath
