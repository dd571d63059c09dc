// The hybrid Ultrascalar processor (Section 6).
//
// n/C clusters of C stations each. Within a cluster, arguments route
// through the Ultrascalar II grid; between clusters, register values travel
// the Ultrascalar I CSPP ring, with the oldest cluster holding the
// committed register file. Clusters act as "super execution stations":
// they are allocated and deallocated as units in ring order, while
// instructions inside them issue out of order and commit in program order.
// The packed loop delivers operands through WriterMapNetwork, its lanes the
// program positions (oldest lane 0, shifted down a cluster at a time).
#pragma once

#include "core/processor.hpp"

namespace ultra::core {

class HybridCore final : public Processor {
 public:
  explicit HybridCore(const CoreConfig& config) : config_(config) {}

  [[nodiscard]] RunResult Run(const isa::Program& program) override;
  [[nodiscard]] std::string_view Name() const override { return "Hybrid"; }
  [[nodiscard]] const CoreConfig& config() const override { return config_; }
  [[nodiscard]] ProcessorKind kind() const override {
    return ProcessorKind::kHybrid;
  }

 private:
  CoreConfig config_;
};

}  // namespace ultra::core
