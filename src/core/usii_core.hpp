// The Ultrascalar II processor (Sections 4-5).
//
// A batch machine: n stations fill with consecutive instructions, arguments
// route through the grid / mesh-of-trees datapath against the edge register
// file, and "stations idle waiting for everyone to finish before refilling"
// (the paper's stated inefficiency of the design; the wrap-around variant
// is the hybrid's job). When every station has finished, the final register
// values latch into the register file and the next batch begins. The
// packed loop delivers operands through WriterMapNetwork, its lanes the
// batch slots and its oldest lane 0.
#pragma once

#include "core/processor.hpp"

namespace ultra::core {

class UltrascalarIICore final : public Processor {
 public:
  explicit UltrascalarIICore(const CoreConfig& config) : config_(config) {}

  [[nodiscard]] RunResult Run(const isa::Program& program) override;
  [[nodiscard]] std::string_view Name() const override {
    return "UltrascalarII";
  }
  [[nodiscard]] const CoreConfig& config() const override { return config_; }
  [[nodiscard]] ProcessorKind kind() const override {
    return ProcessorKind::kUltrascalarII;
  }

 private:
  CoreConfig config_;
};

}  // namespace ultra::core
