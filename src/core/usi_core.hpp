// The Ultrascalar I processor (Sections 2-3).
//
// A ring of n execution stations connected by one CSPP circuit per logical
// register plus the Figure 5 sequencing circuits. Stations refill
// continually: the window wraps around, the oldest station holds the
// committed register file, and misprediction recovery costs nothing beyond
// refetching the correct path. The packed loop delivers operands through
// WriterMapNetwork, its lanes the ring and its oldest lane the head.
#pragma once

#include "core/processor.hpp"

namespace ultra::core {

class UltrascalarICore final : public Processor {
 public:
  explicit UltrascalarICore(const CoreConfig& config) : config_(config) {}

  [[nodiscard]] RunResult Run(const isa::Program& program) override;
  [[nodiscard]] std::string_view Name() const override {
    return "UltrascalarI";
  }
  [[nodiscard]] const CoreConfig& config() const override { return config_; }
  [[nodiscard]] ProcessorKind kind() const override {
    return ProcessorKind::kUltrascalarI;
  }

 private:
  CoreConfig config_;
};

}  // namespace ultra::core
