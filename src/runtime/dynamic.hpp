// Dynamic race detector facade (the repository's Intel-Inspector stand-in).
//
// Runs the program under the interpreter's vector-clock detector across
// one or more seeded schedules and unions the reports. Like any dynamic
// tool it only sees races that manifest on executed paths: races guarded
// by unexercised inputs are missed (false negatives); it reports no false
// positives on data it actually observed.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/report.hpp"
#include "runtime/interp.hpp"

namespace drbml::runtime {

struct DynamicDetectorOptions {
  RunOptions run;
  /// Seeds for independent schedule replays; reports are unioned.
  std::vector<std::uint64_t> schedule_seeds = {1, 2, 3};
};

class DynamicRaceDetector {
 public:
  explicit DynamicRaceDetector(DynamicDetectorOptions opts = {})
      : opts_(std::move(opts)) {}

  /// Executes the program under each schedule seed and unions the
  /// reports. Under the VM every seed runs the front end's one module.
  [[nodiscard]] analysis::RaceReport analyze(
      const analysis::FrontEnd& fe) const;

  /// Convenience: analyze(FrontEnd(source)).
  [[nodiscard]] analysis::RaceReport analyze_source(
      std::string_view source) const;

  /// Runs one schedule and returns the full execution result.
  [[nodiscard]] RunResult run_once(const analysis::FrontEnd& fe,
                                   std::uint64_t seed) const;

  /// Convenience: run_once(FrontEnd(source), seed).
  [[nodiscard]] RunResult run_once(std::string_view source,
                                   std::uint64_t seed) const;

  [[nodiscard]] const DynamicDetectorOptions& options() const noexcept {
    return opts_;
  }

 private:
  DynamicDetectorOptions opts_;
};

}  // namespace drbml::runtime
