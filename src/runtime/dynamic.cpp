#include "runtime/dynamic.hpp"

#include "obs/catalog.hpp"

namespace drbml::runtime {

analysis::RaceReport DynamicRaceDetector::analyze(
    const analysis::FrontEnd& fe) const {
  static obs::Counter& faults = obs::metrics().counter(obs::kInterpFaults);
  static obs::Counter& races = obs::metrics().counter(obs::kInterpRaces);

  analysis::RaceReport merged;
  for (std::uint64_t seed : opts_.schedule_seeds) {
    RunOptions run = opts_.run;
    run.seed = seed;
    const std::string seed_label = "seed=" + std::to_string(seed);
    RunResult result = [&] {
      obs::Span span(obs::kSpanInterpReplay, seed_label);
      return run_program(fe, run);
    }();
    if (result.faulted) faults.add();
    if (result.report.race_detected) races.add();
    for (auto& pair : result.report.pairs) {
      merged.add_pair(std::move(pair));
    }
    for (auto& d : result.report.diagnostics) {
      merged.diagnostics.push_back(std::move(d));
    }
    if (result.faulted) {
      merged.diagnostics.push_back("dynamic: run faulted: " +
                                   result.fault_message);
    }
  }
  if (!merged.race_detected) {
    merged.diagnostics.push_back(
        "dynamic: no happens-before violation observed");
  }
  return merged;
}

analysis::RaceReport DynamicRaceDetector::analyze_source(
    std::string_view source) const {
  return analyze(analysis::FrontEnd(source));
}

RunResult DynamicRaceDetector::run_once(const analysis::FrontEnd& fe,
                                        std::uint64_t seed) const {
  RunOptions run = opts_.run;
  run.seed = seed;
  return run_program(fe, run);
}

RunResult DynamicRaceDetector::run_once(std::string_view source,
                                        std::uint64_t seed) const {
  return run_once(analysis::FrontEnd(source), seed);
}

}  // namespace drbml::runtime
