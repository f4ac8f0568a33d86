// Equivalence harness for the shared front end: every detector, the
// explorer and the verified fix loop must produce byte-identical results
// whether each stage parses a source for itself or they all share one
// analysis::FrontEnd.
//
// The golden fingerprints in tests/golden/front_end_fingerprints.txt were
// frozen from the per-stage code paths (every stage parsing, resolving
// and compiling on its own) over the whole corpus plus 50 synthesized
// kernels. One line per (source, artifact): the FNV-1a hash of a
// canonical rendering of the static, lint and dynamic reports, the
// uniform and PCT exploration results, and the RepairResult. A run also
// writes its own fingerprints to front_end_fingerprints.actual in the
// working directory; after an intentional output change, review the diff
// and copy that file over the golden one.
//
// The same fingerprints must come back when every consumer shares one
// FrontEnd per source (one parse, one region collection, one compiled
// module), and ArtifactCache::repair_result must give the same result
// whether the detection stages' reports are resident or not -- without
// computing any of them again when they are.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/evidence.hpp"
#include "analysis/race.hpp"
#include "drb/corpus.hpp"
#include "drb/synth.hpp"
#include "eval/artifact_cache.hpp"
#include "explore/explore.hpp"
#include "lint/lint.hpp"
#include "obs/catalog.hpp"
#include "repair/repair.hpp"
#include "runtime/dynamic.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

#ifndef DRBML_GOLDEN_DIR
#error "DRBML_GOLDEN_DIR must name the directory holding the golden files"
#endif

namespace drbml {
namespace {

// ------------------------------------------------------ canonical renderings

std::string render(const minic::SourceLoc& loc) {
  return std::to_string(loc.line) + ":" + std::to_string(loc.col);
}

std::string render(const analysis::RaceAccess& a) {
  return a.expr_text + "|" + a.var_name + "@" + render(a.loc) + ":" + a.op;
}

std::string render(const analysis::Evidence& ev) {
  return analysis::evidence_to_json(ev).dump();
}

std::string render(const analysis::RaceReport& r) {
  std::string out = "race=" + std::to_string(r.race_detected ? 1 : 0) +
                    " suppressed=" + std::to_string(r.suppressed_pairs) +
                    " suppressed_discharged=" +
                    std::to_string(r.suppressed_discharged) + "\n";
  for (const auto& p : r.pairs) {
    out += "pair " + render(p.first) + " vs " + render(p.second) + " note=" +
           p.note + " ev=" + render(p.evidence) + "\n";
  }
  for (const auto& d : r.discharged) {
    out += "discharged " + render(d.first) + " vs " + render(d.second) +
           " ev=" + render(d.evidence) + "\n";
  }
  for (const auto& d : r.diagnostics) out += "diag " + d + "\n";
  return out;
}

std::string render(const lint::LintReport& r) {
  std::string out = "suppressed=" + std::to_string(r.suppressed) + "\n";
  for (const auto& d : r.diagnostics) {
    out += d.check_id + " sev=" + lint::severity_name(d.severity) + " @" +
           render(d.loc) + " msg=" + d.message + " fixit=" + d.fixit +
           " pattern=" + d.pattern + "\n";
    for (const auto& rel : d.related) {
      out += "  related @" + render(rel.loc) + " " + rel.message + "\n";
    }
  }
  return out + render(r.race);
}

std::string render(const explore::ExploreResult& r) {
  std::string out = "race=" + std::to_string(r.race_detected ? 1 : 0) +
                    " run=" + std::to_string(r.schedules_run) +
                    " first=" + std::to_string(r.first_race_schedule) +
                    " first_seed=" + std::to_string(r.first_race_seed) +
                    " plateau=" + std::to_string(r.stopped_on_plateau ? 1 : 0) +
                    " decisions=" + std::to_string(r.original_decisions) + "/" +
                    std::to_string(r.witness_decisions) +
                    " replays=" + std::to_string(r.minimize_replays) +
                    " faulted=" + std::to_string(r.faulted_runs) + "\n";
  out += "witness=" + r.witness + "\ncoverage";
  for (std::uint64_t h : r.coverage) out += " " + std::to_string(h);
  out += "\n";
  for (const auto& s : r.schedules) {
    out += "schedule " + std::to_string(s.seed) + " " +
           std::to_string(s.raced ? 1 : 0) + std::to_string(s.faulted ? 1 : 0) +
           " steps=" + std::to_string(s.steps) +
           " new=" + std::to_string(s.new_coverage) + "\n";
  }
  return out + render(r.report);
}

std::string render(const repair::LineMap& m) {
  std::string out;
  for (const auto& e : m.trimmed_events) {
    out += " t" + std::to_string(e.line) + "+" + std::to_string(e.delta);
  }
  for (const auto& e : m.original_events) {
    out += " o" + std::to_string(e.line) + "+" + std::to_string(e.delta);
  }
  for (int l : m.dropped_trimmed) out += " dt" + std::to_string(l);
  for (int l : m.dropped_original) out += " do" + std::to_string(l);
  return out;
}

std::string render(const repair::RepairResult& r) {
  return std::string("status=") + repair::repair_status_name(r.status) +
         " id=" + r.patch_id + " family=" + r.family +
         " generated=" + std::to_string(r.candidates_generated) +
         " attempts=" + std::to_string(r.attempts) +
         " equivalence=" + std::to_string(r.equivalence_checked ? 1 : 0) +
         "\ndescription=" + r.description + "\nmessage=" + r.message +
         "\nline_map=" + render(r.line_map) + "\npatched=\n" + r.patched;
}

/// Renders `fn()`, or the error it throws (an error is a result too).
template <typename Fn>
std::string render_or_error(Fn&& fn) {
  try {
    return render(fn());
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  }
}

// ----------------------------------------------------------- the sources

struct Source {
  std::string name;
  std::string code;
};

const std::vector<Source>& sources() {
  static const std::vector<Source> all = [] {
    std::vector<Source> out;
    for (const auto& entry : drb::corpus()) {
      out.push_back({entry.name, drb::drb_code(entry)});
    }
    drb::SynthConfig config;
    config.count = 50;
    config.seed = 13;
    for (auto& k : drb::synthesize(config)) {
      out.push_back({k.name, std::move(k.code)});
    }
    return out;
  }();
  return all;
}

explore::ExploreOptions explore_options(explore::Strategy strategy) {
  explore::ExploreOptions eo;
  eo.strategy = strategy;
  return eo;
}

/// (source name, artifact kind) -> canonical rendering, through the public
/// string entry points with default options.
using Fingerprints = std::map<std::string, std::string>;

Fingerprints fingerprints_of(const Source& s) {
  Fingerprints out;
  out[s.name + " static"] = render_or_error(
      [&] { return analysis::StaticRaceDetector().analyze_source(s.code); });
  out[s.name + " lint"] =
      render_or_error([&] { return lint::Linter().lint_source(s.code); });
  out[s.name + " dynamic"] = render_or_error(
      [&] { return runtime::DynamicRaceDetector().analyze_source(s.code); });
  out[s.name + " explore.uniform"] = render_or_error([&] {
    return explore::explore_source(
        s.code, explore_options(explore::Strategy::Uniform));
  });
  out[s.name + " explore.pct"] = render_or_error([&] {
    return explore::explore_source(s.code,
                                   explore_options(explore::Strategy::Pct));
  });
  out[s.name + " repair"] =
      render_or_error([&] { return repair::repair_source(s.code); });
  return out;
}

/// The same artifacts with every consumer sharing one front end (only
/// repair, which builds its own, goes through the string entry point).
Fingerprints shared_fingerprints_of(const Source& s) {
  std::optional<analysis::FrontEnd> fe;
  try {
    fe.emplace(s.code);
  } catch (const Error&) {
    return fingerprints_of(s);  // nothing to share
  }
  Fingerprints out;
  out[s.name + " static"] =
      render(analysis::StaticRaceDetector().analyze(*fe));
  out[s.name + " lint"] = render(lint::Linter().lint(*fe));
  out[s.name + " dynamic"] = render_or_error(
      [&] { return runtime::DynamicRaceDetector().analyze(*fe); });
  out[s.name + " explore.uniform"] = render_or_error([&] {
    return explore::explore_source(
        *fe, explore_options(explore::Strategy::Uniform));
  });
  out[s.name + " explore.pct"] = render_or_error([&] {
    return explore::explore_source(*fe,
                                   explore_options(explore::Strategy::Pct));
  });
  out[s.name + " repair"] =
      render_or_error([&] { return repair::repair_source(s.code); });
  return out;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(std::string(DRBML_GOLDEN_DIR) +
                   "/front_end_fingerprints.txt");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t sp = line.rfind(' ');
    if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

TEST(FrontEndGolden, EveryArtifactMatchesThePerStageFingerprints) {
  std::map<std::string, std::string> hashes;
  std::map<std::string, std::string> texts;
  {
    std::ofstream actual("front_end_fingerprints.actual");
    actual << "# <source> <artifact> <fnv1a64 of the canonical rendering>\n";
    for (const Source& s : sources()) {
      for (auto& [key, text] : fingerprints_of(s)) {
        hashes[key] = hex(fnv1a64(text));
        actual << key << " " << hashes[key] << "\n";
        texts[key] = std::move(text);
      }
    }
  }
  const std::map<std::string, std::string> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "golden fingerprints missing";
  for (const auto& [key, h] : hashes) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden fingerprint for " << key;
      continue;
    }
    EXPECT_EQ(it->second, h) << key << " changed; rendering now:\n"
                             << texts[key];
  }
  EXPECT_EQ(hashes.size(), golden.size());
}

TEST(FrontEndGolden, OneSharedFrontEndPerSourceMatchesToo) {
  const std::map<std::string, std::string> golden = load_golden();
  ASSERT_FALSE(golden.empty()) << "golden fingerprints missing";
  for (const Source& s : sources()) {
    for (const auto& [key, text] : shared_fingerprints_of(s)) {
      const auto it = golden.find(key);
      ASSERT_NE(it, golden.end()) << key;
      EXPECT_EQ(it->second, hex(fnv1a64(text))) << key << ":\n" << text;
    }
  }
}

// ----------------------------------------------- repair's detection reuse

std::uint64_t counter(const obs::MetricDesc& d) {
  return obs::metrics().counter(d).value();
}

/// Detection-stage cache traffic (static, dynamic and lint kinds).
struct DetectionTraffic {
  std::uint64_t probes = 0;
  std::uint64_t computes = 0;
  std::uint64_t lint_runs = 0;

  static DetectionTraffic now() {
    return {counter(obs::kCacheStaticProbe) + counter(obs::kCacheDynamicProbe) +
                counter(obs::kCacheLintProbe),
            counter(obs::kCacheStaticCompute) +
                counter(obs::kCacheDynamicCompute) +
                counter(obs::kCacheLintCompute),
            counter(obs::kLintRuns)};
  }
  DetectionTraffic operator-(const DetectionTraffic& o) const {
    return {probes - o.probes, computes - o.computes, lint_runs - o.lint_runs};
  }
};

/// Racy corpus entries (the ones the pipeline repairs) plus racy synth
/// kernels.
std::vector<const Source*> racy_sources() {
  std::vector<const Source*> out;
  for (const Source& s : sources()) {
    if (s.name.find("-yes") != std::string::npos) out.push_back(&s);
  }
  return out;
}

TEST(RepairReuse, WarmCacheRepairEqualsColdAndComputesNoDetection) {
  const std::vector<const Source*> racy = racy_sources();
  ASSERT_GT(racy.size(), 100u);
  eval::ArtifactCache cold;
  eval::ArtifactCache warm;
  int reused = 0;
  for (const Source* s : racy) {
    // The pipeline's detection stages, default options, into `warm` only.
    (void)warm.static_report(s->code, {});
    bool executable = true;
    try {
      (void)warm.dynamic_report(s->code, {});
    } catch (const Error&) {
      executable = false;  // not resident: repair computes it itself
    }
    (void)warm.lint_report(s->code);

    const DetectionTraffic before_cold = DetectionTraffic::now();
    const repair::RepairResult from_cold = cold.repair_result(s->code, {});
    const DetectionTraffic cold_traffic = DetectionTraffic::now() - before_cold;
    // A miss counts nothing, and repair never inserts detection reports;
    // it lints the source itself.
    EXPECT_EQ(cold_traffic.probes, 0u) << s->name;
    EXPECT_EQ(cold_traffic.computes, 0u) << s->name;
    EXPECT_EQ(cold_traffic.lint_runs, 1u) << s->name;

    const DetectionTraffic before_warm = DetectionTraffic::now();
    const repair::RepairResult from_warm = warm.repair_result(s->code, {});
    const DetectionTraffic warm_traffic = DetectionTraffic::now() - before_warm;
    // Every resident report is a hit (one probe each) and is adopted:
    // nothing is computed again and the linter does not run.
    EXPECT_EQ(warm_traffic.probes, executable ? 3u : 2u) << s->name;
    EXPECT_EQ(warm_traffic.computes, 0u) << s->name;
    EXPECT_EQ(warm_traffic.lint_runs, 0u) << s->name;

    EXPECT_EQ(from_cold, from_warm) << s->name;
    if (from_warm.status == repair::RepairStatus::Fixed) ++reused;
  }
  EXPECT_GT(reused, 80);
}

}  // namespace
}  // namespace drbml
