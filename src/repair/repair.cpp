#include "repair/repair.hpp"

#include <algorithm>
#include <cctype>
#include <optional>

#include "dataset/drbml.hpp"
#include "explore/explore.hpp"
#include "lint/lint.hpp"
#include "obs/catalog.hpp"
#include "support/error.hpp"

namespace drbml::repair {

namespace {

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      if (start < s.size()) lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

}  // namespace

const char* repair_status_name(RepairStatus s) noexcept {
  switch (s) {
    case RepairStatus::NoRaceDetected: return "no-race";
    case RepairStatus::Fixed: return "fixed";
    case RepairStatus::NoCandidate: return "no-candidate";
    case RepairStatus::Rejected: return "rejected";
    case RepairStatus::Error: return "error";
  }
  return "?";
}

namespace {

runtime::DynamicDetectorOptions one_thread(runtime::DynamicDetectorOptions o) {
  o.run.num_threads = 1;
  return o;
}

/// Gate 3's reference semantics: the original program run on one thread,
/// computed at the first candidate that reaches the gate and shared by
/// every later one.
class SerialReference {
 public:
  /// `original` is null when the original does not parse (no reference).
  SerialReference(const analysis::FrontEnd* original,
                  const RepairOptions& opts)
      : original_(original), detector_(one_thread(opts.dynamic_opts)) {}

  /// One serial run of `fe`, under the same options as the reference.
  [[nodiscard]] runtime::RunResult run(const analysis::FrontEnd& fe) const {
    return detector_.run_once(fe, detector_.options().run.seed);
  }

  /// The original's serial run; nullptr when it faults or cannot run, in
  /// which case gate 3 is skipped.
  const runtime::RunResult* get() {
    if (!computed_) {
      computed_ = true;
      try {
        if (original_ != nullptr) {
          runtime::RunResult ref = run(*original_);
          if (!ref.faulted) result_ = std::move(ref);
        }
      } catch (const Error&) {
        // No serial reference; gate 2 still applies, gate 3 is skipped.
      }
    }
    return result_ ? &*result_ : nullptr;
  }

 private:
  const analysis::FrontEnd* original_;
  runtime::DynamicRaceDetector detector_;
  bool computed_ = false;
  std::optional<runtime::RunResult> result_;
};

VerifyOutcome verify_candidate_impl(SerialReference& reference,
                                    const std::string& patched,
                                    const RepairOptions& opts) {
  VerifyOutcome out;

  // The candidate is parsed, resolved and (under the VM) compiled once;
  // every gate below runs on this front end.
  std::optional<analysis::FrontEnd> fe;
  try {
    fe.emplace(patched);
  } catch (const Error& e) {
    out.gate = RejectGate::Static;
    out.reason = std::string("static analysis failed: ") + e.what();
    return out;
  }

  // Gate 1: static detector must report race-free.
  if (analysis::StaticRaceDetector(opts.static_opts)
          .analyze(*fe)
          .race_detected) {
    out.gate = RejectGate::Static;
    out.reason = "static detector still reports a race";
    return out;
  }

  // Gate 2: every parallel schedule must be race-free and fault-free, and
  // all schedules must agree on output (the fix made the program
  // schedule-deterministic). The parallel output is NOT compared against
  // the serial reference -- programs whose answer legitimately depends on
  // the thread count (each thread increments a counter) would fail that.
  const runtime::DynamicRaceDetector ddet(opts.dynamic_opts);
  bool have_ref = false;
  try {
    bool have_par = false;
    std::string par_output;
    int par_exit = 0;
    for (const std::uint64_t seed : opts.dynamic_opts.schedule_seeds) {
      const runtime::RunResult run = ddet.run_once(*fe, seed);
      if (run.faulted) {
        out.gate = RejectGate::Fault;
        out.reason = "patched program faults: " + run.fault_message;
        return out;
      }
      if (run.report.race_detected) {
        out.gate = RejectGate::Dynamic;
        out.reason = "dynamic detector still reports a race (seed " +
                     std::to_string(seed) + ")";
        return out;
      }
      if (have_par &&
          (run.output != par_output || run.exit_code != par_exit)) {
        out.gate = RejectGate::Nondet;
        out.reason = "output not deterministic across schedules (seed " +
                     std::to_string(seed) + ")";
        return out;
      }
      have_par = true;
      par_output = run.output;
      par_exit = run.exit_code;
    }
    // Gate 3: serial semantics preserved -- the patched program run on one
    // thread must match the original run on one thread byte for byte.
    // This is what rejects patches like privatizing an accumulator: they
    // silence the detectors but change the answer even serially.
    if (const runtime::RunResult* ref = reference.get()) {
      have_ref = true;
      const runtime::RunResult srun = reference.run(*fe);
      if (srun.faulted || srun.output != ref->output ||
          srun.exit_code != ref->exit_code) {
        out.gate = RejectGate::Output;
        out.reason = "serial output diverges from the original";
        return out;
      }
    }
  } catch (const Error& e) {
    out.gate = RejectGate::Dynamic;
    out.reason = std::string("dynamic verification failed: ") + e.what();
    return out;
  }

  // Gate 4: the fix must also survive randomized PCT schedule
  // exploration. Gate 2 replays a fixed handful of uniform seeds; PCT's
  // priority schedules reach order-dependent interleavings (e.g. races
  // hidden behind a lock-acquisition window) those replays never hit.
  if (opts.explore_schedules > 0) {
    try {
      explore::ExploreOptions eopts;
      eopts.run = opts.dynamic_opts.run;
      eopts.strategy = explore::Strategy::Pct;
      eopts.pct_depth = opts.explore_pct_depth;
      eopts.max_schedules = opts.explore_schedules;
      eopts.minimize = false;
      const explore::ExploreResult er = explore::explore_source(*fe, eopts);
      if (er.race_detected) {
        out.gate = RejectGate::Explore;
        out.reason = "PCT exploration still finds a race (schedule " +
                     std::to_string(er.first_race_schedule + 1) + " of " +
                     std::to_string(opts.explore_schedules) + ")";
        return out;
      }
    } catch (const Error& e) {
      out.gate = RejectGate::Explore;
      out.reason = std::string("schedule exploration failed: ") + e.what();
      return out;
    }
  }

  out.accepted = true;
  out.equivalence_checked = have_ref;
  return out;
}

obs::Counter& reject_counter(RejectGate gate) {
  static obs::Counter& stat = obs::metrics().counter(obs::kRepairRejectedStatic);
  static obs::Counter& fault = obs::metrics().counter(obs::kRepairRejectedFault);
  static obs::Counter& dyn = obs::metrics().counter(obs::kRepairRejectedDynamic);
  static obs::Counter& nondet =
      obs::metrics().counter(obs::kRepairRejectedNondet);
  static obs::Counter& output =
      obs::metrics().counter(obs::kRepairRejectedOutput);
  static obs::Counter& explored =
      obs::metrics().counter(obs::kRepairRejectedExplore);
  switch (gate) {
    case RejectGate::Fault: return fault;
    case RejectGate::Dynamic: return dyn;
    case RejectGate::Nondet: return nondet;
    case RejectGate::Output: return output;
    case RejectGate::Explore: return explored;
    case RejectGate::Static:
    case RejectGate::None: break;
  }
  return stat;
}

/// verify_candidate_impl plus the repair.verify span and the accept /
/// reject counters.
VerifyOutcome verify_counted(SerialReference& reference,
                             const std::string& patched,
                             const RepairOptions& opts) {
  static obs::Counter& accepted = obs::metrics().counter(obs::kRepairAccepted);
  VerifyOutcome out;
  {
    obs::Span span(obs::kSpanRepairVerify);
    out = verify_candidate_impl(reference, patched, opts);
  }
  if (out.accepted) {
    accepted.add();
  } else {
    reject_counter(out.gate).add();
  }
  return out;
}

}  // namespace

VerifyOutcome verify_candidate(const std::string& original,
                               const std::string& patched,
                               const RepairOptions& opts) {
  std::optional<analysis::FrontEnd> original_fe;
  try {
    original_fe.emplace(original);
  } catch (const Error&) {
    // An unparseable original has no serial reference; gate 3 is skipped.
  }
  SerialReference reference(original_fe ? &*original_fe : nullptr, opts);
  return verify_counted(reference, patched, opts);
}

RepairResult repair_source(const std::string& source,
                           const RepairOptions& opts,
                           const DetectionReports& known) {
  static obs::Counter& candidates_tried =
      obs::metrics().counter(obs::kRepairCandidates);
  static obs::Counter& no_candidate =
      obs::metrics().counter(obs::kRepairNoCandidate);
  static obs::Counter& rejected_error =
      obs::metrics().counter(obs::kRepairRejectedError);
  obs::Span entry_span(obs::kSpanRepairEntry);
  RepairResult r;

  // The original is parsed, resolved and collected once for detection,
  // linting and candidate generation, and compiled at most once (for the
  // dynamic detector or the serial reference).
  std::optional<analysis::FrontEnd> fe;
  try {
    fe.emplace(source);
  } catch (const Error& e) {
    r.status = RepairStatus::Error;
    r.message = std::string("error: parse failed: ") + e.what();
    return r;
  }

  // Detection: does this program need repair at all?
  analysis::RaceReport computed_static;
  const analysis::RaceReport* static_report = known.static_report;
  if (static_report == nullptr) {
    computed_static =
        analysis::StaticRaceDetector(opts.static_opts).analyze(*fe);
    static_report = &computed_static;
  }
  bool dynamic_race = false;
  if (known.dynamic_report != nullptr) {
    dynamic_race = known.dynamic_report->race_detected;
  } else {
    try {
      const runtime::DynamicRaceDetector ddet(opts.dynamic_opts);
      dynamic_race = ddet.analyze(*fe).race_detected;
    } catch (const Error&) {
      // Non-executable programs (no main, faults) fall back to static-only.
    }
  }
  if (!static_report->race_detected && !dynamic_race) {
    r.status = RepairStatus::NoRaceDetected;
    r.patched = source;
    return r;
  }

  // Linter fix-its seed the cheapest candidates. The linter judges races
  // with the same static detector; under the same options it adopts the
  // report above instead of judging again.
  lint::LintReport computed_lint;
  const lint::LintReport* lint_report = known.lint_report;
  if (lint_report == nullptr) {
    const lint::Linter linter;
    const bool same_static = linter.options().detector == opts.static_opts;
    computed_lint = linter.lint(*fe, same_static ? static_report : nullptr);
    lint_report = &computed_lint;
  }

  const std::vector<Patch> candidates = generate_candidates(
      *fe, *static_report, lint_report, opts.strategy);
  r.candidates_generated = static_cast<int>(candidates.size());
  if (candidates.empty()) {
    no_candidate.add();
    r.status = RepairStatus::NoCandidate;
    r.message = "no-candidate: no strategy applies to this race shape "
                "(strategy " +
                std::string(strategy_name(opts.strategy)) + ")";
    return r;
  }

  SerialReference reference(&*fe, opts);
  std::string last_reason;
  for (const Patch& patch : candidates) {
    if (r.attempts >= opts.max_candidates) break;
    ++r.attempts;
    candidates_tried.add();
    const ApplyResult applied = apply_patch(source, patch);
    if (!applied.ok) {
      rejected_error.add();
      last_reason = patch.id + ": " + applied.message;
      continue;
    }
    const std::string patched =
        remap_annotations(applied.patched, applied.line_map);
    const VerifyOutcome verdict = verify_counted(reference, patched, opts);
    if (!verdict.accepted) {
      last_reason = patch.id + ": " + verdict.reason;
      continue;
    }
    r.status = RepairStatus::Fixed;
    r.patched = patched;
    r.patch_id = patch.id;
    r.description = patch.description;
    r.family = patch.family;
    r.equivalence_checked = verdict.equivalence_checked;
    r.line_map = applied.line_map;
    return r;
  }

  r.status = RepairStatus::Rejected;
  r.message = "rejected: all " + std::to_string(r.attempts) +
              " candidate(s) failed verification (last: " + last_reason + ")";
  return r;
}

std::string remap_annotations(const std::string& patched,
                              const LineMap& line_map) {
  if (line_map.original_events.empty() && line_map.dropped_original.empty()) {
    return patched;
  }
  std::vector<std::string> lines = split_lines(patched);
  bool changed = false;
  for (auto& line : lines) {
    dataset::RawAnnotation ann;
    if (!dataset::parse_annotation(line, ann)) continue;
    const std::size_t start = line.find("Data race pair:");
    auto remap = [&](int l) {
      const int out = line_map.to_patched_original(l);
      return out > 0 ? out : l;
    };
    auto side = [&](const std::string& expr, int l, int c, char op) {
      return expr + "@" + std::to_string(remap(l)) + ":" + std::to_string(c) +
             ":" +
             std::string(1, static_cast<char>(std::toupper(
                                static_cast<unsigned char>(op))));
    };
    line = line.substr(0, start) + "Data race pair: " +
           side(ann.var1_expr, ann.var1_line, ann.var1_col, ann.var1_op) +
           " vs. " +
           side(ann.var0_expr, ann.var0_line, ann.var0_col, ann.var0_op);
    changed = true;
  }
  if (!changed) return patched;
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  if (!patched.empty() && patched.back() != '\n' && !out.empty()) {
    out.pop_back();
  }
  return out;
}

std::string unified_diff(const std::string& before, const std::string& after) {
  const std::vector<std::string> a = split_lines(before);
  const std::vector<std::string> b = split_lines(after);
  const std::size_t n = a.size();
  const std::size_t m = b.size();

  // Longest common subsequence over lines (sources are small).
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j]
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }

  std::string out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < n || j < m) {
    if (i < n && j < m && a[i] == b[j]) {
      out += " " + a[i] + "\n";
      ++i;
      ++j;
    } else if (j < m && (i == n || lcs[i][j + 1] >= lcs[i + 1][j])) {
      out += "+" + b[j] + "\n";
      ++j;
    } else {
      out += "-" + a[i] + "\n";
      ++i;
    }
  }
  return out;
}

}  // namespace drbml::repair
