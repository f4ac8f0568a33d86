// Shared pieces of the perfbench harness: frozen inputs, the repetition
// loop that turns repetitions into end-to-end metrics, the benchmark's own
// span recorder for traced runs, and the independent correctness checks.
//
// The harness drives the program only through its public library calls
// (eval::ArtifactCache, explore::explore_source / replay_witness,
// repair results, serve::Server, minic::parse_program, analysis::resolve,
// core::make_detector). It never selects an executor or a scheduling
// substrate, so a change to either is measured, not configured away.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "explore/explore.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ inputs

/// One frozen program. `racy` comes from the `-yes`/`-no` suffix of its
/// DataRaceBench or synth file name, never from the program's own labels.
struct Source {
  std::string name;
  std::string code;
  bool racy = false;
};

struct Inputs {
  /// Raw DRB-ML record texts (`drbml dataset --out`), by file name.
  std::vector<std::string> drbml_records;
  /// The records' DRB_code fields, in the same order.
  std::vector<Source> corpus;
  /// Synthetic kernels (`drbml synth --out`), by file name.
  std::vector<Source> synth;
};

/// Reads `dir`/drbml/*.json and `dir`/synth/*.c. Throws std::runtime_error
/// when a directory is missing or a name carries no -yes/-no suffix.
[[nodiscard]] Inputs load_inputs(const std::filesystem::path& dir);

// ------------------------------------------------------------------ random

/// splitmix64: the benchmark's own generator, so input streams do not move
/// when the program's RNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a, for per-operation output fingerprints.
class Fingerprint {
 public:
  Fingerprint& add(std::string_view s);
  Fingerprint& add(std::uint64_t v);
  Fingerprint& add(const drbml::analysis::RaceReport& r);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ------------------------------------------------------------------ tracing

/// The benchmark's own spans (name, start, end, parent), recorded only in
/// traced repetitions and written as Chrome trace-event JSON. The
/// program's tracing stays off in every run.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  int begin(const char* name, std::string detail);
  void end(int index);
  void clear();

  /// Sum of the durations of every span called `name`, in ms.
  [[nodiscard]] double total_ms(std::string_view name) const;

  struct Span {
    const char* name;
    std::string detail;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index of the enclosing span, -1 for none
  };
  /// Spans recorded since the last clear(), moved out.
  [[nodiscard]] std::vector<Span> take();
  /// Adds spans taken earlier after the current ones, keeping their nesting.
  void append(std::vector<Span> spans);

  /// Writes the spans as {"traceEvents": [...]} with one complete ("X")
  /// event per span; args carry the span's id, its parent's id and its
  /// self time (duration minus the children's). Returns false on I/O error.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide tracer used by every workload.
[[nodiscard]] Tracer& tracer();

/// RAII span; a no-op unless the tracer is enabled.
class Scope {
 public:
  explicit Scope(const char* name, std::string_view detail = {})
      : index_(tracer().enabled() ? tracer().begin(name, std::string(detail))
                                  : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer().end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  /// CLOCK_MONOTONIC at process spawn (ns), for setup_s.
  std::int64_t spawn_ns = 0;
  /// Stop after set-up and report setup_s only.
  bool setup_only = false;
  /// The per-layer metrics a traced run prints, in order, with value 0.
  std::vector<Metric> layer_metrics;
};

/// The `per_layer` names and units of a BENCHMARK.json file.
[[nodiscard]] std::vector<Metric> load_layer_metrics(
    const std::filesystem::path& spec);

/// One repetition's outputs. Every repetition of a workload runs the same
/// calls in the same order, so the vectors line up across repetitions.
struct Rep {
  double wall_s = 0.0;  // the timed section only
  /// Per operation, the time of each of its calls into the program, in a
  /// fixed order (one call per operation except in corpus_pipeline, where
  /// a source passes through every stage).
  std::vector<std::vector<double>> op_calls_ms;
  std::vector<std::uint64_t> op_print;  // per-operation output fingerprint
  /// Per-operation independent-check failures (first repetition only).
  std::vector<std::string> op_failure;
  /// Per-layer metrics (traced repetitions only).
  std::map<std::string, double> layers;
};

/// Runs `rep(traced, check)` until the timed sections add up to
/// `opts.seconds` (a traced run alternates untraced and traced
/// repetitions) and folds the repetitions into a Result; with
/// `opts.setup_only` it runs none and reports setup_s alone:
///   - untraced: setup_s, peak_rss_mb, pass_s, op_p50_ms and op_p99_ms,
///     all built from each call's best time across the repetitions (see
///     README.md for why);
///   - traced: the fastest traced repetition's layers, `probe`'s layers and
///     trace.overhead_pct, as listed in `opts.layer_metrics` (a layer the
///     workload does not call reads 0).
/// An operation fails when its first-repetition check failed or its
/// fingerprint differs from the first repetition's.
using RepFn = std::function<Rep(bool traced, bool check)>;
using ProbeFn = std::function<std::map<std::string, double>()>;
[[nodiscard]] Result measure(const Options& opts, const RepFn& rep,
                             const ProbeFn& probe);

/// Percentile with linear interpolation between order statistics.
[[nodiscard]] double percentile(std::vector<double> v, double p);

// ------------------------------------------------------------------ probes

/// Times the front-end layers once per distinct source (best of a few
/// passes): minic.parse_ms, analysis.resolve_ms, analysis.static_ms,
/// analysis.candidate_pairs, analysis.discharged, lint.ms, lint.diagnostics.
[[nodiscard]] std::map<std::string, double> probe_front_end(
    const std::vector<const Source*>& sources);

/// Sum of the program's cache probe (or compute) counters over all kinds.
[[nodiscard]] std::uint64_t cache_counter_sum(bool computes);

/// A snapshot of the program's repair counters.
[[nodiscard]] std::map<std::string, double> repair_counters();
/// repair.* layers: the repair counters' growth since `base`, plus
/// repair.accept_ratio (accepted / candidates tried).
[[nodiscard]] std::map<std::string, double> repair_layers(
    const std::map<std::string, double>& base);

/// One explore_source call and its wall time.
struct ExploreCall {
  const drbml::explore::ExploreResult* result;
  double ms;
};
/// runtime.* and explore.* layers over a set of explore_source calls.
/// runtime.schedule_p50_us is the median over calls of the call's time per
/// program run (explored schedules plus minimiser replays).
[[nodiscard]] std::map<std::string, double> explore_layers(
    const std::vector<ExploreCall>& calls);

// ------------------------------------------------------------------ checks
//
// Each returns "" when the property holds, else a one-line reason.

/// Every reported pair has at least one write.
[[nodiscard]] std::string check_pairs(const drbml::analysis::RaceReport& r);
/// The witness decodes and replays to a race from a fresh parse.
[[nodiscard]] std::string check_witness(const std::string& code,
                                        const std::string& witness);
/// A verified fix re-checked outside the repair loop: the patched source
/// re-parses, the static detector and PCT/uniform exploration (with seeds
/// the verify gates do not use) find no race, and its one-thread output
/// equals the original's.
[[nodiscard]] std::string check_fix(const std::string& original,
                                    const std::string& patched);

}  // namespace perfbench
