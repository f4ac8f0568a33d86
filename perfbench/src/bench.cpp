#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "analysis/race.hpp"
#include "analysis/resolve.hpp"
#include "core/detector.hpp"
#include "explore/explore.hpp"
#include "explore/witness.hpp"
#include "lint/lint.hpp"
#include "minic/parser.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "runtime/interp.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::filesystem::path> files_in(const std::filesystem::path& dir,
                                            const std::string& ext) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("missing input directory " + dir.string());
  }
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ext) {
      out.push_back(e.path());
    }
  }
  std::sort(out.begin(), out.end());
  if (out.empty()) throw std::runtime_error("no inputs in " + dir.string());
  return out;
}

bool label_from_name(const std::string& name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("-yes.c")) return true;
  if (ends_with("-no.c")) return false;
  throw std::runtime_error("no -yes/-no suffix in input name " + name);
}

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

Inputs load_inputs(const std::filesystem::path& dir) {
  Inputs in;
  for (const auto& p : files_in(dir / "drbml", ".json")) {
    std::string text = read_file(p);
    const drbml::json::Value v = drbml::json::parse(text);
    Source s;
    s.name = v.as_object().at("name").as_string();
    s.code = v.as_object().at("DRB_code").as_string();
    s.racy = label_from_name(s.name);
    in.corpus.push_back(std::move(s));
    in.drbml_records.push_back(std::move(text));
  }
  for (const auto& p : files_in(dir / "synth", ".c")) {
    Source s;
    s.name = p.filename().string();
    s.code = read_file(p);
    s.racy = label_from_name(s.name);
    in.synth.push_back(std::move(s));
  }
  return in;
}

std::vector<Metric> load_layer_metrics(const std::filesystem::path& spec) {
  const drbml::json::Value v = drbml::json::parse(read_file(spec));
  std::vector<Metric> out;
  for (const drbml::json::Value& m : v.as_object().at("per_layer").as_array()) {
    out.push_back({m.as_object().at("name").as_string(), 0.0,
                   m.as_object().at("unit").as_string()});
  }
  return out;
}

// ------------------------------------------------------------------ random

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Fingerprint& Fingerprint::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xff;  // separator, so ("ab","c") != ("a","bc")
  h_ *= 1099511628211ULL;
  return *this;
}

Fingerprint& Fingerprint::add(std::uint64_t v) {
  return add(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)));
}

Fingerprint& Fingerprint::add(const drbml::analysis::RaceReport& r) {
  add(r.race_detected ? 1 : 0);
  for (const auto& p : r.pairs) {
    for (const auto* a : {&p.first, &p.second}) {
      add(a->expr_text);
      add(static_cast<std::uint64_t>(a->loc.line) << 32 |
          static_cast<std::uint32_t>(a->loc.col));
      add(static_cast<std::uint64_t>(a->op));
    }
  }
  return *this;
}

// ------------------------------------------------------------------ tracing

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::begin(const char* name, std::string detail) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, std::move(detail), monotonic_ns(), 0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = monotonic_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::clear() {
  spans_.clear();
  stack_.clear();
}

double Tracer::total_ms(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

std::vector<Tracer::Span> Tracer::take() {
  std::vector<Span> out = std::move(spans_);
  clear();
  return out;
}

void Tracer::append(std::vector<Span> spans) {
  const int offset = static_cast<int>(spans_.size());
  for (Span& s : spans) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

bool Tracer::write_chrome(const std::string& path) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (i > 0) out += ',';
    out += "{\"name\":\"" + drbml::json::escape(s.name) +
           "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           fmt_number(static_cast<double>(s.start_ns - origin) / 1e3) +
           ",\"dur\":" + fmt_number(static_cast<double>(dur) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"self_us\":" +
           fmt_number(static_cast<double>(dur - child_ns[i]) / 1e3) +
           ",\"detail\":\"" + drbml::json::escape(s.detail) + "\"}}";
  }
  out += "]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  return static_cast<bool>(f.flush());
}

// ------------------------------------------------------------------ results

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

namespace {

/// Each call's best time so far across repetitions.
class BestCalls {
 public:
  /// Folds one repetition in; false when its calls do not line up with
  /// the earlier repetitions'.
  bool add(const std::vector<std::vector<double>>& op_calls_ms) {
    if (best_.empty()) {
      best_ = op_calls_ms;
      return true;
    }
    if (op_calls_ms.size() != best_.size()) return false;
    for (std::size_t i = 0; i < best_.size(); ++i) {
      if (op_calls_ms[i].size() != best_[i].size()) return false;
      for (std::size_t j = 0; j < best_[i].size(); ++j) {
        best_[i][j] = std::min(best_[i][j], op_calls_ms[i][j]);
      }
    }
    return true;
  }
  /// Per operation, the sum of its calls' best times (ms).
  [[nodiscard]] std::vector<double> op_ms() const {
    std::vector<double> out;
    for (const std::vector<double>& calls : best_) {
      out.push_back(std::accumulate(calls.begin(), calls.end(), 0.0));
    }
    return out;
  }
  /// One pass's calls at their best (s).
  [[nodiscard]] double pass_s() const {
    const std::vector<double> ops = op_ms();
    return std::accumulate(ops.begin(), ops.end(), 0.0) / 1e3;
  }

 private:
  std::vector<std::vector<double>> best_;
};

}  // namespace

Result measure(const Options& opts, const RepFn& rep, const ProbeFn& probe) {
  const double setup_s =
      static_cast<double>(monotonic_ns() - opts.spawn_ns) / 1e9;

  Result out;
  if (opts.setup_only) {
    out.metrics = {{"setup_s", setup_s, "s"}};
    return out;
  }
  Tracer& tr = tracer();
  std::vector<std::uint64_t> first_print;
  std::vector<std::string> first_failure;
  std::uint64_t first_failed = 0;
  BestCalls untraced;
  BestCalls traced;
  double fastest_traced_s = std::numeric_limits<double>::infinity();
  std::map<std::string, double> layers;
  std::vector<Tracer::Span> spans;
  double measured = 0.0;
  int untraced_reps = 0;
  int traced_reps = 0;

  for (int i = 0;; ++i) {
    const bool is_traced = opts.trace && i % 2 == 1;
    tr.clear();
    tr.set_enabled(is_traced);
    Rep r = rep(is_traced, i == 0);
    tr.set_enabled(false);
    measured += r.wall_s;

    if (i == 0) {
      first_print = r.op_print;
      first_failure = r.op_failure;
      first_failure.resize(first_print.size());
      for (std::size_t k = 0; k < first_failure.size(); ++k) {
        if (first_failure[k].empty()) continue;
        if (++first_failed <= 10) {
          std::fprintf(stderr, "perfbench: check failed on operation %zu: %s\n",
                       k, first_failure[k].c_str());
        }
      }
    }
    const std::size_t ops = first_print.size();
    std::uint64_t failed = first_failed;
    const bool lined_up = r.op_print.size() == ops &&
                          (is_traced ? traced : untraced).add(r.op_calls_ms);
    if (!lined_up) {
      out.correct = false;
      failed = ops;
    } else if (i > 0) {
      for (std::size_t k = 0; k < ops; ++k) {
        if (first_failure[k].empty() && r.op_print[k] != first_print[k]) {
          if (++failed - first_failed <= 10) {
            std::fprintf(stderr,
                         "perfbench: repetition %d differs from the first on "
                         "operation %zu\n",
                         i, k);
          }
        }
      }
    }
    out.attempted += ops;
    out.failed += failed;

    if (is_traced) {
      ++traced_reps;
      if (r.wall_s < fastest_traced_s) {
        fastest_traced_s = r.wall_s;
        layers = std::move(r.layers);
        spans = tr.take();
      }
    } else {
      ++untraced_reps;
    }
    if (measured >= opts.seconds && untraced_reps > 0 &&
        (!opts.trace || traced_reps > 0)) {
      break;
    }
  }
  std::fprintf(stderr, "perfbench: %s: %d untraced + %d traced repetitions\n",
               opts.workload.c_str(), untraced_reps, traced_reps);

  if (!opts.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const std::vector<double> op_ms = untraced.op_ms();
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"pass_s", untraced.pass_s(), "s"},
        {"op_p50_ms", percentile(op_ms, 50.0), "ms"},
        {"op_p99_ms", percentile(op_ms, 99.0), "ms"},
    };
    return out;
  }

  tr.clear();
  tr.set_enabled(true);
  std::map<std::string, double> probed = probe();
  tr.set_enabled(false);
  std::vector<Tracer::Span> probe_spans = tr.take();
  layers.merge(probed);
  layers["trace.overhead_pct"] =
      (traced.pass_s() / untraced.pass_s() - 1.0) * 100.0;

  for (Metric m : opts.layer_metrics) {
    const auto it = layers.find(m.name);
    if (it != layers.end()) {
      m.value = it->second;
      layers.erase(it);
    }
    out.metrics.push_back(std::move(m));
  }
  if (!layers.empty()) {
    throw std::logic_error("unlisted per-layer metric " +
                           layers.begin()->first);
  }
  tr.append(std::move(spans));
  tr.append(std::move(probe_spans));
  if (!tr.write_chrome(opts.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opts.trace_out.c_str());
    out.correct = false;
  }
  tr.clear();
  return out;
}

// ------------------------------------------------------------------ probes

std::uint64_t cache_counter_sum(bool computes) {
  namespace obs = drbml::obs;
  static const obs::CacheKindMetrics kKinds[] = {
      {obs::kCacheTokensProbe, obs::kCacheTokensCompute},
      {obs::kCacheAstProbe, obs::kCacheAstCompute},
      {obs::kCacheDepgraphProbe, obs::kCacheDepgraphCompute},
      {obs::kCacheStaticProbe, obs::kCacheStaticCompute},
      {obs::kCacheDynamicProbe, obs::kCacheDynamicCompute},
      {obs::kCacheLintProbe, obs::kCacheLintCompute},
      {obs::kCacheRepairProbe, obs::kCacheRepairCompute},
      {obs::kCacheLintTextProbe, obs::kCacheLintTextCompute},
      {obs::kCacheEvidenceTextProbe, obs::kCacheEvidenceTextCompute},
      {obs::kCacheExploreProbe, obs::kCacheExploreCompute},
  };
  std::uint64_t sum = 0;
  for (const auto& k : kKinds) {
    sum += obs::metrics().counter(computes ? k.compute : k.probe).value();
  }
  return sum;
}

std::map<std::string, double> repair_counters() {
  namespace obs = drbml::obs;
  const auto value = [](const obs::MetricDesc& d) {
    return static_cast<double>(obs::metrics().counter(d).value());
  };
  return {
      {"repair.candidates", value(obs::kRepairCandidates)},
      {"repair.accepted", value(obs::kRepairAccepted)},
      {"repair.rejected.static", value(obs::kRepairRejectedStatic)},
      {"repair.rejected.fault", value(obs::kRepairRejectedFault)},
      {"repair.rejected.dynamic", value(obs::kRepairRejectedDynamic)},
      {"repair.rejected.nondet", value(obs::kRepairRejectedNondet)},
      {"repair.rejected.output", value(obs::kRepairRejectedOutput)},
      {"repair.rejected.explore", value(obs::kRepairRejectedExplore)},
      {"repair.rejected.error", value(obs::kRepairRejectedError)},
  };
}

std::map<std::string, double> repair_layers(
    const std::map<std::string, double>& base) {
  std::map<std::string, double> out = repair_counters();
  for (auto& [name, value] : out) value -= base.at(name);
  const double tried = out["repair.candidates"];
  out["repair.accept_ratio"] = tried > 0 ? out["repair.accepted"] / tried : 0.0;
  return out;
}

std::map<std::string, double> explore_layers(
    const std::vector<ExploreCall>& calls) {
  std::uint64_t schedules = 0;
  std::uint64_t steps = 0;
  std::uint64_t replays = 0;
  double racefree_ms = 0.0;
  double racy_ms = 0.0;
  std::vector<double> per_run_us;
  for (const ExploreCall& c : calls) {
    const drbml::explore::ExploreResult& e = *c.result;
    schedules += static_cast<std::uint64_t>(e.schedules_run);
    replays += static_cast<std::uint64_t>(e.minimize_replays);
    for (const drbml::explore::ScheduleStats& s : e.schedules) steps += s.steps;
    (e.race_detected ? racy_ms : racefree_ms) += c.ms;
    per_run_us.push_back(c.ms * 1e3 / (e.schedules_run + e.minimize_replays));
  }
  const double total_s = (racefree_ms + racy_ms) / 1e3;
  return {
      {"runtime.schedules", static_cast<double>(schedules)},
      {"runtime.steps", static_cast<double>(steps)},
      {"runtime.steps_per_s",
       total_s > 0 ? static_cast<double>(steps) / total_s : 0.0},
      {"runtime.schedule_p50_us", percentile(per_run_us, 50.0)},
      {"explore.racefree_ms", racefree_ms},
      {"explore.racy_ms", racy_ms},
      {"explore.minimize_replays", static_cast<double>(replays)},
  };
}

std::map<std::string, double> probe_front_end(
    const std::vector<const Source*>& sources) {
  namespace obs = drbml::obs;
  const auto discharged = [] {
    std::uint64_t n = 0;
    for (const obs::MetricDesc* d :
         {&obs::kAnalysisDischargedSerial, &obs::kAnalysisDischargedPhase,
          &obs::kAnalysisDischargedMhp, &obs::kAnalysisDischargedLockset,
          &obs::kAnalysisDischargedDepend}) {
      n += obs::metrics().counter(*d).value();
    }
    return n;
  };
  obs::Counter& candidates = obs::metrics().counter(obs::kAnalysisCandidatePairs);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  double parse_ms = kInf;
  double resolve_ms = kInf;
  double static_ms = kInf;
  double lint_ms = kInf;
  std::uint64_t pairs = 0;
  std::uint64_t proved = 0;
  std::uint64_t diagnostics = 0;
  // Best of three passes: one pass is a few tens of ms, short enough for a
  // host slow phase to cover it whole.
  for (int pass = 0; pass < 3; ++pass) {
    Scope pass_span("probe.front_end");
    double t_parse = 0, t_resolve = 0, t_static = 0, t_lint = 0;
    const std::uint64_t pairs0 = candidates.value();
    const std::uint64_t proved0 = discharged();
    std::uint64_t diags = 0;
    for (const Source* s : sources) {
      try {
        Clock::time_point t0 = Clock::now();
        drbml::minic::Program prog;
        {
          Scope span("minic.parse", s->name);
          prog = drbml::minic::parse_program(s->code);
        }
        const Clock::time_point t1 = Clock::now();
        {
          Scope span("analysis.resolve", s->name);
          (void)drbml::analysis::resolve(*prog.unit);
        }
        const Clock::time_point t2 = Clock::now();
        {
          Scope span("analysis.static", s->name);
          (void)drbml::analysis::StaticRaceDetector().analyze_unit(*prog.unit);
        }
        const Clock::time_point t3 = Clock::now();
        {
          Scope span("lint.run", s->name);
          diags += drbml::lint::Linter().lint_source(s->code).diagnostics.size();
        }
        const Clock::time_point t4 = Clock::now();
        t_parse += seconds_between(t0, t1);
        t_resolve += seconds_between(t1, t2);
        t_static += seconds_between(t2, t3);
        t_lint += seconds_between(t3, t4);
      } catch (const drbml::Error&) {
        // Unparseable programs have no front-end layers to time.
      }
    }
    parse_ms = std::min(parse_ms, t_parse * 1e3);
    resolve_ms = std::min(resolve_ms, t_resolve * 1e3);
    static_ms = std::min(static_ms, t_static * 1e3);
    lint_ms = std::min(lint_ms, t_lint * 1e3);
    pairs = candidates.value() - pairs0;
    proved = discharged() - proved0;
    diagnostics = diags;
  }
  return {
      {"minic.parse_ms", parse_ms},
      {"analysis.resolve_ms", resolve_ms},
      {"analysis.static_ms", static_ms},
      {"analysis.candidate_pairs", static_cast<double>(pairs)},
      {"analysis.discharged", static_cast<double>(proved)},
      {"lint.ms", lint_ms},
      {"lint.diagnostics", static_cast<double>(diagnostics)},
  };
}

// ------------------------------------------------------------------ checks

std::string check_pairs(const drbml::analysis::RaceReport& r) {
  for (const auto& p : r.pairs) {
    if (p.first.op != 'w' && p.second.op != 'w') {
      return "reported pair " + p.first.expr_text + " vs. " +
             p.second.expr_text + " has no write";
    }
  }
  return "";
}

std::string check_witness(const std::string& code, const std::string& witness) {
  try {
    const drbml::explore::Witness w = drbml::explore::decode_witness(witness);
    if (!drbml::explore::replay_witness(code, w).report.race_detected) {
      return "witness does not replay to a race";
    }
  } catch (const std::exception& e) {
    return std::string("witness replay failed: ") + e.what();
  }
  return "";
}

std::string check_fix(const std::string& original, const std::string& patched) {
  // Seeds the repair gates do not use (gate 4 explores from the default
  // seed 0x5eed; gate 2 replays uniform seeds 1-3).
  constexpr std::uint64_t kRecheckSeed = 0xc0ffee15600dULL;
  constexpr int kRecheckSchedules = 24;
  try {
    (void)drbml::minic::parse_program(patched);
    if (drbml::core::make_detector("static")->analyze(patched).race) {
      return "fix: static detector still reports a race";
    }
    for (const auto strategy :
         {drbml::explore::Strategy::Pct, drbml::explore::Strategy::Uniform}) {
      drbml::explore::ExploreOptions eo;
      eo.strategy = strategy;
      eo.seed = kRecheckSeed;
      eo.max_schedules = kRecheckSchedules;
      eo.plateau_window = 0;
      eo.minimize = false;
      if (drbml::explore::explore_source(patched, eo).race_detected) {
        return std::string("fix: ") + drbml::explore::strategy_name(strategy) +
               " exploration finds a race";
      }
    }
    const auto one_thread = [](const std::string& code) {
      drbml::minic::Program prog = drbml::minic::parse_program(code);
      const drbml::analysis::Resolution res =
          drbml::analysis::resolve(*prog.unit);
      drbml::runtime::RunOptions ro;
      ro.num_threads = 1;
      return drbml::runtime::run_program(*prog.unit, res, ro);
    };
    const drbml::runtime::RunResult before = one_thread(original);
    const drbml::runtime::RunResult after = one_thread(patched);
    // A program that faults on one thread has no output to preserve.
    if (!before.faulted &&
        (after.faulted || after.output != before.output ||
         after.exit_code != before.exit_code)) {
      return "fix: one-thread output differs from the original";
    }
  } catch (const std::exception& e) {
    return std::string("fix re-check failed: ") + e.what();
  }
  return "";
}

}  // namespace perfbench
