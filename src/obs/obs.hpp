// Observability layer: tracing spans and a metrics registry.
//
// Design contract (docs/OBSERVABILITY.md is the user-facing reference):
//
//   * Zero overhead when disabled. A Span whose tracer and metrics sinks
//     are both off reads two relaxed atomics and touches no clock, no
//     lock, and no heap (tests/obs_test.cpp proves the hot path is
//     allocation-free). Counters/gauges/histograms are pre-allocated
//     lock-free atomics -- an increment is a relaxed fetch_add, cheap
//     enough to stay on unconditionally.
//
//   * Deterministic metrics. Every metric is declared in the static
//     catalog (obs/catalog.hpp) and pre-registered, so a snapshot always
//     contains the full catalog in name order. Metrics marked `stable`
//     count *work* (cache probes, computed artifacts, diagnostics,
//     scheduler steps), never wall-clock or thread identity, so the
//     text/JSON snapshots are byte-identical across `--jobs` values.
//     Timers are always unstable and excluded from default snapshots.
//
//   * Chrome trace output. Spans emit complete ("ph":"X") trace_event
//     records with per-thread ids; Tracer::to_json() renders a file
//     loadable in chrome://tracing or https://ui.perfetto.dev.
//
// Enabling: DRBML_TRACE=<file> / DRBML_METRICS=<file> environment
// variables (checked once, written at process exit) or the --trace /
// --metrics flags every `drbml` subcommand and bench binary accepts.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace drbml::obs {

// ------------------------------------------------------------ descriptors

enum class MetricKind { Counter, Gauge, Histogram, Timer };

[[nodiscard]] const char* metric_kind_name(MetricKind k) noexcept;

/// Self-description of one metric. Instances live in the static catalog
/// (obs/catalog.cpp); call sites and the doc generator share them, so the
/// documented catalog cannot drift from the code.
struct MetricDesc {
  const char* name;  // dotted, e.g. "cache.static.probe"
  MetricKind kind;
  const char* unit;  // "count", "ns", "items", ...
  /// True when the value is a pure function of the work performed --
  /// byte-identical across job counts. Timers and anything derived from
  /// clocks or thread identity must be false.
  bool stable;
  const char* help;
};

/// Self-description of one span name (trace_event `name`/`cat`).
struct SpanDesc {
  const char* name;      // dotted, e.g. "artifact.dynamic"
  const char* category;  // trace_event category, e.g. "artifact"
  const char* help;
};

// --------------------------------------------------------------- metrics

/// Monotonic event count. Lock-free; increments are always on.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-set signed value (resident entries, configured limits).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Power-of-two-bucket histogram: bucket i counts values whose upper
/// bound is 2^i - 1 (bucket 0 holds the value 0); the last bucket is the
/// overflow sink. Deterministic: bucket boundaries are fixed and the
/// observations counted are work quantities, not times.
class Histogram {
 public:
  static constexpr int kBuckets = 18;  // 0, 1, 3, 7, ..., 65535, +inf

  void observe(std::uint64_t v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (UINT64_MAX for the sink).
  [[nodiscard]] static std::uint64_t bucket_bound(int i) noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Accumulated wall/cpu durations (always `stable == false`). Fed by
/// Span when metrics are enabled.
class Timer {
 public:
  void record(std::uint64_t wall_ns, std::uint64_t cpu_ns) noexcept {
    wall_ns_.fetch_add(wall_ns, std::memory_order_relaxed);
    cpu_ns_.fetch_add(cpu_ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wall_ns() const noexcept {
    return wall_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cpu_ns() const noexcept {
    return cpu_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    wall_ns_.store(0, std::memory_order_relaxed);
    cpu_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> wall_ns_{0};
  std::atomic<std::uint64_t> cpu_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Process-wide metric store. Every catalog metric is pre-registered at
/// construction, so lookups by descriptor never allocate and snapshots
/// always cover the full catalog in name order.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Snapshot sink configured? (DRBML_METRICS or --metrics). Counting is
  /// always on; this only governs whether Span feeds timers and whether
  /// a file is written at exit.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Enables metrics and writes a deterministic JSON snapshot to `path`
  /// at process exit (empty path: enabled, no file).
  void enable_to_file(std::string path);

  [[nodiscard]] Counter& counter(const MetricDesc& d);
  [[nodiscard]] Gauge& gauge(const MetricDesc& d);
  [[nodiscard]] Histogram& histogram(const MetricDesc& d);
  [[nodiscard]] Timer& timer(const MetricDesc& d);

  /// Zeroes every metric value (registrations persist).
  void reset();

  /// Deterministic text snapshot, one `name value...` line per metric in
  /// name order. `include_unstable` adds timers and other unstable
  /// metrics -- never do that in an artifact that must be byte-stable.
  [[nodiscard]] std::string to_text(bool include_unstable = false) const;

  /// Same content as JSON (compact member per metric, name order).
  [[nodiscard]] std::string to_json(bool include_unstable = false) const;

  /// Writes to_json(include_unstable) to `path`; false on I/O failure.
  bool write(const std::string& path, bool include_unstable = false) const;

  /// Registered descriptors in name order (the full catalog).
  [[nodiscard]] std::vector<const MetricDesc*> descriptors() const;

 private:
  MetricsRegistry();
  struct Impl;
  Impl* impl_;  // leaked singleton state: usable during static destruction
  std::atomic<bool> enabled_{false};
};

[[nodiscard]] inline MetricsRegistry& metrics() {
  return MetricsRegistry::instance();
}

// --------------------------------------------------------------- tracing

/// One completed trace event (Chrome trace_event "ph":"X").
struct TraceEvent {
  const char* name;      // from a SpanDesc (static storage)
  const char* category;  // from a SpanDesc (static storage)
  std::string detail;    // optional args.detail payload
  std::uint64_t start_ns = 0;  // since tracer epoch
  std::uint64_t dur_ns = 0;
  int tid = 0;
};

/// Process-wide trace sink. Collection is mutex-protected -- tracing is
/// an observability mode, not a hot path; when disabled, spans never
/// reach the tracer at all.
class Tracer {
 public:
  static Tracer& instance();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Starts collecting; writes Chrome trace JSON to `path` at process
  /// exit (empty path: collect in memory only, for tests).
  void enable_to_file(std::string path);
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void record(TraceEvent e);

  /// Copy of everything recorded so far, sorted by (start, tid).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}) of the events so
  /// far. Loads in chrome://tracing and Perfetto.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  bool write(const std::string& path) const;

  void clear();

 private:
  Tracer();
  struct Impl;
  Impl* impl_;  // leaked: see MetricsRegistry
  std::atomic<bool> enabled_{false};
};

[[nodiscard]] inline Tracer& tracer() { return Tracer::instance(); }

[[nodiscard]] inline bool tracing_enabled() noexcept {
  return Tracer::instance().enabled();
}

/// Small dense id of the calling thread (0 for the first thread that
/// asks; pool workers get successive ids). Used as the trace tid.
[[nodiscard]] int thread_id() noexcept;

/// Monotonic wall clock (ns). Only called on enabled paths.
[[nodiscard]] std::uint64_t now_wall_ns() noexcept;
/// Process CPU clock (ns; sums all threads).
[[nodiscard]] std::uint64_t now_cpu_ns() noexcept;

/// RAII scope: on destruction, emits a trace event (tracing enabled) and
/// feeds `timer` (metrics enabled). With both sinks off, construction
/// and destruction are two relaxed loads -- no clock, no allocation.
///
/// `detail` is captured as a string_view: the caller must keep the
/// referenced string alive for the span's lifetime (entry names and
/// other long-lived strings qualify). A temporary std::string would
/// dangle, so that overload is deleted: name the string before the span.
class Span {
 public:
  explicit Span(const SpanDesc& desc, std::string_view detail = {},
                Timer* timer = nullptr) noexcept
      : desc_(&desc), detail_(detail), timer_(timer) {
    const bool trace = tracing_enabled();
    const bool time = timer_ != nullptr && metrics().enabled();
    active_ = trace || time;
    trace_ = trace;
    if (active_) {
      wall0_ = now_wall_ns();
      if (time) cpu0_ = now_cpu_ns();
      cpu_wanted_ = time;
    }
  }
  Span(const SpanDesc& desc, Timer* timer) noexcept : Span(desc, {}, timer) {}
  template <typename S>
    requires std::same_as<S, std::string>
  Span(const SpanDesc& desc, S&& detail, Timer* timer = nullptr) = delete;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const SpanDesc* desc_;
  std::string_view detail_;
  Timer* timer_;
  std::uint64_t wall0_ = 0;
  std::uint64_t cpu0_ = 0;
  bool active_ = false;
  bool trace_ = false;
  bool cpu_wanted_ = false;
};

// ----------------------------------------------------------- entry points

/// --trace FILE: enable tracing, write at exit.
void enable_tracing(std::string path);
/// --metrics FILE: enable metrics timers, write deterministic JSON at exit.
void enable_metrics(std::string path);

/// Scans argv for `--trace FILE` / `--metrics FILE`, enables the sinks,
/// and removes the flags from args (shared by the CLI and every bench
/// main). Unknown arguments are left untouched.
void consume_obs_flags(std::vector<std::string>& args);

/// Writes any configured --metrics/--trace output files immediately
/// (same writers the atexit hooks run). Long-lived processes call this
/// on graceful shutdown so observability output survives even if the
/// process is later killed un-gracefully; writes are atomic
/// (temp + rename), so a re-entrant exit can never truncate them.
void flush_obs_outputs();

}  // namespace drbml::obs
