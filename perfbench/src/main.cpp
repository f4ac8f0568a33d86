// perfbench: runs one benchmark workload in-process and prints its result
// as one JSON line. Normally started by run.py, which builds this program,
// clears DRBML_* from its environment and passes --spawn-ns; see README.md.
//
//   perfbench --workload corpus_pipeline|schedule_sweep|serve_stream
//             --seed N --seconds S --trace 0|1 --inputs DIR --spec FILE
//             --trace-out FILE --spawn-ns NS [--setup-only 1]
//
// --spec names BENCHMARK.json, the one list of per-layer metrics. With
// --setup-only 1 the harness stops after set-up and reports setup_s only.
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0) {
    throw std::invalid_argument(flag + " expects a non-negative integer");
  }
  return x;
}

std::string result_json(const perfbench::Result& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::logic_error("metric " + m.name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    perfbench::Options opts;
    std::string inputs;
    std::string spec;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = parse_u64(flag, value);
      } else if (flag == "--seconds") {
        opts.seconds = static_cast<double>(parse_u64(flag, value));
      } else if (flag == "--trace") {
        opts.trace = parse_u64(flag, value) != 0;
      } else if (flag == "--trace-out") {
        opts.trace_out = value;
      } else if (flag == "--spawn-ns") {
        opts.spawn_ns = static_cast<std::int64_t>(parse_u64(flag, value));
      } else if (flag == "--inputs") {
        inputs = value;
      } else if (flag == "--spec") {
        spec = value;
      } else if (flag == "--setup-only") {
        opts.setup_only = parse_u64(flag, value) != 0;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (argc % 2 != 1 || inputs.empty() || spec.empty() ||
        opts.spawn_ns == 0 || (opts.trace && opts.trace_out.empty())) {
      throw std::invalid_argument(
          "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
          "--inputs DIR --spec FILE --trace-out FILE --spawn-ns NS "
          "[--setup-only 1]");
    }
    opts.layer_metrics = perfbench::load_layer_metrics(spec);

    const perfbench::Inputs in = perfbench::load_inputs(inputs);
    perfbench::Result result;
    if (opts.workload == "corpus_pipeline") {
      result = perfbench::run_corpus_pipeline(in, opts);
    } else if (opts.workload == "schedule_sweep") {
      result = perfbench::run_schedule_sweep(in, opts);
    } else if (opts.workload == "serve_stream") {
      result = perfbench::run_serve_stream(in, opts);
    } else {
      throw std::invalid_argument("unknown workload '" + opts.workload + "'");
    }
    std::printf("%s\n", result_json(result).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
