// The benchmark's three workloads; see README.md for why each exists.
#pragma once

#include "bench.hpp"

namespace perfbench {

[[nodiscard]] Result run_corpus_pipeline(const Inputs& in, const Options& opts);
[[nodiscard]] Result run_schedule_sweep(const Inputs& in, const Options& opts);
[[nodiscard]] Result run_serve_stream(const Inputs& in, const Options& opts);

}  // namespace perfbench
