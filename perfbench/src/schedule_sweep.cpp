// schedule_sweep: PCT exploration of every frozen DRB-ML source at a fixed
// schedule budget, plateau cut off, minimisation on. Race-free sources run
// the whole budget; racy ones stop at their first racy schedule and
// minimise. One operation is one explore_source call.
#include <numeric>

#include "bench.hpp"
#include "explore/explore.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace explore = drbml::explore;

/// Schedules per source: large enough that the runtime dominates parse and
/// resolve, small enough for a repetition of about a second.
constexpr int kScheduleBudget = 64;

}  // namespace

Result run_schedule_sweep(const Inputs& in, const Options& opts) {
  const std::size_t n = in.corpus.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(opts.seed);
  rng.shuffle(order);

  explore::ExploreOptions eo;
  eo.strategy = explore::Strategy::Pct;
  eo.max_schedules = kScheduleBudget;
  eo.plateau_window = 0;
  eo.minimize = true;
  eo.seed = rng.next();

  const RepFn rep = [&](bool traced, bool check) {
    Rep r;
    r.op_calls_ms.assign(n, {});
    std::vector<explore::ExploreResult> results(n);
    std::vector<std::string> errors(n);

    const Clock::time_point start = Clock::now();
    for (const std::size_t i : order) {
      Scope span("explore.source", in.corpus[i].name);
      const Clock::time_point t0 = Clock::now();
      try {
        results[i] = explore::explore_source(in.corpus[i].code, eo);
      } catch (const drbml::Error& e) {
        errors[i] = e.what();
      }
      r.op_calls_ms[i] = {seconds_between(t0, Clock::now()) * 1e3};
    }
    r.wall_s = seconds_between(start, Clock::now());

    for (std::size_t i = 0; i < n; ++i) {
      const explore::ExploreResult& e = results[i];
      Fingerprint fp;
      fp.add(errors[i]).add(e.report);
      fp.add(static_cast<std::uint64_t>(e.first_race_schedule + 1));
      for (const explore::ScheduleStats& s : e.schedules) {
        fp.add(s.seed).add(s.steps).add(s.raced ? 1 : 0).add(s.faulted ? 1 : 0);
      }
      fp.add(e.witness);
      r.op_print.push_back(fp.value());
    }

    if (check) {
      r.op_failure.assign(n, "");
      for (std::size_t i = 0; i < n; ++i) {
        const Source& src = in.corpus[i];
        const explore::ExploreResult& e = results[i];
        std::string why;
        if (!errors[i].empty()) {
          why = "explore_source failed: " + errors[i];
        } else if (!src.racy && e.race_detected) {
          why = "explore race reported on a -no input";
        } else {
          why = check_pairs(e.report);
          if (why.empty() && e.race_detected) {
            why = check_witness(src.code, e.witness);
          }
        }
        if (!why.empty()) r.op_failure[i] = src.name + ": " + why;
      }
    }

    if (traced) {
      std::vector<ExploreCall> calls;
      for (std::size_t i = 0; i < n; ++i) {
        if (errors[i].empty()) calls.push_back({&results[i], r.op_calls_ms[i][0]});
      }
      r.layers = explore_layers(calls);
    }
    return r;
  };

  std::vector<const Source*> sources;
  for (const Source& s : in.corpus) sources.push_back(&s);
  return measure(opts, rep, [&] { return probe_front_end(sources); });
}

}  // namespace perfbench
