// corpus_pipeline: the `drbml stats` pipeline at one worker over the
// frozen DRB-ML records, each repetition from an empty artifact cache:
// dataset records -> token counts -> static -> dynamic -> lint -> explore
// (uniform, then PCT, racy entries) -> repair (racy entries).
//
// One operation is one source through every stage; its time is the sum
// of its per-stage calls.
#include <array>
#include <numeric>

#include "bench.hpp"
#include "dataset/drbml.hpp"
#include "eval/artifact_cache.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace eval = drbml::eval;
namespace explore = drbml::explore;
namespace repair = drbml::repair;

constexpr explore::Strategy kStrategies[] = {explore::Strategy::Uniform,
                                             explore::Strategy::Pct};

void add_explore(Fingerprint& fp, const explore::ExploreResult* r) {
  if (r == nullptr) {
    fp.add("error");
    return;
  }
  fp.add(r->report).add(static_cast<std::uint64_t>(r->schedules_run));
  for (const explore::ScheduleStats& s : r->schedules) {
    fp.add(s.seed).add(s.steps).add(s.raced ? 1 : 0).add(s.faulted ? 1 : 0);
  }
  fp.add(r->witness);
}

}  // namespace

Result run_corpus_pipeline(const Inputs& in, const Options& opts) {
  const std::size_t n = in.corpus.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(opts.seed);
  rng.shuffle(order);
  eval::ArtifactCache& cache = eval::artifact_cache();

  const RepFn rep = [&](bool traced, bool check) {
    cache.clear();
    Rep r;
    r.op_calls_ms.assign(n, {});
    std::vector<drbml::dataset::Entry> records(n);
    std::vector<int> tokens(n, 0);
    std::vector<const drbml::analysis::RaceReport*> statics(n, nullptr);
    std::vector<const drbml::analysis::RaceReport*> dynamics(n, nullptr);
    std::vector<const drbml::lint::LintReport*> lints(n, nullptr);
    std::vector<std::array<const explore::ExploreResult*, 2>> explored(
        n, {nullptr, nullptr});
    std::vector<std::array<double, 2>> explore_ms(n, {0.0, 0.0});
    std::vector<const repair::RepairResult*> repaired(n, nullptr);

    const std::map<std::string, double> repair0 = repair_counters();
    const std::uint64_t probes0 = cache_counter_sum(false);
    const std::uint64_t computes0 = cache_counter_sum(true);
    const std::uint64_t evictions0 =
        drbml::obs::metrics().counter(drbml::obs::kCacheEvictCount).value();

    // Times one per-source call and charges it to that source.
    const auto call = [&](std::size_t i, const char* span, auto&& fn) {
      Scope s(span, in.corpus[i].name);
      const Clock::time_point t0 = Clock::now();
      fn();
      const double ms = seconds_between(t0, Clock::now()) * 1e3;
      r.op_calls_ms[i].push_back(ms);
      return ms;
    };

    const Clock::time_point start = Clock::now();
    {
      Scope stage("stage.dataset");
      for (const std::size_t i : order) {
        call(i, "dataset.record", [&] {
          records[i] = drbml::dataset::Entry::from_json(
              drbml::json::parse(in.drbml_records[i]));
        });
      }
    }
    {
      Scope stage("stage.tokens");
      for (const std::size_t i : order) {
        call(i, "eval.token_count", [&] {
          tokens[i] = cache.token_count(records[i].trimmed_code);
        });
      }
    }
    {
      Scope stage("stage.static");
      for (const std::size_t i : order) {
        call(i, "eval.static_report", [&] {
          statics[i] = &cache.static_report(records[i].drb_code, {});
        });
      }
    }
    {
      Scope stage("stage.dynamic");
      for (const std::size_t i : order) {
        call(i, "eval.dynamic_report", [&] {
          try {
            dynamics[i] = &cache.dynamic_report(records[i].drb_code, {});
          } catch (const drbml::Error&) {
            // Non-executable entries fall out of the dynamic stage, as in
            // `drbml stats`.
          }
        });
      }
    }
    {
      Scope stage("stage.lint");
      for (const std::size_t i : order) {
        call(i, "eval.lint_report", [&] {
          try {
            lints[i] = &cache.lint_report(records[i].drb_code);
          } catch (const drbml::Error&) {
          }
        });
      }
    }
    {
      Scope stage("stage.explore");
      for (std::size_t s = 0; s < 2; ++s) {
        explore::ExploreOptions eo;
        eo.strategy = kStrategies[s];
        for (const std::size_t i : order) {
          if (!in.corpus[i].racy) continue;
          explore_ms[i][s] = call(i, "eval.explore_result", [&] {
            try {
              explored[i][s] = &cache.explore_result(records[i].drb_code, eo);
            } catch (const drbml::Error&) {
            }
          });
        }
      }
    }
    {
      Scope stage("stage.repair");
      for (const std::size_t i : order) {
        if (!in.corpus[i].racy) continue;
        call(i, "eval.repair_result", [&] {
          repaired[i] = &cache.repair_result(records[i].drb_code, {});
        });
      }
    }
    r.wall_s = seconds_between(start, Clock::now());

    for (std::size_t i = 0; i < n; ++i) {
      Fingerprint fp;
      fp.add(records[i].name).add(static_cast<std::uint64_t>(tokens[i]));
      fp.add(*statics[i]);
      if (dynamics[i] != nullptr) fp.add(*dynamics[i]); else fp.add("error");
      if (lints[i] != nullptr) {
        for (const auto& d : lints[i]->diagnostics) {
          fp.add(d.check_id).add(static_cast<std::uint64_t>(d.loc.line));
        }
      } else {
        fp.add("error");
      }
      add_explore(fp, explored[i][0]);
      add_explore(fp, explored[i][1]);
      if (repaired[i] != nullptr) {
        fp.add(repair::repair_status_name(repaired[i]->status))
            .add(repaired[i]->patch_id)
            .add(repaired[i]->patched);
      }
      r.op_print.push_back(fp.value());
    }

    if (check) {
      r.op_failure.assign(n, "");
      for (std::size_t i = 0; i < n; ++i) {
        const Source& src = in.corpus[i];
        std::string why = check_pairs(*statics[i]);
        if (why.empty() && dynamics[i] != nullptr) {
          why = check_pairs(*dynamics[i]);
          if (why.empty() && !src.racy && dynamics[i]->race_detected) {
            why = "dynamic race reported on a -no input";
          }
        }
        for (const explore::ExploreResult* e : explored[i]) {
          if (!why.empty() || e == nullptr) continue;
          why = check_pairs(e->report);
          if (why.empty() && e->race_detected) {
            why = check_witness(src.code, e->witness);
          }
        }
        if (why.empty() && repaired[i] != nullptr &&
            repaired[i]->status == repair::RepairStatus::Fixed) {
          why = check_fix(src.code, repaired[i]->patched);
        }
        if (!why.empty()) r.op_failure[i] = src.name + ": " + why;
      }
    }

    if (traced) {
      Tracer& tr = tracer();
      for (const char* stage : {"dataset", "tokens", "static", "dynamic", "lint",
                                "explore", "repair"}) {
        r.layers[std::string("stage.") + stage + "_ms"] =
            tr.total_ms(std::string("stage.") + stage);
      }
      std::vector<ExploreCall> calls;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t s = 0; s < 2; ++s) {
          if (explored[i][s] != nullptr) {
            calls.push_back({explored[i][s], explore_ms[i][s]});
          }
        }
      }
      r.layers.merge(explore_layers(calls));
      r.layers.merge(repair_layers(repair0));

      const double probes =
          static_cast<double>(cache_counter_sum(false) - probes0);
      const double computes =
          static_cast<double>(cache_counter_sum(true) - computes0);
      r.layers["cache.probes"] = probes;
      r.layers["cache.computes"] = computes;
      r.layers["cache.hit_ratio"] = probes > 0 ? 1.0 - computes / probes : 0.0;
      r.layers["cache.evictions"] = static_cast<double>(
          drbml::obs::metrics().counter(drbml::obs::kCacheEvictCount).value() -
          evictions0);
      r.layers["cache.resident_mb"] =
          static_cast<double>(cache.resident_bytes()) / (1024.0 * 1024.0);
    }
    return r;
  };

  std::vector<const Source*> sources;
  for (const Source& s : in.corpus) sources.push_back(&s);
  return measure(opts, rep, [&] { return probe_front_end(sources); });
}

}  // namespace perfbench
