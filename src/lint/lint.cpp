#include "lint/lint.hpp"

#include <string_view>

#include "obs/catalog.hpp"

namespace drbml::lint {

namespace {

obs::Counter& diag_counter(std::string_view check_id) {
  static obs::Counter& race = obs::metrics().counter(obs::kLintDiagRace);
  static obs::Counter& datashare =
      obs::metrics().counter(obs::kLintDiagDatashare);
  static obs::Counter& reduction =
      obs::metrics().counter(obs::kLintDiagReduction);
  static obs::Counter& lock = obs::metrics().counter(obs::kLintDiagLock);
  static obs::Counter& barrier = obs::metrics().counter(obs::kLintDiagBarrier);
  static obs::Counter& atomic = obs::metrics().counter(obs::kLintDiagAtomic);
  if (check_id == "lint.race") return race;
  if (check_id == "lint.datashare") return datashare;
  if (check_id == "lint.reduction") return reduction;
  if (check_id == "lint.lock") return lock;
  if (check_id == "lint.barrier") return barrier;
  return atomic;
}

}  // namespace

LintReport Linter::lint(const analysis::FrontEnd& fe,
                        const analysis::RaceReport* race) const {
  static obs::Counter& runs = obs::metrics().counter(obs::kLintRuns);
  static obs::Counter& suppressed =
      obs::metrics().counter(obs::kLintSuppressed);
  obs::Span span(obs::kSpanLintRun);
  LintReport report = manager_.run(fe, opts_, race);
  runs.add();
  suppressed.add(static_cast<std::uint64_t>(report.suppressed));
  for (const auto& d : report.diagnostics) diag_counter(d.check_id).add();
  return report;
}

LintReport Linter::lint_source(std::string_view source) const {
  return lint(analysis::FrontEnd(source));
}

}  // namespace drbml::lint
