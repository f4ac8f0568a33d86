// Candidate generation: linter fix-its and static race pairs in, ranked
// structured patches out.
//
// Each DRB pattern family maps to a ladder of strategies (see DESIGN.md
// §9): data-sharing clauses (reduction/private/firstprivate/shared) are
// tried first, then synchronization (atomic, critical, locks, barrier,
// taskwait, nowait removal, critical-name unification), and finally
// serialization (ordered, simd demotion) as the semantics-preserving last
// resort. Candidates are ranked by cost; equal-cost candidates that attack
// a rule the pair's evidence chain shows failing (Patch::evidence_bias)
// come first, with the patch id as the final deterministic tie-breaker.
// The verified fix loop (repair.hpp) walks the ranking and keeps the
// first candidate that survives every gate.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "analysis/front_end.hpp"
#include "analysis/report.hpp"
#include "lint/diagnostic.hpp"
#include "minic/ast.hpp"
#include "repair/patch.hpp"

namespace drbml::repair {

enum class Strategy {
  Auto,       // every candidate class
  Lint,       // data-sharing clause fixes (lint fix-its + inferred reductions)
  Sync,       // mutual exclusion / ordering primitives
  Serialize,  // ordered serialization and simd demotion
};

[[nodiscard]] const char* strategy_name(Strategy s) noexcept;
[[nodiscard]] std::optional<Strategy> parse_strategy(
    std::string_view name) noexcept;

/// Generates ranked patch candidates for `fe` from the static race
/// evidence and (optionally) the linter's structured fix-its, classifying
/// accesses by the front end's parallel regions (default collection).
/// Deterministic: same inputs, same candidate list.
[[nodiscard]] std::vector<Patch> generate_candidates(
    const analysis::FrontEnd& fe, const analysis::RaceReport& races,
    const lint::LintReport* lint_report, Strategy strategy);

}  // namespace drbml::repair
