// Cross-thread conflict classification between two memory accesses.
//
// Implements an affine dependence test (GCD + Banerjee-style interval
// reasoning) over the collected access annotations:
//   - distributed-loop induction variables appear as bounded distance
//     variables (same worksharing nest) or independent instances
//     (different nests / plain region code),
//   - sequential-loop induction variables are independent per side,
//   - other variables are assumed loop-invariant and must cancel,
//   - omp_get_thread_num() (and variables bound to affine forms of it)
//     appears as a symbolic per-side thread id: a dimension whose
//     difference is c*(tid_a - tid_b) + rest admits a cross-thread
//     conflict only if some nonzero thread-id difference solves it.
#pragma once

#include <string>

#include "analysis/access.hpp"
#include "analysis/consteval.hpp"

namespace drbml::analysis {

enum class ConflictKind {
  None,        // accesses can never touch the same element concurrently
  SameThread,  // overlap exists but always within one thread's iteration
  CrossThread, // a data race is possible
};

struct DependOptions {
  /// Treat non-affine subscripts (indirect indexing, calls, unknown
  /// pointers) as conflicting. True mirrors conservative static tools;
  /// false mirrors optimistic ones (and produces false negatives instead
  /// of false positives).
  bool conservative_nonaffine = true;
  /// Model omp_get_thread_num() as a symbolic per-side thread id so
  /// thread-id-indexed accesses (`a[omp_get_thread_num()]`) are proven
  /// disjoint across threads. Automatically suspended when either access
  /// sits in a task (tasks run on arbitrary threads).
  bool model_thread_id = true;
  /// Substitute thread-id-affine loop bounds (`for (k = tid*C; k < tid*C
  /// + C; ...)`) into subscripts instead of widening them to infinity.
  /// Only effective together with model_thread_id.
  bool symbolic_bounds = true;

  friend bool operator==(const DependOptions&, const DependOptions&) = default;
};

/// The decision plus the test that produced it, for evidence chains.
/// `test` is one of: "gcd", "banerjee", "distance", "tid-disjoint",
/// "nonaffine", "conflict" (prefix with "dep." for the stable rule id).
struct DependVerdict {
  ConflictKind kind = ConflictKind::CrossThread;
  std::string test;
  std::string detail;
};

/// Decides whether accesses `a` and `b` (same canonical variable, already
/// filtered for phase/sync by the caller) may conflict across threads,
/// reporting which dependence test decided.
[[nodiscard]] DependVerdict classify_conflict_ex(const AccessInfo& a,
                                                 const AccessInfo& b,
                                                 const ConstantMap& consts,
                                                 const DependOptions& opts);

/// Compatibility wrapper returning only the decision.
[[nodiscard]] ConflictKind classify_conflict(const AccessInfo& a,
                                             const AccessInfo& b,
                                             const ConstantMap& consts,
                                             const DependOptions& opts);

}  // namespace drbml::analysis
