#include "repair/candidates.hpp"

#include <algorithm>
#include <set>
#include <string>


namespace drbml::repair {

namespace {

using namespace minic;

/// Which strategy bucket a candidate belongs to (for --strategy filtering).
enum class Bucket { Lint, Sync, Serialize };

struct Candidate {
  Patch patch;
  Bucket bucket = Bucket::Sync;
};

std::string loc_tag(SourceLoc loc) { return std::to_string(loc.line); }

/// Innermost statement usable as a wrap target: walks the chain from the
/// inside out, skipping declarations (wrapping a DeclStmt would bury its
/// scope inside the new block) and never escaping the enclosing region.
Stmt* wrap_target(const std::vector<Stmt*>& chain, const OmpStmt* region) {
  std::size_t start = 0;
  if (region != nullptr) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      if (chain[i] == static_cast<const Stmt*>(region)) {
        start = i + 1;
        break;
      }
    }
  }
  for (std::size_t i = chain.size(); i-- > start;) {
    if (chain[i]->kind == StmtKind::Decl) continue;
    return chain[i];
  }
  return nullptr;
}

Stmt* innermost_expr_stmt(const std::vector<Stmt*>& chain) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if ((*it)->kind == StmtKind::Expr) return *it;
  }
  return nullptr;
}

/// The enclosing `critical` construct, if any.
OmpStmt* enclosing_critical(const std::vector<Stmt*>& chain) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (auto* omp = stmt_cast<OmpStmt>(*it);
        omp != nullptr && omp->directive.kind == OmpDirectiveKind::Critical) {
      return omp;
    }
  }
  return nullptr;
}

OmpStmt* enclosing_simd(const std::vector<Stmt*>& chain) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (auto* omp = stmt_cast<OmpStmt>(*it)) {
      switch (omp->directive.kind) {
        case OmpDirectiveKind::Simd:
        case OmpDirectiveKind::ForSimd:
        case OmpDirectiveKind::ParallelForSimd:
          return omp;
        default:
          break;
      }
    }
  }
  return nullptr;
}

bool in_task(const std::vector<Stmt*>& chain) {
  for (Stmt* s : chain) {
    if (auto* omp = stmt_cast<OmpStmt>(s);
        omp != nullptr && omp->directive.kind == OmpDirectiveKind::Task) {
      return true;
    }
  }
  return false;
}

/// Reduction operator spelling implied by the update statement of `var`
/// ("" when the statement is not a recognizable reduction update).
std::string infer_reduction_op(const Stmt* stmt, const std::string& var) {
  const auto* es = stmt_cast<ExprStmt>(stmt);
  if (es == nullptr) return "";
  const Expr* e = es->expr.get();
  if (const auto* u = expr_cast<Unary>(e)) {
    const auto* id = expr_cast<Ident>(u->operand.get());
    if (id == nullptr || id->name != var) return "";
    if (u->op == UnaryOp::PreInc || u->op == UnaryOp::PostInc) return "+";
    if (u->op == UnaryOp::PreDec || u->op == UnaryOp::PostDec) return "-";
    return "";
  }
  const auto* a = expr_cast<Assign>(e);
  if (a == nullptr) return "";
  const auto* target = expr_cast<Ident>(a->target.get());
  if (target == nullptr || target->name != var) return "";
  switch (a->op) {
    case AssignOp::Add: return "+";
    case AssignOp::Sub: return "-";
    case AssignOp::Mul: return "*";
    case AssignOp::And: return "&";
    case AssignOp::Or: return "|";
    case AssignOp::Xor: return "^";
    case AssignOp::Assign: {
      const auto* b = expr_cast<Binary>(a->value.get());
      if (b == nullptr) return "";
      auto is_var = [&](const Expr* x) {
        const auto* id = expr_cast<Ident>(x);
        return id != nullptr && id->name == var;
      };
      if (!is_var(b->lhs.get()) && !is_var(b->rhs.get())) return "";
      switch (b->op) {
        case BinaryOp::Add: return "+";
        case BinaryOp::Mul: return "*";
        case BinaryOp::Sub: return is_var(b->lhs.get()) ? "-" : "";
        case BinaryOp::BitAnd: return "&";
        case BinaryOp::BitOr: return "|";
        case BinaryOp::BitXor: return "^";
        default: return "";
      }
    }
    default: return "";
  }
}

/// True when the expression statement has a shape `#pragma omp atomic`
/// accepts: `x op= e`, `x++`/`x--`, or `x = x op e`.
bool atomicable(const Stmt* stmt) {
  const auto* es = stmt_cast<ExprStmt>(stmt);
  if (es == nullptr) return false;
  const Expr* e = es->expr.get();
  if (const auto* u = expr_cast<Unary>(e)) {
    return u->op == UnaryOp::PreInc || u->op == UnaryOp::PostInc ||
           u->op == UnaryOp::PreDec || u->op == UnaryOp::PostDec;
  }
  const auto* a = expr_cast<Assign>(e);
  if (a == nullptr) return false;
  if (a->op != AssignOp::Assign) return true;  // compound assignment
  // Plain `x = x op e`: the target spelling must reappear in the value.
  const auto* b = expr_cast<Binary>(a->value.get());
  return b != nullptr;
}

const analysis::AccessInfo* find_access(
    const std::vector<analysis::ParallelRegion>& regions,
    const analysis::RaceAccess& ra) {
  for (const auto& reg : regions) {
    for (const auto& a : reg.accesses) {
      if (a.loc == ra.loc && a.is_write == (ra.op == 'w') &&
          a.text == ra.expr_text) {
        return &a;
      }
    }
  }
  for (const auto& reg : regions) {
    for (const auto& a : reg.accesses) {
      if (a.loc == ra.loc) return &a;
    }
  }
  return nullptr;
}

/// True when the evidence chain contains a non-discharged step whose rule
/// id starts with `prefix` -- i.e. the rule was consulted and failed.
bool failed_step(const analysis::Evidence& ev, const std::string& prefix) {
  for (const auto& s : ev.steps) {
    if (!s.discharged && s.rule.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// True when the patch directly attacks a rule the evidence shows
/// failing: mutual exclusion against a failed lockset, a barrier against
/// a shared phase, a taskwait against unordered tasks, serialization or
/// data-sharing clauses against a feasible dependence.
bool attacks_evidence(const Patch& patch, const analysis::Evidence& ev) {
  for (const auto& e : patch.edits) {
    switch (e.kind) {
      case EditKind::WrapLock:
      case EditKind::SetCriticalName:
        if (failed_step(ev, "lockset.")) return true;
        break;
      case EditKind::WrapStmt:
        if ((e.directive_kind == OmpDirectiveKind::Critical ||
             e.directive_kind == OmpDirectiveKind::Atomic) &&
            failed_step(ev, "lockset.")) {
          return true;
        }
        if (e.directive_kind == OmpDirectiveKind::Ordered &&
            failed_step(ev, "dep.")) {
          return true;
        }
        break;
      case EditKind::InsertPragmaBefore:
        if (e.directive_kind == OmpDirectiveKind::Barrier &&
            failed_step(ev, "mhp.phase")) {
          return true;
        }
        if (e.directive_kind == OmpDirectiveKind::Taskwait &&
            failed_step(ev, "mhp.task")) {
          return true;
        }
        break;
      case EditKind::RemoveClause:
        // Dropping nowait restores the implicit barrier phases.
        if (e.clause_kind == OmpClauseKind::Nowait &&
            failed_step(ev, "mhp.phase")) {
          return true;
        }
        break;
      case EditKind::AddClause:
        // Privatization/reduction removes the conflicting shared access
        // the dependence test found feasible.
        if ((e.clause_kind == OmpClauseKind::Reduction ||
             e.clause_kind == OmpClauseKind::Private ||
             e.clause_kind == OmpClauseKind::FirstPrivate ||
             e.clause_kind == OmpClauseKind::LastPrivate) &&
            failed_step(ev, "dep.")) {
          return true;
        }
        if (e.clause_kind == OmpClauseKind::Ordered &&
            failed_step(ev, "dep.")) {
          return true;
        }
        break;
      case EditKind::DemoteSimd:
        if (failed_step(ev, "dep.")) return true;
        break;
    }
  }
  return false;
}

class Generator {
 public:
  // Generation only navigates the AST; stmt_chain_at hands out mutable
  // statement pointers because the patch applier shares it.
  Generator(const analysis::FrontEnd& fe, const analysis::RaceReport& races,
            const lint::LintReport* lint_report)
      : unit_(const_cast<TranslationUnit&>(fe.unit())),
        races_(races),
        lint_(lint_report),
        regions_(fe.regions()) {}

  std::vector<Candidate> run() {
    if (lint_ != nullptr) from_lint();
    for (const auto& pair : races_.pairs) from_pair(pair);
    return std::move(out_);
  }

 private:
  void add(Bucket bucket, Patch patch) {
    if (ev_ != nullptr && attacks_evidence(patch, *ev_)) {
      patch.evidence_bias = 0;
    }
    std::string sig;
    for (const auto& e : patch.edits) {
      sig += edit_kind_name(e.kind);
      sig += '@' + std::to_string(e.anchor.line) + ':' +
             std::to_string(e.anchor.col);
      sig += ';' + std::to_string(static_cast<int>(e.clause_kind));
      for (const auto& v : e.clause_vars) sig += ',' + v;
      sig += ';' + e.clause_arg;
      sig += ';' + std::to_string(static_cast<int>(e.directive_kind));
      sig += ';' + e.name + '|';
    }
    if (!seen_.insert(sig).second) return;
    out_.push_back({std::move(patch), bucket});
  }

  Patch clause_patch(const OmpStmt& region, OmpClauseKind kind,
                     const std::string& var, const std::string& arg,
                     const std::string& spelled, const std::string& family,
                     int cost) {
    Patch p;
    Edit e;
    e.kind = EditKind::AddClause;
    e.anchor = region.directive.loc;
    e.clause_kind = kind;
    e.clause_vars = {var};
    e.clause_arg = arg;
    p.edits.push_back(std::move(e));
    p.id = spelled + "@" + loc_tag(region.directive.loc);
    p.description = "add " + spelled + " to the parallel construct at line " +
                    loc_tag(region.directive.loc);
    p.family = family;
    p.cost = cost;
    return p;
  }

  void from_lint() {
    for (const auto& d : lint_->diagnostics) {
      if (d.fixit.empty()) continue;
      auto chain = stmt_chain_at(unit_, d.loc);
      OmpStmt* region = enclosing_region(chain);
      const std::string& fx = d.fixit;
      auto clause_arg_of = [&](std::size_t open) {
        return fx.substr(open + 1, fx.rfind(')') - open - 1);
      };
      if (fx.rfind("reduction(", 0) == 0 && region != nullptr) {
        const std::string inner = clause_arg_of(fx.find('('));
        const std::size_t colon = inner.find(':');
        if (colon == std::string::npos) continue;
        add(Bucket::Lint,
            clause_patch(*region, OmpClauseKind::Reduction,
                         inner.substr(colon + 1), inner.substr(0, colon), fx,
                         d.pattern, 1));
      } else if (fx.rfind("private(", 0) == 0 && region != nullptr) {
        const std::string var = clause_arg_of(fx.find('('));
        add(Bucket::Lint, clause_patch(*region, OmpClauseKind::Private, var,
                                       "", fx, d.pattern, 2));
        add(Bucket::Lint,
            clause_patch(*region, OmpClauseKind::LastPrivate, var, "",
                         "lastprivate(" + var + ")", d.pattern, 3));
      } else if (fx.rfind("firstprivate(", 0) == 0 && region != nullptr) {
        add(Bucket::Lint,
            clause_patch(*region, OmpClauseKind::FirstPrivate,
                         clause_arg_of(fx.find('(')), "", fx, d.pattern, 2));
      } else if (fx.rfind("shared(", 0) == 0 && region != nullptr) {
        add(Bucket::Lint,
            clause_patch(*region, OmpClauseKind::Shared,
                         clause_arg_of(fx.find('(')), "", fx, d.pattern, 2));
      } else if (fx == "#pragma omp atomic") {
        Stmt* stmt = innermost_expr_stmt(chain);
        if (stmt == nullptr || !atomicable(stmt)) continue;
        add_wrap(Bucket::Sync, {stmt}, OmpDirectiveKind::Atomic, "",
                 d.pattern, 3);
      } else if (fx == "#pragma omp barrier" && !d.related.empty()) {
        // Preferred: drop the nowait clause that created the stale read.
        const SourceLoc dir_loc = d.related.front().loc;
        Patch p;
        Edit e;
        e.kind = EditKind::RemoveClause;
        e.anchor = dir_loc;
        e.clause_kind = OmpClauseKind::Nowait;
        p.edits.push_back(std::move(e));
        p.id = "remove-nowait@" + loc_tag(dir_loc);
        p.description =
            "remove the nowait clause at line " + loc_tag(dir_loc);
        p.family = d.pattern;
        p.cost = 2;
        add(Bucket::Sync, std::move(p));
      }
    }
  }

  void add_wrap(Bucket bucket, const std::vector<Stmt*>& stmts,
                OmpDirectiveKind kind, const std::string& name,
                const std::string& family, int cost) {
    Patch p;
    std::string tag;
    for (Stmt* s : stmts) {
      Edit e;
      e.kind = EditKind::WrapStmt;
      e.anchor = s->loc;
      e.directive_kind = kind;
      e.name = name;
      p.edits.push_back(std::move(e));
      if (!tag.empty()) tag += "+";
      tag += loc_tag(s->loc);
    }
    p.id = omp_directive_kind_name(kind) + "@" + tag;
    p.description = "wrap statement(s) at line " + tag + " in `#pragma omp " +
                    omp_directive_kind_name(kind) + "`";
    p.family = family;
    p.cost = cost;
    add(bucket, std::move(p));
  }

  void from_pair(const analysis::RacePair& pair) {
    ev_ = &pair.evidence;
    auto chain_a = stmt_chain_at(unit_, pair.first.loc);
    auto chain_b = stmt_chain_at(unit_, pair.second.loc);
    if (chain_a.empty() && chain_b.empty()) return;
    if (chain_a.empty()) chain_a = chain_b;
    OmpStmt* region = enclosing_region(chain_a);
    if (region == nullptr && !chain_b.empty()) {
      region = enclosing_region(chain_b);
    }
    const std::string family = pair.note.empty() ? "race-pair" : pair.note;
    const analysis::AccessInfo* ai = find_access(regions_, pair.first);
    const analysis::AccessInfo* bi = find_access(regions_, pair.second);

    // Scalar accumulation -> reduction clause.
    if (region != nullptr && pair.first.var_name == pair.second.var_name &&
        pair.first.expr_text == pair.first.var_name) {
      const std::vector<Stmt*>& wchain =
          pair.first.op == 'w' ? chain_a : chain_b;
      std::string op;
      if (Stmt* stmt = innermost_expr_stmt(wchain)) {
        op = infer_reduction_op(stmt, pair.first.var_name);
      }
      if (!op.empty()) {
        add(Bucket::Lint,
            clause_patch(*region, OmpClauseKind::Reduction,
                         pair.first.var_name, op,
                         "reduction(" + op + ":" + pair.first.var_name + ")",
                         "missing-reduction", 1));
      }
    }

    // A nowait clause anywhere on the enclosing constructs.
    for (const auto* chain : {&chain_a, &chain_b}) {
      for (Stmt* s : *chain) {
        auto* omp = stmt_cast<OmpStmt>(s);
        if (omp == nullptr ||
            !omp->directive.has_clause(OmpClauseKind::Nowait)) {
          continue;
        }
        Patch p;
        Edit e;
        e.kind = EditKind::RemoveClause;
        e.anchor = omp->directive.loc;
        e.clause_kind = OmpClauseKind::Nowait;
        p.edits.push_back(std::move(e));
        p.id = "remove-nowait@" + loc_tag(omp->directive.loc);
        p.description =
            "remove the nowait clause at line " + loc_tag(omp->directive.loc);
        p.family = "nowait";
        p.cost = 2;
        add(Bucket::Sync, std::move(p));
      }
    }

    // Differently-named critical sections guarding the two sides.
    {
      OmpStmt* ca = enclosing_critical(chain_a);
      OmpStmt* cb = chain_b.empty() ? nullptr : enclosing_critical(chain_b);
      if (ca != nullptr && cb != nullptr && ca != cb &&
          ca->directive.critical_name != cb->directive.critical_name) {
        Patch p;
        for (OmpStmt* c : {ca, cb}) {
          Edit e;
          e.kind = EditKind::SetCriticalName;
          e.anchor = c->directive.loc;
          e.name = ca->directive.critical_name;
          p.edits.push_back(std::move(e));
        }
        p.id = "unify-critical@" + loc_tag(ca->directive.loc) + "+" +
               loc_tag(cb->directive.loc);
        p.description = "unify the critical section names at lines " +
                        loc_tag(ca->directive.loc) + " and " +
                        loc_tag(cb->directive.loc);
        p.family = "different-critical-names";
        p.cost = 2;
        add(Bucket::Sync, std::move(p));
      }
    }

    // Atomic update on every non-atomic write side.
    {
      std::vector<Stmt*> targets;
      auto consider = [&](const std::vector<Stmt*>& chain,
                          const analysis::RaceAccess& ra,
                          const analysis::AccessInfo* info) {
        if (chain.empty() || ra.op != 'w') return;
        if (info != nullptr && info->ctx.atomic) return;
        Stmt* stmt = innermost_expr_stmt(chain);
        if (stmt == nullptr || !atomicable(stmt)) return;
        if (std::find(targets.begin(), targets.end(), stmt) ==
            targets.end()) {
          targets.push_back(stmt);
        }
      };
      consider(chain_a, pair.first, ai);
      consider(chain_b, pair.second, bi);
      if (!targets.empty()) {
        add_wrap(Bucket::Sync, targets, OmpDirectiveKind::Atomic, "", family,
                 3);
      }
    }

    // One side under an omp lock, the other bare: bracket the bare side.
    {
      auto locked = [&](const analysis::AccessInfo* i) {
        return i != nullptr && !i->ctx.locks.empty();
      };
      const analysis::AccessInfo* with = nullptr;
      const std::vector<Stmt*>* bare_chain = nullptr;
      const analysis::AccessInfo* bare = nullptr;
      if (locked(ai) && !locked(bi)) {
        with = ai;
        bare = bi;
        bare_chain = &chain_b;
      } else if (locked(bi) && !locked(ai)) {
        with = bi;
        bare = ai;
        bare_chain = &chain_a;
      }
      if (with != nullptr && bare != nullptr && bare_chain != nullptr &&
          !bare_chain->empty()) {
        if (Stmt* stmt = wrap_target(*bare_chain, region)) {
          const std::string lock = with->ctx.locks.front()->name;
          Patch p;
          Edit e;
          e.kind = EditKind::WrapLock;
          e.anchor = stmt->loc;
          e.name = lock;
          p.edits.push_back(std::move(e));
          p.id = "lock(" + lock + ")@" + loc_tag(stmt->loc);
          p.description = "guard the statement at line " + loc_tag(stmt->loc) +
                          " with omp_set_lock/omp_unset_lock(&" + lock + ")";
          p.family = "lock-partial";
          p.cost = 4;
          add(Bucket::Sync, std::move(p));
        }
      }
    }

    // Critical section around both sides (one edit when they share a
    // statement or one contains the other).
    {
      Stmt* ta = wrap_target(chain_a, region);
      Stmt* tb = chain_b.empty() ? nullptr : wrap_target(chain_b, region);
      std::vector<Stmt*> targets;
      if (ta != nullptr) targets.push_back(ta);
      if (tb != nullptr && tb != ta) {
        const bool nested =
            std::find(chain_a.begin(), chain_a.end(), tb) != chain_a.end() ||
            (ta != nullptr &&
             std::find(chain_b.begin(), chain_b.end(), ta) != chain_b.end());
        if (!nested) targets.push_back(tb);
      }
      if (!targets.empty()) {
        add_wrap(Bucket::Sync, targets, OmpDirectiveKind::Critical, "",
                 family, 4);
      }
    }

    // Task vs. non-task access: a taskwait in front of the non-task side.
    {
      const bool task_a = in_task(chain_a);
      const bool task_b = !chain_b.empty() && in_task(chain_b);
      const std::vector<Stmt*>* plain = nullptr;
      if (task_a && !task_b && !chain_b.empty()) plain = &chain_b;
      if (task_b && !task_a) plain = &chain_a;
      if (plain != nullptr) {
        if (Stmt* stmt = wrap_target(*plain, nullptr)) {
          Patch p;
          Edit e;
          e.kind = EditKind::InsertPragmaBefore;
          e.anchor = stmt->loc;
          e.directive_kind = OmpDirectiveKind::Taskwait;
          p.edits.push_back(std::move(e));
          p.id = "taskwait@" + loc_tag(stmt->loc);
          p.description = "insert `#pragma omp taskwait` before line " +
                          loc_tag(stmt->loc);
          p.family = "missing-taskwait";
          p.cost = 3;
          add(Bucket::Sync, std::move(p));
        }
      }
    }

    // Sibling statements inside one parallel region: a barrier between.
    if (region != nullptr && region->directive.forks_team() &&
        !chain_b.empty()) {
      // Lowest common ancestor; the later branch gets the barrier.
      std::size_t common = 0;
      while (common < chain_a.size() && common < chain_b.size() &&
             chain_a[common] == chain_b[common]) {
        ++common;
      }
      if (common > 0 && common < chain_a.size() && common < chain_b.size() &&
          chain_a[common - 1]->kind == StmtKind::Compound) {
        Stmt* first_branch = chain_a[common];
        Stmt* second_branch = chain_b[common];
        if (second_branch->loc.line < first_branch->loc.line) {
          std::swap(first_branch, second_branch);
        }
        Patch p;
        Edit e;
        e.kind = EditKind::InsertPragmaBefore;
        e.anchor = second_branch->loc;
        e.directive_kind = OmpDirectiveKind::Barrier;
        p.edits.push_back(std::move(e));
        p.id = "barrier@" + loc_tag(second_branch->loc);
        p.description = "insert `#pragma omp barrier` before line " +
                        loc_tag(second_branch->loc);
        p.family = "barrier";
        p.cost = 4;
        add(Bucket::Sync, std::move(p));
      }
    }

    // Ordered serialization of a worksharing loop.
    if (region != nullptr && region->directive.is_worksharing_loop() &&
        !region->directive.has_clause(OmpClauseKind::Ordered)) {
      Stmt* target = nullptr;
      if (!chain_b.empty()) {
        std::size_t common = 0;
        while (common < chain_a.size() && common < chain_b.size() &&
               chain_a[common] == chain_b[common]) {
          ++common;
        }
        if (common > 0) target = chain_a[common - 1];
      } else {
        target = wrap_target(chain_a, region);
      }
      // Never wrap the loop construct itself; fall back to its body.
      auto* loop = stmt_cast<ForStmt>(region->body.get());
      if (loop != nullptr &&
          (target == nullptr || target == static_cast<Stmt*>(region) ||
           target == static_cast<Stmt*>(loop) ||
           target->kind == StmtKind::Decl)) {
        target = loop->body.get();
      }
      if (target != nullptr && target->loc.valid()) {
        Patch p;
        Edit add_ordered;
        add_ordered.kind = EditKind::AddClause;
        add_ordered.anchor = region->directive.loc;
        add_ordered.clause_kind = OmpClauseKind::Ordered;
        p.edits.push_back(std::move(add_ordered));
        Edit wrap;
        wrap.kind = EditKind::WrapStmt;
        wrap.anchor = target->loc;
        wrap.directive_kind = OmpDirectiveKind::Ordered;
        p.edits.push_back(std::move(wrap));
        p.id = "ordered@" + loc_tag(target->loc);
        p.description =
            "serialize the racing statements with an ordered clause and "
            "`#pragma omp ordered` at line " +
            loc_tag(target->loc);
        p.family = family;
        p.cost = 8;
        add(Bucket::Serialize, std::move(p));
      }
    }

    // Simd demotion as the last resort for vector-lane races.
    for (const auto* chain : {&chain_a, &chain_b}) {
      if (OmpStmt* simd = enclosing_simd(*chain)) {
        Patch p;
        Edit e;
        e.kind = EditKind::DemoteSimd;
        e.anchor = simd->directive.loc;
        p.edits.push_back(std::move(e));
        p.id = "demote-simd@" + loc_tag(simd->directive.loc);
        p.description = "drop the simd directive at line " +
                        loc_tag(simd->directive.loc);
        p.family = "simd";
        p.cost = 9;
        add(Bucket::Serialize, std::move(p));
      }
    }
  }

  TranslationUnit& unit_;
  const analysis::RaceReport& races_;
  const lint::LintReport* lint_;
  /// Evidence of the pair currently being expanded (nullptr during
  /// lint-driven generation, which carries no chain).
  const analysis::Evidence* ev_ = nullptr;
  const std::vector<analysis::ParallelRegion>& regions_;
  std::set<std::string> seen_;
  std::vector<Candidate> out_;
};

}  // namespace

const char* strategy_name(Strategy s) noexcept {
  switch (s) {
    case Strategy::Auto: return "auto";
    case Strategy::Lint: return "lint";
    case Strategy::Sync: return "sync";
    case Strategy::Serialize: return "serialize";
  }
  return "?";
}

std::optional<Strategy> parse_strategy(std::string_view name) noexcept {
  if (name == "auto") return Strategy::Auto;
  if (name == "lint") return Strategy::Lint;
  if (name == "sync") return Strategy::Sync;
  if (name == "serialize") return Strategy::Serialize;
  return std::nullopt;
}

std::vector<Patch> generate_candidates(const analysis::FrontEnd& fe,
                                       const analysis::RaceReport& races,
                                       const lint::LintReport* lint_report,
                                       Strategy strategy) {
  Generator gen(fe, races, lint_report);
  std::vector<Candidate> all = gen.run();
  std::vector<Patch> out;
  for (auto& c : all) {
    const bool keep =
        strategy == Strategy::Auto ||
        (strategy == Strategy::Lint && c.bucket == Bucket::Lint) ||
        (strategy == Strategy::Sync && c.bucket == Bucket::Sync) ||
        (strategy == Strategy::Serialize && c.bucket == Bucket::Serialize);
    if (keep) out.push_back(std::move(c.patch));
  }
  std::stable_sort(out.begin(), out.end(), [](const Patch& a, const Patch& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    // Among equal-cost candidates, prefer the one that attacks a rule
    // the evidence chain shows failing for the pair it repairs.
    if (a.evidence_bias != b.evidence_bias) {
      return a.evidence_bias < b.evidence_bias;
    }
    return a.id < b.id;
  });
  return out;
}

}  // namespace drbml::repair
