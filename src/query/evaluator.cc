#include "query/evaluator.h"

#include <algorithm>
#include <set>

#include "rules/matcher.h"

namespace lsd {

namespace {

// Recursive evaluation machinery. Bindings are threaded through a single
// Binding object; each node unbinds what it bound before returning.
class EvalContext {
 public:
  EvalContext(const FactSource& view, const EntityTable& entities,
              size_t universe, JoinOrder join_order, PlannerCache* planner,
              bool merge_join, const QueryBudget* budget)
      : view_(view),
        entities_(entities),
        universe_(universe),
        join_order_(join_order),
        planner_(planner),
        merge_join_(merge_join),
        budget_(budget) {}

  // Enumerates extensions of `b` satisfying `node`. `emit` returns false
  // to stop; `stopped` distinguishes early stop from exhaustion.
  Status Eval(const AstNode& node, Binding& b, const BindingVisitor& emit,
              bool& stopped) {
    switch (node.kind) {
      case NodeKind::kAtom:
        return EvalAtom(node, b, emit, stopped);
      case NodeKind::kAnd:
        return EvalAnd(node, b, emit, stopped);
      case NodeKind::kOr:
        return EvalOr(node, b, emit, stopped);
      case NodeKind::kExists:
        return EvalExists(node, b, emit, stopped);
      case NodeKind::kForall:
        return EvalForall(node, b, emit, stopped);
    }
    return Status::Internal("bad AST node kind");
  }

 private:
  Status EvalAtom(const AstNode& node, Binding& b,
                  const BindingVisitor& emit, bool& stopped) {
    std::vector<AtomSpec> specs{AtomSpec{node.atom, &view_}};
    Status status = MatchConjunction(
        std::move(specs), b, nullptr,
        [&](const Binding& bb) {
          if (!emit(bb)) {
            stopped = true;
            return false;
          }
          return true;
        },
        join_order_, planner_, merge_join_, budget_);
    return status;
  }

  Status EvalAnd(const AstNode& node, Binding& b,
                 const BindingVisitor& emit, bool& stopped) {
    // Atom children are joined by the matcher (ordered per the active
    // JoinOrder policy — by default a static cost-based plan); complex
    // children are chained afterwards, left to right, under each atom
    // match.
    std::vector<Template> atoms;
    std::vector<const AstNode*> complex;
    for (const auto& c : node.children) {
      if (c->kind == NodeKind::kAtom) {
        atoms.push_back(c->atom);
      } else {
        complex.push_back(c.get());
      }
    }

    Status status = Status::OK();
    std::function<bool(size_t, Binding&)> chain = [&](size_t i,
                                                      Binding& bb) -> bool {
      if (!status.ok() || stopped) return false;
      if (i == complex.size()) {
        if (!emit(bb)) {
          stopped = true;
          return false;
        }
        return true;
      }
      Status s = Eval(*complex[i], bb,
                      [&](const Binding&) { return chain(i + 1, bb); },
                      stopped);
      if (!s.ok()) status = s;
      return status.ok() && !stopped;
    };

    if (atoms.empty()) {
      chain(0, b);
      return status;
    }
    Status match_status = MatchConjunction(
        view_, atoms, b, nullptr,
        [&](const Binding&) { return chain(0, b); }, join_order_, planner_,
        merge_join_, budget_);
    if (!match_status.ok()) return match_status;
    return status;
  }

  Status EvalOr(const AstNode& node, Binding& b, const BindingVisitor& emit,
                bool& stopped) {
    // Safety: all branches must agree on their free variables, so a
    // satisfying tuple is well-defined.
    std::vector<VarId> expected = node.children[0]->FreeVars();
    std::sort(expected.begin(), expected.end());
    for (const auto& c : node.children) {
      std::vector<VarId> got = c->FreeVars();
      std::sort(got.begin(), got.end());
      if (got != expected) {
        return Status::InvalidArgument(
            "unsafe disjunction: branches bind different variables");
      }
    }
    std::vector<VarId> free = node.FreeVars();
    std::set<std::vector<EntityId>> seen;
    for (const auto& c : node.children) {
      Status s = Eval(*c, b,
                      [&](const Binding& bb) {
                        if (!seen.insert(bb.Project(free)).second) {
                          return true;  // already produced by a branch
                        }
                        return emit(bb);
                      },
                      stopped);
      if (!s.ok()) return s;
      if (stopped) break;
    }
    return Status::OK();
  }

  Status EvalExists(const AstNode& node, Binding& b,
                    const BindingVisitor& emit, bool& stopped) {
    const VarId qvar = node.quantified_var;
    // Shadow any outer binding of the quantified variable.
    const bool was_bound = b.IsBound(qvar);
    const EntityId old_value = was_bound ? b.Get(qvar) : kAnyEntity;
    b.Unset(qvar);

    std::vector<VarId> free = node.FreeVars();
    std::set<std::vector<EntityId>> seen;
    Status s = Eval(*node.children[0], b,
                    [&](const Binding& bb) {
                      if (!seen.insert(bb.Project(free)).second) {
                        return true;  // same witness tuple, new ?qvar
                      }
                      return emit(bb);
                    },
                    stopped);
    b.Unset(qvar);
    if (was_bound) b.Set(qvar, old_value);
    return s;
  }

  Status EvalForall(const AstNode& node, Binding& b,
                    const BindingVisitor& emit, bool& stopped) {
    const VarId qvar = node.quantified_var;
    // All other free variables must already be bound: a universal can
    // only be *checked*, not used to generate bindings.
    for (VarId v : node.FreeVars()) {
      if (!b.IsBound(v)) {
        return Status::InvalidArgument(
            "unsafe universal quantification: variable is unbound when "
            "the forall is checked; reorder the query");
      }
    }
    const bool was_bound = b.IsBound(qvar);
    const EntityId old_value = was_bound ? b.Get(qvar) : kAnyEntity;

    bool holds_for_all = true;
    const size_t n = universe_;
    BudgetTicker ticker(budget_);
    for (EntityId e = 0; e < n && holds_for_all; ++e) {
      if (!ticker.TickOk()) {
        b.Unset(qvar);
        if (was_bound) b.Set(qvar, old_value);
        return ticker.trip();
      }
      if (entities_.Kind(e) != EntityKind::kRegular) continue;
      b.Unset(qvar);
      b.Set(qvar, e);
      bool found = false;
      bool inner_stopped = false;
      Status s = Eval(*node.children[0], b,
                      [&](const Binding&) {
                        found = true;
                        return false;  // one witness suffices
                      },
                      inner_stopped);
      if (!s.ok()) {
        b.Unset(qvar);
        if (was_bound) b.Set(qvar, old_value);
        return s;
      }
      if (!found) holds_for_all = false;
    }
    b.Unset(qvar);
    if (was_bound) b.Set(qvar, old_value);
    if (holds_for_all) {
      if (!emit(b)) stopped = true;
    }
    return Status::OK();
  }

  const FactSource& view_;
  const EntityTable& entities_;
  size_t universe_;  // the ∀ domain: regular entities below this id
  JoinOrder join_order_;
  PlannerCache* planner_;
  bool merge_join_;
  const QueryBudget* budget_;
};

}  // namespace

StatusOr<ResultSet> Evaluator::Evaluate(const Query& query,
                                        const EvalOptions& options) const {
  if (query.root() == nullptr) {
    return Status::InvalidArgument("empty query");
  }
  ResultSet result;
  std::vector<VarId> free = query.FreeVars();
  result.column_vars = free;
  for (VarId v : free) result.columns.push_back(query.var_names()[v]);
  result.is_proposition = free.empty();

  std::set<std::vector<EntityId>> rows;
  Binding binding(query.num_vars());
  bool stopped = false;
  EvalContext ctx(*view_, *entities_, universe_, options.join_order,
                  options.planner, options.merge_join, options.budget);
  Status status = ctx.Eval(
      *query.root(), binding,
      [&](const Binding& b) {
        if (result.is_proposition) {
          result.truth = true;
          return false;  // one witness settles a proposition
        }
        rows.insert(b.Project(free));
        if (options.first_row_only) return false;
        if (rows.size() >= options.max_rows) {
          result.truncated = true;
          return false;
        }
        return true;
      },
      stopped);
  if (!status.ok()) return status;
  result.rows.assign(rows.begin(), rows.end());
  return result;
}

}  // namespace lsd
