// Differential property test: the backtracking evaluator against a
// brute-force reference that enumerates every assignment of the query's
// variables over the interned universe and checks the formula by
// definition (Sec 2.7). Random small databases, random formulas.
#include <set>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "query/evaluator.h"
#include "util/random.h"

namespace lsd {
namespace {

// Truth of `node` under a complete assignment, by the textbook
// definition. Quantifiers range over regular entities, mirroring the
// production evaluator's active-domain semantics.
bool Truth(const AstNode& node, const FactSource& view,
           const EntityTable& entities, std::vector<EntityId>& assign) {
  switch (node.kind) {
    case NodeKind::kAtom: {
      auto resolve = [&](const Term& t) {
        return t.is_entity() ? t.entity() : assign[t.var()];
      };
      return view.Contains(Fact(resolve(node.atom.source),
                                resolve(node.atom.relationship),
                                resolve(node.atom.target)));
    }
    case NodeKind::kAnd:
      for (const auto& c : node.children) {
        if (!Truth(*c, view, entities, assign)) return false;
      }
      return true;
    case NodeKind::kOr:
      for (const auto& c : node.children) {
        if (Truth(*c, view, entities, assign)) return true;
      }
      return false;
    case NodeKind::kExists: {
      EntityId saved = assign[node.quantified_var];
      for (EntityId e = 0; e < entities.size(); ++e) {
        // The virtual Δ/∇ facts (e.g. (NONE, r, t) by rewrite) hold
        // under Contains but are deliberately not enumerable — mirror
        // that by excluding ANY/NONE as witnesses (see closure_view.h).
        if (e == kEntTop || e == kEntBottom) continue;
        assign[node.quantified_var] = e;
        if (Truth(*node.children[0], view, entities, assign)) {
          assign[node.quantified_var] = saved;
          return true;
        }
      }
      assign[node.quantified_var] = saved;
      return false;
    }
    case NodeKind::kForall: {
      EntityId saved = assign[node.quantified_var];
      for (EntityId e = 0; e < entities.size(); ++e) {
        if (entities.Kind(e) != EntityKind::kRegular) continue;
        assign[node.quantified_var] = e;
        if (!Truth(*node.children[0], view, entities, assign)) {
          assign[node.quantified_var] = saved;
          return false;
        }
      }
      assign[node.quantified_var] = saved;
      return true;
    }
  }
  return false;
}

// Enumerates every assignment of the free variables over the universe
// and collects the satisfying tuples.
std::set<std::vector<EntityId>> BruteForce(const Query& q,
                                           const FactSource& view,
                                           const EntityTable& entities) {
  std::vector<VarId> free = q.FreeVars();
  std::vector<EntityId> assign(q.num_vars(), 0);
  std::set<std::vector<EntityId>> out;
  std::function<void(size_t)> rec = [&](size_t i) {
    if (i == free.size()) {
      if (Truth(*q.root(), view, entities, assign)) {
        std::vector<EntityId> row;
        for (VarId v : free) row.push_back(assign[v]);
        out.insert(row);
      }
      return;
    }
    for (EntityId e = 0; e < entities.size(); ++e) {
      if (e == kEntTop || e == kEntBottom) continue;  // see kExists note
      assign[free[i]] = e;
      rec(i + 1);
    }
  };
  rec(0);
  return out;
}

// Random formula generator: atoms over a small entity pool, composed
// with and/or/exists/forall. Relationship positions are constants (see
// evaluator.h: virtual relations are suppressed for unbound
// relationships, which a Contains-based reference cannot mirror).
class FormulaGen {
 public:
  FormulaGen(Rng* rng, const std::vector<EntityId>& pool,
             const std::vector<EntityId>& rels)
      : rng_(rng), pool_(pool), rels_(rels) {
    for (int i = 0; i < 3; ++i) {
      var_names_.push_back(std::string(1, static_cast<char>('A' + i)));
    }
  }

  Query Generate() {
    auto root = Node(2);
    return Query(std::move(root), var_names_);
  }

 private:
  Term RandomEndpoint() {
    if (rng_->Bernoulli(0.6)) {
      return Term::Var(static_cast<VarId>(rng_->Uniform(3)));
    }
    return Term::Entity(pool_[rng_->Uniform(pool_.size())]);
  }

  std::unique_ptr<AstNode> Atom() {
    return AstNode::Atom(
        Template(RandomEndpoint(),
                 Term::Entity(rels_[rng_->Uniform(rels_.size())]),
                 RandomEndpoint()));
  }

  std::unique_ptr<AstNode> Node(int depth) {
    if (depth == 0 || rng_->Bernoulli(0.4)) return Atom();
    switch (rng_->Uniform(4)) {
      case 0: {
        std::vector<std::unique_ptr<AstNode>> kids;
        kids.push_back(Node(depth - 1));
        kids.push_back(Node(depth - 1));
        return AstNode::And(std::move(kids));
      }
      case 1: {
        // Safe disjunction: both branches must share free variables, so
        // disjoin two atoms over the same variable pair.
        VarId a = static_cast<VarId>(rng_->Uniform(3));
        VarId b = static_cast<VarId>(rng_->Uniform(3));
        std::vector<std::unique_ptr<AstNode>> kids;
        for (int i = 0; i < 2; ++i) {
          kids.push_back(AstNode::Atom(Template(
              Term::Var(a),
              Term::Entity(rels_[rng_->Uniform(rels_.size())]),
              Term::Var(b))));
        }
        return AstNode::Or(std::move(kids));
      }
      case 2:
        return AstNode::Exists(static_cast<VarId>(rng_->Uniform(3)),
                               Node(depth - 1));
      default:
        return AstNode::Forall(static_cast<VarId>(rng_->Uniform(3)),
                               Node(depth - 1));
    }
  }

  Rng* rng_;
  std::vector<EntityId> pool_;
  std::vector<EntityId> rels_;
  std::vector<std::string> var_names_;
};

class EvaluatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorPropertyTest, MatchesBruteForceReference) {
  Rng rng(GetParam());
  LooseDb db;

  // A small random world: entities E0..E7, relations R0..R2, a couple
  // of ISA and IN links so the standard rules derive things.
  std::vector<EntityId> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(db.entities().Intern("E" + std::to_string(i)));
  }
  // Facts may use ISA/IN so the standard rules derive things; generated
  // query atoms avoid ISA, whose virtual axiom families ((E, ISA, E),
  // (E, ISA, ANY), ...) the Contains-based reference cannot mirror.
  std::vector<EntityId> assert_rels;
  std::vector<EntityId> query_rels;
  for (int i = 0; i < 3; ++i) {
    EntityId r = db.entities().Intern("R" + std::to_string(i));
    assert_rels.push_back(r);
    query_rels.push_back(r);
  }
  assert_rels.push_back(kEntIsa);
  assert_rels.push_back(kEntIn);
  query_rels.push_back(kEntIn);
  for (int i = 0; i < 14; ++i) {
    db.Assert(Fact(pool[rng.Uniform(pool.size())],
                   assert_rels[rng.Uniform(assert_rels.size())],
                   pool[rng.Uniform(pool.size())]));
  }

  auto view = db.View();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Evaluator evaluator(*view, &db.entities(), db.store().universe());

  FormulaGen gen(&rng, pool, query_rels);
  int compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Query q = gen.Generate();
    auto got = evaluator.Evaluate(q);
    if (!got.ok()) continue;  // unsafe formulas are allowed to error
    std::set<std::vector<EntityId>> expected =
        BruteForce(q, **view, db.entities());
    std::set<std::vector<EntityId>> actual;
    if (got->is_proposition) {
      if (got->truth) actual.insert(std::vector<EntityId>{});
      if (!expected.empty()) {
        expected = {std::vector<EntityId>{}};
      }
    } else {
      actual.insert(got->rows.begin(), got->rows.end());
    }
    ++compared;
    EXPECT_EQ(actual, expected)
        << "formula: " << q.DebugString(db.entities()) << " seed "
        << GetParam() << " trial " << trial;
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

// The merge-join execution path is an optimization, not a semantics
// change: every query must return the same rows with it on and off,
// under every join-order policy.
class MergeJoinAblationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeJoinAblationTest, SameRowsWithAndWithoutMergeJoin) {
  Rng rng(GetParam() + 1000);
  LooseDb db;
  std::vector<EntityId> pool;
  for (int i = 0; i < 10; ++i) {
    pool.push_back(db.entities().Intern("E" + std::to_string(i)));
  }
  std::vector<EntityId> rels;
  for (int i = 0; i < 3; ++i) {
    rels.push_back(db.entities().Intern("R" + std::to_string(i)));
  }
  for (int i = 0; i < 30; ++i) {
    db.Assert(Fact(pool[rng.Uniform(pool.size())],
                   rels[rng.Uniform(rels.size())],
                   pool[rng.Uniform(pool.size())]));
  }

  FormulaGen gen(&rng, pool, rels);
  int compared = 0;
  for (int trial = 0; trial < 15; ++trial) {
    Query q = gen.Generate();
    for (JoinOrder order : {JoinOrder::kBoundCount, JoinOrder::kEstimatedCost,
                            JoinOrder::kFixed}) {
      EvalOptions with, without;
      with.join_order = without.join_order = order;
      with.merge_join = true;
      without.merge_join = false;
      auto a = db.Run(q, with);
      auto b = db.Run(q, without);
      ASSERT_EQ(a.ok(), b.ok())
          << "formula: " << q.DebugString(db.entities());
      if (!a.ok()) continue;
      ++compared;
      EXPECT_EQ(a->rows, b->rows)
          << "formula: " << q.DebugString(db.entities()) << " seed "
          << GetParam() << " order " << static_cast<int>(order);
      EXPECT_EQ(a->truth, b->truth);
    }
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeJoinAblationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace lsd
