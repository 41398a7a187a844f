// Differential property test for the query planner: every JoinOrder
// policy must produce the same results on the same query — the plan
// changes performance, never semantics — and the same retraction menu
// when probing. Random
// small worlds, random conjunctive queries including the hostile cases
// (comparators, membership, literal ANY/NONE constants).
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "query/evaluator.h"
#include "util/random.h"

namespace lsd {
namespace {

constexpr JoinOrder kAllOrders[] = {JoinOrder::kEstimatedCost,
                                    JoinOrder::kBoundCount,
                                    JoinOrder::kFixed};

const char* OrderName(JoinOrder o) {
  switch (o) {
    case JoinOrder::kEstimatedCost:
      return "kEstimatedCost";
    case JoinOrder::kBoundCount:
      return "kBoundCount";
    case JoinOrder::kFixed:
      return "kFixed";
  }
  return "?";
}

// Conjunctions of 1-4 atoms over a small pool, deliberately including
// what the planner has to be careful about: comparator atoms (safety
// deferral), membership, and literal ANY/NONE constants (rewrite
// scans). Relationship positions are constants, and ISA atoms are
// excluded: virtual relations are suppressed for unbound relationships
// and ISA axioms bind variables to ANY/NONE (see evaluator.h), so
// results for those query classes legitimately depend on conjunct
// order — no ordering policy can agree on them.
class ConjunctionGen {
 public:
  ConjunctionGen(Rng* rng, std::vector<EntityId> pool,
                 std::vector<EntityId> rels)
      : rng_(rng), pool_(std::move(pool)), rels_(std::move(rels)) {
    for (int i = 0; i < 4; ++i) {
      var_names_.push_back(std::string(1, static_cast<char>('A' + i)));
    }
  }

  Query Generate() {
    const size_t n = 1 + rng_->Uniform(4);
    std::vector<std::unique_ptr<AstNode>> atoms;
    for (size_t i = 0; i < n; ++i) atoms.push_back(Atom());
    auto root = n == 1 ? std::move(atoms[0]) : AstNode::And(std::move(atoms));
    return Query(std::move(root), var_names_);
  }

 private:
  Term Endpoint() {
    const uint32_t pick = rng_->Uniform(10);
    if (pick < 5) return Term::Var(static_cast<VarId>(rng_->Uniform(4)));
    if (pick == 5) return Term::Entity(kEntTop);
    if (pick == 6) return Term::Entity(kEntBottom);
    return Term::Entity(pool_[rng_->Uniform(pool_.size())]);
  }

  Term Relationship() {
    return Term::Entity(rels_[rng_->Uniform(rels_.size())]);
  }

  std::unique_ptr<AstNode> Atom() {
    return AstNode::Atom(Template(Endpoint(), Relationship(), Endpoint()));
  }

  Rng* rng_;
  std::vector<EntityId> pool_;
  std::vector<EntityId> rels_;
  std::vector<std::string> var_names_;
};

// A random world with an ISA hierarchy (so probing has somewhere to go),
// numeric entities (so comparators hold sometimes), and plain relations.
void BuildWorld(Rng* rng, LooseDb* db, std::vector<EntityId>* pool,
                std::vector<EntityId>* rels) {
  for (int i = 0; i < 8; ++i) {
    pool->push_back(db->entities().Intern("E" + std::to_string(i)));
  }
  for (int v : {3, 7, 25}) {
    pool->push_back(db->entities().Intern(std::to_string(v)));
  }
  std::vector<EntityId> assert_rels;
  for (int i = 0; i < 3; ++i) {
    EntityId r = db->entities().Intern("R" + std::to_string(i));
    assert_rels.push_back(r);
    rels->push_back(r);
  }
  // ISA facts shape the lattice (probing walks it) but ISA atoms are
  // never generated as query conjuncts; see the ConjunctionGen note.
  assert_rels.push_back(kEntIsa);
  assert_rels.push_back(kEntIn);
  rels->push_back(kEntIn);
  rels->push_back(kEntLess);
  rels->push_back(kEntEq);
  // A small chain so the generalization lattice is non-trivial.
  db->Assert(Fact((*pool)[0], kEntIsa, (*pool)[1]));
  db->Assert(Fact((*pool)[1], kEntIsa, (*pool)[2]));
  for (int i = 0; i < 16; ++i) {
    db->Assert(Fact((*pool)[rng->Uniform(pool->size())],
                    assert_rels[rng->Uniform(assert_rels.size())],
                    (*pool)[rng->Uniform(pool->size())]));
  }
}

class PlannerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// All ordering policies — and the planner with a warm plan cache —
// return identical ResultSets, and fail (unsafe conjunction) on exactly
// the same queries.
TEST_P(PlannerPropertyTest, AllPoliciesAgree) {
  Rng rng(GetParam());
  LooseDb db;
  std::vector<EntityId> pool;
  std::vector<EntityId> rels;
  BuildWorld(&rng, &db, &pool, &rels);
  auto view = db.View();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  Evaluator evaluator(*view, &db.entities(), db.store().universe());

  PlannerCache cache;
  ConjunctionGen gen(&rng, pool, rels);
  for (int trial = 0; trial < 20; ++trial) {
    Query q = gen.Generate();
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(trial) + ": " +
                 q.DebugString(db.entities()));

    std::optional<StatusOr<ResultSet>> reference;
    for (JoinOrder order : kAllOrders) {
      for (PlannerCache* planner :
           {static_cast<PlannerCache*>(nullptr), &cache}) {
        if (planner != nullptr && order != JoinOrder::kEstimatedCost) {
          continue;  // other policies ignore the planner
        }
        EvalOptions options;
        options.join_order = order;
        options.planner = planner;
        auto got = evaluator.Evaluate(q, options);
        if (!reference.has_value()) {
          reference = std::move(got);
          continue;
        }
        ASSERT_EQ(got.ok(), reference->ok())
            << OrderName(order) << " disagrees on safety; reference: "
            << (reference->ok() ? "ok" : reference->status().ToString())
            << " got: " << (got.ok() ? "ok" : got.status().ToString());
        if (!got.ok()) continue;
        EXPECT_EQ(got->rows, (*reference)->rows) << OrderName(order);
        EXPECT_EQ(got->is_proposition, (*reference)->is_proposition);
        EXPECT_EQ(got->truth, (*reference)->truth) << OrderName(order);
        EXPECT_EQ(got->truncated, (*reference)->truncated)
            << OrderName(order);
      }
    }
    // Running the same shape twice through the cache must hit it.
    ASSERT_GT(cache.plan_count(), 0u);
  }
}

// A probe's retraction menu — the successes, their substitution paths,
// their result rows, and the search counters — is identical across
// ordering policies.
TEST_P(PlannerPropertyTest, ProbeMenuInvariantAcrossPoliciesAndThreads) {
  Rng rng(GetParam());
  LooseDb db;
  std::vector<EntityId> pool;
  std::vector<EntityId> rels;
  BuildWorld(&rng, &db, &pool, &rels);

  ConjunctionGen gen(&rng, pool, rels);
  int probed = 0;
  for (int trial = 0; trial < 6 && probed < 3; ++trial) {
    Query q = gen.Generate();
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(trial) + ": " +
                 q.DebugString(db.entities()));

    ProbeOptions base;
    base.max_waves = 3;
    base.max_queries = 400;

    std::optional<ProbeResult> reference;
    auto check = [&](const ProbeOptions& options, const std::string& label) {
      auto got = db.Probe(q, options);
      if (!reference.has_value()) {
        if (!got.ok()) return false;  // unsafe original: skip this query
        reference = std::move(*got);
        return true;
      }
      EXPECT_TRUE(got.ok()) << label;
      if (!got.ok()) return true;
      EXPECT_EQ(got->original_succeeded, reference->original_succeeded)
          << label;
      EXPECT_EQ(got->waves, reference->waves) << label;
      EXPECT_EQ(got->queries_attempted, reference->queries_attempted)
          << label;
      EXPECT_EQ(got->exhausted, reference->exhausted) << label;
      EXPECT_EQ(got->Menu(db.entities()), reference->Menu(db.entities()))
          << label;
      EXPECT_EQ(got->successes.size(), reference->successes.size()) << label;
      if (got->successes.size() != reference->successes.size()) return true;
      for (size_t i = 0; i < got->successes.size(); ++i) {
        EXPECT_EQ(got->successes[i].result.rows,
                  reference->successes[i].result.rows)
            << label << " success " << i;
      }
      return true;
    };

    ProbeOptions options = base;
    bool usable = true;
    for (JoinOrder order : kAllOrders) {
      options.join_order = order;
      if (!check(options, std::string("order=") + OrderName(order))) {
        usable = false;
        break;
      }
    }
    if (!usable) continue;
    ++probed;
  }
  EXPECT_GT(probed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

}  // namespace
}  // namespace lsd
