// Inference by composition (Sec 3.7): when the target of one fact is the
// source of another, their composition is a fact relating the two ends
// via a composed relationship that spells out the path, e.g.
//
//   (TOM, ENROLLED-IN, CS100) ∘ (CS100, TAUGHT-BY, HARRY)
//     = (TOM, ENROLLED-IN.CS100.TAUGHT-BY, HARRY)
//
// The engine returns the chains of facts themselves. A composed
// relationship is never interned: ComposedName spells it from its chain
// when an answer is rendered, so browsing compositions writes nothing
// into the entity table an epoch shares with its readers.
//
// The paper avoids cyclic compositions by requiring the chain's two ends
// to differ. That alone does not bound chains on graphs with cycles of
// length ≥ 3 (A→B→C→A→B… has distinct ends at every prefix), so we
// strengthen it to the natural condition the paper's "strolling" image
// suggests: composition chains are simple paths (no repeated entity).
// DESIGN.md documents this deviation.
//
// The limit(n) operator (Sec 6.1) bounds the number of facts in a chain:
// n = 1 disables composition altogether (a chain of one fact is just the
// fact), n = 2 allows single compositions whose results cannot compose
// further, and so on.
#ifndef LSD_RULES_COMPOSITION_H_
#define LSD_RULES_COMPOSITION_H_

#include <string>
#include <vector>

#include "store/entity_table.h"
#include "store/fact_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace lsd {

// The facts of one composition, in order: each fact's target is the
// next one's source. It composes (chain.front().source, its
// ComposedName, chain.back().target).
using FactChain = std::vector<Fact>;

// "ENROLLED-IN.CS100.TAUGHT-BY" for a chain of facts; a one-fact chain
// spells its own relationship.
std::string ComposedName(const EntityTable& entities, const FactChain& chain);

struct CompositionOptions {
  // Maximum number of facts per chain (the limit(n) operator). Chains of
  // length 1 are ordinary facts and never emitted here.
  int limit = 3;

  // Composing along the built-in meta relationships (ISA, IN, SYN, INV,
  // CONTRA) produces technically valid but semantically empty paths like
  // X.ISA.Y.ISA — excluded by default.
  bool include_meta_relationships = false;

  // Safety valve: PathsBetween and MaterializeAll stop with OutOfRange
  // once they would return more chains than this.
  size_t max_results = 1'000'000;

  // Optional cooperative cancellation / deadline token. Borrowed; ticked
  // per scanned fact during the simple-path DFS; a tripped budget aborts
  // enumeration with its typed error.
  const QueryBudget* budget = nullptr;
};

class CompositionEngine {
 public:
  // `entities` is only read, to tell stored composed relationships
  // (kComposed, e.g. from an older snapshot) from elementary ones.
  explicit CompositionEngine(const EntityTable* entities)
      : entities_(entities) {}

  // All simple-path compositions from `source` to `target` over the
  // facts of `view`, with 2..limit links, in depth-first order. The view
  // should be the closure so compositions see inferred facts too. Errors
  // with OutOfRange if max_results is exceeded.
  StatusOr<std::vector<FactChain>> PathsBetween(
      const FactSource& view, EntityId source, EntityId target,
      const CompositionOptions& options) const;

  // Every composition derivable within the options' bounds. Errors with
  // OutOfRange if max_results is exceeded.
  StatusOr<std::vector<FactChain>> MaterializeAll(
      const FactSource& view, const CompositionOptions& options) const;

 private:
  bool LinkAllowed(const Fact& f, const CompositionOptions& options) const;

  const EntityTable* entities_;
};

}  // namespace lsd

#endif  // LSD_RULES_COMPOSITION_H_
