// Seeded inputs for the benchmark: the store every workload browses and
// the request streams the sessions replay. Everything here is a pure
// function of the seed, so one seed always yields the same store and
// the same requests; the program under test only ever sees the
// generated facts and command lines.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/loose_db.h"

namespace perfbench {

// A taxonomy probe that fails as asked and succeeds once the leaf is
// generalized 1-3 levels: (source, PLANTED, ancestor) is asserted,
// (source, PLANTED, leaf) is what the probe asks.
struct PlantedProbe {
  std::string source, leaf, ancestor;
};

// What the generator put in the store: every name a request may use
// exists in it, and every answer a request is checked against follows
// from these facts.
struct StoreInfo {
  // Graph entities that occur in at least one fact, with their degree
  // (facts naming them as source or target). The Zipf sampler leaves
  // many ids undrawn; requests never name those.
  std::vector<std::string> entities;
  std::vector<size_t> degree;
  // Forward three-hop fan: the facts a limit(3) composition walk from
  // the entity visits on its last hop. assoc costs about this much.
  std::vector<size_t> fan3;
  // Out-edges per entity (indices into `entities`), self-loops left out.
  struct Edge {
    std::string relationship;
    size_t target;
  };
  std::vector<std::vector<Edge>> out;
  // One entity each is linked to by a fact, in either direction.
  std::vector<size_t> neighbour;
  // A seeded sample of asserted graph facts, for queries.
  struct Fact {
    size_t s;
    std::string r;
    size_t t;
  };
  std::vector<Fact> facts;
  std::vector<PlantedProbe> probes;
};

// Asserts the E9-shaped Zipf graph: `draws` facts drawn over draws/10
// entities and 20 relationships with exponent 1.1. Duplicate draws
// collapse, so the store holds fewer unique facts than draws.
void BuildE9Graph(lsd::LooseDb* db, size_t draws, uint64_t seed);

// Asserts the campus domain (the Sec 5.2 golden probe), the E9 graph and
// the depth-6, fanout-4 DAG taxonomy (the same for every seed) with
// seeded probe targets planted in it. Deterministic in `seed`. Returns
// the planted probes; DescribeStore fills in the rest.
StoreInfo BuildStore(lsd::LooseDb* db, size_t draws, uint64_t seed);

// Reads the graph's entities, degrees, edges, three-hop fans and a
// seeded fact sample back from a built store, so requests name only
// what the Zipf sampler actually drew.
void DescribeStore(const lsd::LooseDb& db, uint64_t seed, StoreInfo* info);

// The verb classes the benchmark reports a median for.
enum class Verb {
  kQuery,     // point or two-atom query
  kNav,       // nav
  kProbe,     // probe (golden or taxonomy)
  kAssoc,     // assoc at the session's default limit(3)
  kDist,      // dist / near
  kFreshRead, // the point query right after the session's own commit
  kCommit,    // assert commit
  kRetract,   // retract commit
  kHypo,      // hypo retract + probe through the overlay + hypo clear
  kCount
};
const char* VerbName(Verb verb);

// One timed operation: one command line, except kHypo, which is the
// three lines of a what-if step. `golden` marks the Sec 5.2 probe. The
// expect_* fields hold what the generated facts say the answer to the
// first line must contain.
struct Request {
  Verb verb = Verb::kQuery;
  std::vector<std::string> lines;
  bool golden = false;
  // A line of the answer, as its words with the table rules dropped:
  // a result row of a query, "1 NAME" from near, a composed
  // relationship from assoc.
  std::vector<std::string> expect_line;
  // A word the answer must hold somewhere (a neighbour in nav).
  std::string expect_word;
  // Text the answer must hold (a taxonomy probe's generalized leaf).
  std::string expect_text;
  // dist: the answer is between 1 and this many hops.
  int max_distance = 0;
};

inline const char* kGoldenProbe =
    "probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)";

// Graph entities assoc, dist and near may start from: those with an
// out-edge and a three-hop fan of at most the ceiling (see
// generator.cc). Returns how many graph entities the ceiling leaves out.
size_t CompositionExcluded(const StoreInfo& info);

// What a session replays: each distinct request once, and the order of
// one pass as indices into `requests`. A timed window runs whole passes.
struct Cycle {
  std::vector<Request> requests;
  std::vector<uint32_t> order;
};

// The browse cycle: one shuffled mix of point and two-atom queries, nav,
// golden and taxonomy probes, dist/near and assoc, with the counts in
// generator.cc. Start entities are drawn so that every seed's cycle
// holds the same spread of costs: nav one per equal rank stratum of
// degree, dist/near one per stratum of three-hop fan, assoc near fixed
// three-hop fan targets.
Cycle BrowseCycle(const StoreInfo& info, uint64_t seed);

// The mixed cycle: `rounds` rounds of three write steps, with
// `reads_per_write` reads of the browse cycle (taken in its shuffled
// order) before each step: an assert commit, the retract of that same
// fact (each followed by a fresh read), and the what-if step. Written
// facts name entities of their own, so the reads' answers never change,
// and each round retracts what it asserted.
Cycle MixedCycle(const StoreInfo& info, uint64_t seed, size_t rounds,
                 size_t reads_per_write);

// The n-th unique assert of writer session `writer`: a fact between
// existing graph entities under a relationship only that writer uses,
// so every request adds a new fact and no write is a no-op.
std::string WriterAssert(const StoreInfo& info, uint64_t seed, int writer,
                         uint64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
