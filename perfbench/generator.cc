#include "generator.h"

#include <algorithm>
#include <map>

#include "util/random.h"
#include "workload/random_graph.h"
#include "workload/university_domain.h"

namespace perfbench {

namespace {

constexpr size_t kRelationships = 20;
constexpr int kTaxonomyDepth = 6;
constexpr int kTaxonomyFanout = 4;
constexpr double kTaxonomyExtraParent = 0.5;
constexpr uint64_t kTaxonomySeed = 7;
constexpr size_t kPlantedProbes = 48;
constexpr size_t kSampledFacts = 4096;

// Requests per browse cycle: distinct requests, and for the cheap ones
// how often one pass runs each. No trace of real browsing sessions
// exists for this system, so the counts target time instead: each of
// the five read classes (query, nav, probe, assoc, dist/near) takes
// about a fifth of the session's time on the 100k-draw store, so a
// slowdown of any one class moves ops_per_s by the same share. The
// counts were set from per-verb means measured on a 4-vCPU Xeon KVM
// guest; every run prints the shares it measured.
constexpr size_t kPointQueries = 650;
constexpr size_t kJoinQueries = 325;
constexpr size_t kNavs = 1952;
constexpr size_t kNavRepeats = 8;
constexpr size_t kGoldenRepeats = 2240;
constexpr size_t kTaxonomyRepeats = 140;  // of each planted probe
constexpr size_t kDists = 215;
constexpr size_t kNears = 215;
constexpr size_t kAssocs = 8;

// assoc, dist and near start only at entities whose three-hop fan is at
// most this: a limit(3) walk from one of them costs up to about 0.1 s
// on the host above, the usual limit for an answer to feel immediate.
// Above it sit the entities that reach a hub within two hops, whose
// walks run from 0.1 s to tens of seconds (a hub-pair assoc ran 19.9 s,
// a governance defect NOTES.md records); one of them would outweigh
// the rest of its class. Every run prints how many entities the
// ceiling leaves out.
constexpr size_t kMaxFan3 = 1'000'000;

// Paths between each assoc's source and target. assoc interns every
// path it finds as a composed name into the shared entity table, and
// every later clone copies those names (read interning); a fixed count
// makes every seed's cycle mint about 8 × 250 names. With 1,000 the
// commits of mixed, which copy them, varied twice as much run to run.
constexpr size_t kAssocPaths = 250;

// Taxonomy node names encode their primary path ("T0.2.1"); the parent
// on that path is the name minus its last component.
std::string PrimaryAncestor(std::string name, int levels) {
  for (int i = 0; i < levels; ++i) name.resize(name.rfind('.'));
  return name;
}

bool IsGraphName(const std::string& name, char prefix) {
  if (name.size() < 2 || name[0] != prefix) return false;
  return std::all_of(name.begin() + 1, name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

bool Composable(const StoreInfo& info, size_t i) {
  return !info.out[i].empty() && info.fan3[i] <= kMaxFan3;
}

}  // namespace

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kQuery: return "query";
    case Verb::kNav: return "nav";
    case Verb::kProbe: return "probe";
    case Verb::kAssoc: return "assoc";
    case Verb::kDist: return "dist";
    case Verb::kFreshRead: return "fresh_read";
    case Verb::kCommit: return "commit";
    case Verb::kRetract: return "retract";
    case Verb::kHypo: return "hypo";
    case Verb::kCount: break;
  }
  return "?";
}

void BuildE9Graph(lsd::LooseDb* db, size_t draws, uint64_t seed) {
  lsd::workload::GraphOptions graph;
  graph.num_entities = std::max<size_t>(draws / 10, 1);
  graph.num_relationships = kRelationships;
  graph.num_facts = draws;
  graph.zipf_exponent = 1.1;
  graph.seed = seed;
  lsd::workload::BuildZipfGraph(db, graph);
}

StoreInfo BuildStore(lsd::LooseDb* db, size_t draws, uint64_t seed) {
  StoreInfo info;
  lsd::workload::BuildCampusDomain(db);
  BuildE9Graph(db, draws, seed);

  lsd::workload::TaxonomyOptions tax_options;
  tax_options.depth = kTaxonomyDepth;
  tax_options.fanout = kTaxonomyFanout;
  tax_options.extra_parent_prob = kTaxonomyExtraParent;
  // One fixed taxonomy for every seed: its extra parents change the
  // closure by several percent from seed to seed, which would move
  // every commit's cost with the seed instead of with the program.
  tax_options.seed = kTaxonomySeed;
  lsd::workload::Taxonomy tax =
      lsd::workload::BuildRandomTaxonomy(db, tax_options);
  lsd::Rng rng(seed * 17 + 3);
  const std::vector<std::string>& leaves = tax.levels.back();
  for (size_t i = 0; i < kPlantedProbes; ++i) {
    PlantedProbe probe;
    probe.source = "PSRC" + std::to_string(i);
    probe.leaf = leaves[rng.Uniform(leaves.size())];
    probe.ancestor = PrimaryAncestor(probe.leaf, 1 + static_cast<int>(i % 3));
    db->Assert(probe.source, "PLANTED", probe.ancestor);
    info.probes.push_back(std::move(probe));
  }
  return info;
}

void DescribeStore(const lsd::LooseDb& db, uint64_t seed, StoreInfo* info) {
  const lsd::EntityTable& names = db.entities();
  std::map<lsd::EntityId, size_t> index;
  std::vector<lsd::Fact> graph_facts;
  db.store().base().ForEach(lsd::Pattern(), [&](const lsd::Fact& f) {
    if (IsGraphName(names.Name(f.relationship), 'R') &&
        IsGraphName(names.Name(f.source), 'E') &&
        IsGraphName(names.Name(f.target), 'E')) {
      index.emplace(f.source, 0);
      index.emplace(f.target, 0);
      graph_facts.push_back(f);
    }
    return true;
  });
  for (auto& [id, i] : index) {
    i = info->entities.size();
    info->entities.push_back(names.Name(id));
  }
  const size_t n = info->entities.size();
  info->degree.assign(n, 0);
  info->out.assign(n, {});
  info->neighbour.assign(n, n);
  for (const lsd::Fact& f : graph_facts) {
    const size_t s = index[f.source], t = index[f.target];
    ++info->degree[s];
    ++info->degree[t];
    if (info->neighbour[s] == n) info->neighbour[s] = t;
    if (info->neighbour[t] == n) info->neighbour[t] = s;
    if (s != t) info->out[s].push_back({names.Name(f.relationship), t});
  }
  // fan(x) sums the out-degrees of x's out-neighbours; fan3(s) sums
  // fan over s's out-neighbours: the facts a limit(3) composition walk
  // from s visits on its third hop.
  std::vector<size_t> fan(n, 0);
  info->fan3.assign(n, 0);
  for (size_t s = 0; s < n; ++s) {
    for (const StoreInfo::Edge& e : info->out[s]) fan[s] += info->out[e.target].size();
  }
  for (size_t s = 0; s < n; ++s) {
    for (const StoreInfo::Edge& e : info->out[s]) info->fan3[s] += fan[e.target];
  }
  lsd::Rng rng(seed * 13 + 5);
  for (size_t i = 0; i < kSampledFacts && !graph_facts.empty(); ++i) {
    const lsd::Fact& f = graph_facts[rng.Uniform(graph_facts.size())];
    info->facts.push_back(
        {index[f.source], names.Name(f.relationship), index[f.target]});
  }
}

size_t CompositionExcluded(const StoreInfo& info) {
  size_t excluded = 0;
  for (size_t i = 0; i < info.entities.size(); ++i) {
    if (!info.out[i].empty() && info.fan3[i] > kMaxFan3) ++excluded;
  }
  return excluded;
}

namespace {

Request Make(Verb verb, std::string line, bool golden = false) {
  Request r;
  r.verb = verb;
  r.lines.push_back(std::move(line));
  r.golden = golden;
  return r;
}

std::string Atom(const std::string& s, const std::string& r,
                 const std::string& t) {
  return "(" + s + ", " + r + ", " + t + ")";
}

// Entity indices sorted by a cost, to draw from in a way that gives
// every seed the same spread of costs.
class ByCost {
 public:
  ByCost(std::vector<size_t> pool, const std::vector<size_t>& cost)
      : pool_(std::move(pool)), cost_(cost) {
    std::stable_sort(pool_.begin(), pool_.end(),
                     [&](size_t a, size_t b) { return cost[a] < cost[b]; });
  }
  // One uniformly from the k-th of n equal rank strata.
  size_t Stratum(lsd::Rng& rng, size_t k, size_t n) const {
    const size_t lo = pool_.size() * k / n;
    const size_t hi = std::max(lo + 1, pool_.size() * (k + 1) / n);
    return pool_[lo + rng.Uniform(hi - lo)];
  }
  // One of the four entities whose cost is nearest `target`.
  size_t Near(lsd::Rng& rng, size_t target) const {
    const size_t at =
        std::lower_bound(pool_.begin(), pool_.end(), target,
                         [&](size_t i, size_t t) { return cost_[i] < t; }) -
        pool_.begin();
    const size_t lo = std::min(at < 2 ? 0 : at - 2,
                               pool_.size() < 4 ? 0 : pool_.size() - 4);
    const size_t hi = std::min(pool_.size(), lo + 4);
    return pool_[lo + rng.Uniform(hi - lo)];
  }

 private:
  std::vector<size_t> pool_;
  const std::vector<size_t>& cost_;
};

// A simple path of up to `hops` out-edges from `from`, each step
// uniform among the edges that do not revisit the path.
std::vector<const StoreInfo::Edge*> Walk(const StoreInfo& info, size_t from,
                                         int hops, lsd::Rng& rng) {
  std::vector<const StoreInfo::Edge*> path;
  std::vector<size_t> visited{from};
  size_t at = from;
  while (static_cast<int>(path.size()) < hops) {
    std::vector<const StoreInfo::Edge*> next;
    for (const StoreInfo::Edge& e : info.out[at]) {
      if (std::find(visited.begin(), visited.end(), e.target) ==
          visited.end()) {
        next.push_back(&e);
      }
    }
    if (next.empty()) break;
    const StoreInfo::Edge* step = next[rng.Uniform(next.size())];
    path.push_back(step);
    visited.push_back(step->target);
    at = step->target;
  }
  return path;
}

// A path of 2-3 facts from `s` to the entity that the most nearly
// kAssocPaths such paths reach (ties to the lowest index): the paths a
// limit(3) assoc enumerates between the two, each of which it interns
// as a composed name. Falls back to one fact when s has no longer path.
std::vector<const StoreInfo::Edge*> PathTo(const StoreInfo& info, size_t s) {
  struct Reach {
    size_t count = 0;
    std::vector<const StoreInfo::Edge*> first;
  };
  std::map<size_t, Reach> reach;
  auto note = [&](size_t at, std::vector<const StoreInfo::Edge*> path) {
    Reach& r = reach[at];
    if (r.count++ == 0) r.first = std::move(path);
  };
  for (const StoreInfo::Edge& e1 : info.out[s]) {
    for (const StoreInfo::Edge& e2 : info.out[e1.target]) {
      if (e2.target == s) continue;
      note(e2.target, {&e1, &e2});
      for (const StoreInfo::Edge& e3 : info.out[e2.target]) {
        if (e3.target == s || e3.target == e1.target) continue;
        note(e3.target, {&e1, &e2, &e3});
      }
    }
  }
  const Reach* best = nullptr;
  auto distance = [](size_t count) {
    return count > kAssocPaths ? count - kAssocPaths : kAssocPaths - count;
  };
  for (const auto& [at, r] : reach) {
    if (best == nullptr || distance(r.count) < distance(best->count)) best = &r;
  }
  if (best == nullptr) return {&info.out[s].front()};
  return best->first;
}

}  // namespace

Cycle BrowseCycle(const StoreInfo& info, uint64_t seed) {
  lsd::Rng rng(seed * 7 + 1);
  const std::vector<std::string>& name = info.entities;
  std::vector<size_t> all(name.size()), composable;
  for (size_t i = 0; i < name.size(); ++i) {
    all[i] = i;
    if (Composable(info, i)) composable.push_back(i);
  }
  const ByCost by_degree(all, info.degree);
  const ByCost by_fan3(composable, info.fan3);
  auto fact = [&]() -> const StoreInfo::Fact& {
    return info.facts[rng.Uniform(info.facts.size())];
  };

  Cycle cycle;
  std::vector<Request>& requests = cycle.requests;
  auto add = [&](Request r, size_t repeats) {
    for (size_t i = 0; i < repeats; ++i) {
      cycle.order.push_back(static_cast<uint32_t>(requests.size()));
    }
    requests.push_back(std::move(r));
  };
  for (size_t i = 0; i < kPointQueries; ++i) {
    const StoreInfo::Fact& f = fact();
    Request r = Make(Verb::kQuery,
                     "query " + (i % 2 == 0 ? Atom(name[f.s], f.r, "?X")
                                            : Atom("?X", f.r, name[f.t])));
    r.expect_line = {name[i % 2 == 0 ? f.t : f.s]};
    add(std::move(r), 1);
  }
  for (size_t i = 0; i < kJoinQueries; ++i) {
    // (s, r, t) then (t, r2, u): the answer holds the row t, u.
    const StoreInfo::Fact* f = &fact();
    while (info.out[f->t].empty()) f = &fact();
    const StoreInfo::Edge& e = info.out[f->t][rng.Uniform(info.out[f->t].size())];
    Request r = Make(Verb::kQuery, "query " + Atom(name[f->s], f->r, "?X") +
                                       " and " +
                                       Atom("?X", e.relationship, "?Y"));
    r.expect_line = {name[f->t], name[e.target]};
    add(std::move(r), 1);
  }
  for (size_t i = 0; i < kNavs; ++i) {
    const size_t e = by_degree.Stratum(rng, i, kNavs);
    Request r = Make(Verb::kNav, "nav " + name[e]);
    r.expect_word = name[info.neighbour[e]];
    add(std::move(r), kNavRepeats);
  }
  add(Make(Verb::kProbe, kGoldenProbe, /*golden=*/true), kGoldenRepeats);
  for (const PlantedProbe& p : info.probes) {
    Request r =
        Make(Verb::kProbe, "probe " + Atom(p.source, "PLANTED", p.leaf));
    // No fact has a leaf as its target, so every retraction that
    // succeeds generalizes the leaf.
    r.expect_text = "instead of " + p.leaf;
    add(std::move(r), kTaxonomyRepeats);
  }
  for (size_t i = 0; i < kDists; ++i) {
    // The target lies 1-3 hops down a path, so the distance is at most
    // that.
    const size_t a = by_fan3.Stratum(rng, i, kDists);
    const auto path = Walk(info, a, 1 + static_cast<int>(rng.Uniform(3)), rng);
    Request r = Make(Verb::kDist, "dist " + name[a] + " " +
                                      name[path.back()->target]);
    r.max_distance = static_cast<int>(path.size());
    add(std::move(r), 1);
  }
  for (size_t i = 0; i < kNears; ++i) {
    const size_t e = by_fan3.Stratum(rng, i, kNears);
    const StoreInfo::Edge& next = info.out[e][rng.Uniform(info.out[e].size())];
    Request r = Make(Verb::kDist, "near " + name[e] + " 2");
    r.expect_line = {"1", name[next.target]};
    add(std::move(r), 1);
  }
  for (size_t i = 0; i < kAssocs; ++i) {
    // Sources near fan targets spread evenly over [0, kMaxFan3]; a walk
    // costs about its fan, so every seed's assocs cost about the same.
    // The target is joined to the source by about kAssocPaths paths, so
    // every seed's assocs mint about as many names; the answer lists
    // one known path as its composed relationship.
    const size_t s = by_fan3.Near(rng, kMaxFan3 * (2 * i + 1) / (2 * kAssocs));
    const std::vector<const StoreInfo::Edge*> path = PathTo(info, s);
    std::string composed = path[0]->relationship;
    for (size_t h = 1; h < path.size(); ++h) {
      composed += "." + name[path[h - 1]->target] + "." + path[h]->relationship;
    }
    Request r = Make(Verb::kAssoc, "assoc " + name[s] + " " +
                                       name[path.back()->target]);
    r.expect_line = {composed};
    add(std::move(r), 1);
  }
  // Fisher-Yates with the seeded generator.
  std::vector<uint32_t>& order = cycle.order;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return cycle;
}

Cycle MixedCycle(const StoreInfo& info, uint64_t seed, size_t rounds,
                 size_t reads_per_write) {
  Cycle cycle = BrowseCycle(info, seed);
  // The reads follow the browse order, except that its assocs come at
  // even spacing, so that every cycle carries them: assoc mints the
  // composed names that every later clone copies.
  std::vector<uint32_t> assocs, reads;
  for (uint32_t index : cycle.order) {
    (cycle.requests[index].verb == Verb::kAssoc ? assocs : reads)
        .push_back(index);
  }
  const size_t total = rounds * 3 * reads_per_write;
  for (size_t i = 0; i < assocs.size() && i * total / assocs.size() <= reads.size(); ++i) {
    reads.insert(reads.begin() + i * total / assocs.size(), assocs[i]);
  }
  cycle.order.clear();
  auto add = [&](Request r) {
    cycle.order.push_back(static_cast<uint32_t>(cycle.requests.size()));
    cycle.requests.push_back(std::move(r));
  };
  lsd::Rng rng(seed * 11 + 9);
  size_t next_read = 0;
  for (size_t round = 0; round < rounds; ++round) {
    const std::string own = Atom("MIX-S" + std::to_string(round % 4), "MIXED",
                                 "MIX-T" + std::to_string(round % 4));
    for (int step = 0; step < 3; ++step) {
      for (size_t i = 0; i < reads_per_write; ++i) {
        cycle.order.push_back(reads[next_read++ % reads.size()]);
      }
      if (step < 2) {
        add(Make(step == 0 ? Verb::kCommit : Verb::kRetract,
                 (step == 0 ? "assert " : "retract ") + own));
        // The first read on the epoch the commit just published.
        const StoreInfo::Fact& f = info.facts[rng.Uniform(info.facts.size())];
        Request fresh = Make(Verb::kFreshRead,
                             "query " + Atom(info.entities[f.s], f.r, "?X"));
        fresh.expect_line = {info.entities[f.t]};
        add(std::move(fresh));
      } else {
        Request hypo;
        hypo.verb = Verb::kHypo;
        hypo.lines = {"hypo retract (MOVIE-NIGHT, COSTS, FREE)",
                      kGoldenProbe, "hypo clear"};
        add(std::move(hypo));
      }
    }
  }
  return cycle;
}

std::string WriterAssert(const StoreInfo& info, uint64_t seed, int writer,
                         uint64_t n) {
  // n -> (n mod m, (n / m + n) mod m) is one-to-one for n < m², and
  // each writer has a relationship of its own, so no assert repeats.
  const uint64_t m = info.entities.size();
  const uint64_t offset = seed * 2654435761u + static_cast<uint64_t>(writer);
  const uint64_t s = (n + offset) % m;
  const uint64_t t = (n / m + n + offset / 3) % m;
  std::string relationship = "W";
  relationship += std::to_string(writer);
  return "assert " + Atom(info.entities[s], relationship, info.entities[t]);
}

}  // namespace perfbench
