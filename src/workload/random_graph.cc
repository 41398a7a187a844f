#include "workload/random_graph.h"

#include <utility>

#include "util/random.h"

namespace lsd::workload {

size_t Taxonomy::NumNodes() const {
  size_t n = 0;
  for (const auto& level : levels) n += level.size();
  return n;
}

Taxonomy BuildRandomTaxonomy(LooseDb* db, const TaxonomyOptions& options) {
  Taxonomy tax;
  Rng rng(options.seed);
  // Names are interned as the facts are drawn (so ids follow draw
  // order); the facts land as one bulk run.
  EntityTable& names = db->entities();
  std::vector<Fact> facts;
  auto isa = [&](const std::string& child, const std::string& parent) {
    facts.push_back(names.InternFact(child, "ISA", parent));
  };
  tax.levels.resize(options.depth + 1);
  for (int r = 0; r < options.num_roots; ++r) {
    tax.levels[0].push_back("T" + std::to_string(r));
  }
  for (int d = 1; d <= options.depth; ++d) {
    for (const std::string& parent : tax.levels[d - 1]) {
      for (int c = 0; c < options.fanout; ++c) {
        std::string child = parent + "." + std::to_string(c);
        isa(child, parent);
        if (options.extra_parent_prob > 0 &&
            tax.levels[d - 1].size() > 1 &&
            rng.Bernoulli(options.extra_parent_prob)) {
          const std::string& extra = tax.levels[d - 1][rng.Uniform(
              tax.levels[d - 1].size())];
          if (extra != parent) isa(child, extra);
        }
        tax.levels[d].push_back(child);
      }
    }
  }
  db->AssertAll(facts);
  return tax;
}

namespace {

std::string GraphEntityName(size_t i) { return "E" + std::to_string(i); }
std::string GraphRelName(size_t j) { return "R" + std::to_string(j); }

template <typename AssertFn>
std::string BuildZipfGraphImpl(AssertFn assert_fact,
                               const GraphOptions& options) {
  Rng rng(options.seed);
  ZipfSampler entity_sampler(options.num_entities, options.zipf_exponent);
  for (size_t i = 0; i < options.num_facts; ++i) {
    size_t s = entity_sampler.Sample(rng);
    size_t t = entity_sampler.Sample(rng);
    size_t r = rng.Uniform(options.num_relationships);
    assert_fact(GraphEntityName(s), GraphRelName(r), GraphEntityName(t));
  }
  return GraphEntityName(0);  // rank-1 Zipf entity: highest degree
}

}  // namespace

std::string BuildZipfGraph(FactStore* store, const GraphOptions& options) {
  EntityTable& names = store->entities();
  std::vector<Fact> facts;
  facts.reserve(options.num_facts);
  std::string hub = BuildZipfGraphImpl(
      [&](const std::string& s, const std::string& r, const std::string& t) {
        facts.push_back(names.InternFact(s, r, t));
      },
      options);
  store->AssertRun(std::move(facts));
  return hub;
}

std::string BuildZipfGraph(LooseDb* db, const GraphOptions& options) {
  // Names are interned as the facts are drawn (so ids follow draw
  // order); the facts land as one bulk run.
  EntityTable& names = db->entities();
  std::vector<Fact> facts;
  facts.reserve(options.num_facts);
  std::string hub = BuildZipfGraphImpl(
      [&](const std::string& s, const std::string& r, const std::string& t) {
        facts.push_back(names.InternFact(s, r, t));
      },
      options);
  db->AssertAll(facts);
  return hub;
}

}  // namespace lsd::workload
