#include "browse/probing.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace lsd {

namespace {

bool EligibleLatticeEntity(const EntityTable& entities, EntityId e) {
  return entities.Kind(e) == EntityKind::kRegular;
}

// Compressed sparse rows over EntityIds: row e is
// ids[offsets[e] .. offsets[e + 1]).
struct Csr {
  std::vector<uint32_t> offsets;
  std::vector<EntityId> ids;

  const EntityId* begin(EntityId e) const { return ids.data() + offsets[e]; }
  const EntityId* end(EntityId e) const {
    return ids.data() + offsets[e + 1];
  }
  bool Contains(EntityId e, EntityId x) const {
    return std::binary_search(begin(e), end(e), x);
  }
};

// Groups `pairs` into `rows` CSR rows keyed by pair.first (a counting
// sort), each row ascending and duplicate-free.
Csr GroupBySource(const std::vector<std::pair<EntityId, EntityId>>& pairs,
                  size_t rows) {
  Csr csr;
  csr.offsets.assign(rows + 1, 0);
  for (const auto& [s, t] : pairs) ++csr.offsets[s + 1];
  for (size_t e = 0; e < rows; ++e) csr.offsets[e + 1] += csr.offsets[e];
  csr.ids.resize(pairs.size());
  std::vector<uint32_t> fill(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [s, t] : pairs) csr.ids[fill[s]++] = t;
  // Sort and dedup each row in place, sliding rows left as they shrink.
  uint32_t out = 0;
  for (size_t e = 0; e < rows; ++e) {
    const uint32_t lo = csr.offsets[e];
    const uint32_t hi = csr.offsets[e + 1];
    std::sort(csr.ids.begin() + lo, csr.ids.begin() + hi);
    csr.offsets[e] = out;
    for (uint32_t i = lo; i < hi; ++i) {
      if (i == lo || csr.ids[i] != csr.ids[i - 1]) csr.ids[out++] = csr.ids[i];
    }
  }
  csr.offsets[rows] = out;
  csr.ids.resize(out);
  return csr;
}

}  // namespace

GeneralizationLattice GeneralizationLattice::Build(const ClosureView& view) {
  const EntityTable& entities = view.store().entities();

  // s ≺ t for distinct regular entities, read from the stored ISA range
  // of both tiers. With the generalization rules on, the closure's ISA
  // relation is transitively closed and these rows are full up-sets; the
  // cover definition below holds either way.
  std::vector<std::pair<EntityId, EntityId>> pairs;
  EntityId max_id = 0;
  view.ForEachStored(Pattern(kAnyEntity, kEntIsa, kAnyEntity),
                     [&](const Fact& f) {
                       if (f.source == f.target) return true;
                       pairs.emplace_back(f.source, f.target);
                       max_id = std::max({max_id, f.source, f.target});
                       return true;
                     });
  // 0 = not looked up yet, 1 = regular, 2 = not in the lattice.
  std::vector<uint8_t> eligible(pairs.empty() ? 0 : size_t{max_id} + 1, 0);
  auto regular = [&](EntityId e) {
    if (eligible[e] == 0) {
      eligible[e] = EligibleLatticeEntity(entities, e) ? 1 : 2;
    }
    return eligible[e] == 1;
  };
  size_t rows = 0;
  size_t kept = 0;
  for (const auto& [s, t] : pairs) {
    if (!regular(s) || !regular(t)) continue;
    pairs[kept++] = {s, t};
    rows = std::max<size_t>(rows, std::max(s, t) + size_t{1});
  }
  pairs.resize(kept);
  const Csr up = GroupBySource(pairs, rows);

  // strict_up(s): the generalizations of s that are not also its
  // synonyms (t ≺ s as well). Synonyms are never above each other.
  pairs.clear();
  for (EntityId s = 0; s < rows; ++s) {
    for (const EntityId* t = up.begin(s); t != up.end(s); ++t) {
      if (!up.Contains(*t, s)) pairs.emplace_back(s, *t);
    }
  }
  const Csr strict = GroupBySource(pairs, rows);

  // covers(s) = strict_up(s) − ⋃ strict_up(x) over x ∈ strict_up(s):
  // t covers s unless some x lies strictly between them. mark[t] ==
  // stamp flags t as a still-uncovered candidate for the current s.
  std::vector<uint32_t> mark(rows, 0);
  uint32_t stamp = 0;
  pairs.clear();  // (s, t) for every cover t of s
  for (EntityId s = 0; s < rows; ++s) {
    if (strict.begin(s) == strict.end(s)) continue;
    ++stamp;
    for (const EntityId* t = strict.begin(s); t != strict.end(s); ++t) {
      mark[*t] = stamp;
    }
    for (const EntityId* x = strict.begin(s); x != strict.end(s); ++x) {
      for (const EntityId* y = strict.begin(*x); y != strict.end(*x); ++y) {
        mark[*y] = 0;
      }
    }
    for (const EntityId* t = strict.begin(s); t != strict.end(s); ++t) {
      if (mark[*t] == stamp) pairs.emplace_back(s, *t);
    }
  }

  GeneralizationLattice lattice;
  Csr parents = GroupBySource(pairs, rows);
  for (auto& [s, t] : pairs) std::swap(s, t);
  Csr children = GroupBySource(pairs, rows);
  lattice.up_offsets_ = std::move(parents.offsets);
  lattice.up_ = std::move(parents.ids);
  lattice.down_offsets_ = std::move(children.offsets);
  lattice.down_ = std::move(children.ids);
  return lattice;
}

std::vector<EntityId> GeneralizationLattice::MinimalGeneralizations(
    EntityId e) const {
  if (e == kEntTop) return {};
  if (e == kEntBottom) return {kEntTop};  // degenerate but total
  if (e < kNumBuiltinEntities) return {};  // builtins do not generalize
  if (size_t{e} + 1 < up_offsets_.size() &&
      up_offsets_[e] != up_offsets_[e + 1]) {
    return std::vector<EntityId>(up_.begin() + up_offsets_[e],
                                 up_.begin() + up_offsets_[e + 1]);
  }
  return {kEntTop};
}

std::vector<EntityId> GeneralizationLattice::MinimalSpecializations(
    EntityId e) const {
  if (e == kEntBottom) return {};
  if (e == kEntTop) return {kEntBottom};
  if (e < kNumBuiltinEntities) return {};
  if (size_t{e} + 1 < down_offsets_.size() &&
      down_offsets_[e] != down_offsets_[e + 1]) {
    return std::vector<EntityId>(down_.begin() + down_offsets_[e],
                                 down_.begin() + down_offsets_[e + 1]);
  }
  return {kEntBottom};
}

std::string Substitution::Describe(const EntityTable& entities) const {
  switch (kind) {
    case Kind::kGeneralize:
    case Kind::kSpecialize:
      return entities.Name(to) + " instead of " + entities.Name(from);
    case Kind::kDeleteTemplate:
      return "without " + deleted_text;
  }
  return "?";
}

namespace {

// True if a term no longer constrains anything: a variable, ANY or NONE.
bool WeakTerm(const Term& t) {
  return t.is_variable() || t.entity() == kEntTop ||
         t.entity() == kEntBottom;
}

bool FullyWeak(const Template& t) {
  return WeakTerm(t.source) && WeakTerm(t.relationship) &&
         WeakTerm(t.target);
}

// Walks all atoms of the AST, visiting (parent-and, index, atom node).
void VisitAtoms(AstNode* node, AstNode* parent_and,
                const std::function<void(AstNode*, AstNode*)>& fn) {
  switch (node->kind) {
    case NodeKind::kAtom:
      fn(node, parent_and);
      break;
    case NodeKind::kAnd:
      for (auto& c : node->children) VisitAtoms(c.get(), node, fn);
      break;
    case NodeKind::kOr:
      for (auto& c : node->children) VisitAtoms(c.get(), nullptr, fn);
      break;
    case NodeKind::kExists:
    case NodeKind::kForall:
      VisitAtoms(node->children[0].get(),
                 node->children[0]->kind == NodeKind::kAnd
                     ? node->children[0].get()
                     : nullptr,
                 fn);
      break;
  }
}

}  // namespace

std::vector<std::pair<Query, Substitution>> Prober::RetractionSet(
    const Query& query) const {
  std::vector<std::pair<Query, Substitution>> out;

  // Enumerate atom occurrences by walking a clone for each candidate
  // substitution: position `occurrence` within the walk identifies the
  // atom stably across clones.
  struct Site {
    int occurrence;
    int position;  // 0 source, 1 relationship, 2 target
    EntityId from;
    EntityId to;
    Substitution::Kind kind;
  };
  struct DeleteSite {
    int occurrence;
    std::string text;
  };
  std::vector<Site> sites;
  std::vector<DeleteSite> deletions;

  int occurrence = 0;
  VisitAtoms(
      const_cast<AstNode*>(query.root()), nullptr,
      [&](AstNode* atom, AstNode* parent_and) {
        const Template& t = atom->atom;
        if (FullyWeak(t)) {
          // Sec 5.2: templates of variables/ANY/NONE only are weak
          // restrictions — generalize by deleting them (only meaningful
          // inside a conjunction with other conjuncts).
          if (parent_and != nullptr && parent_and->children.size() > 1) {
            deletions.push_back(DeleteSite{
                occurrence, t.DebugString(*entities_, query.var_names())});
          }
        } else {
          for (int pos = 0; pos < 3; ++pos) {
            const Term& term = t.at(pos);
            if (!term.is_entity()) continue;
            EntityId e = term.entity();
            if (pos == 0) {
              for (EntityId to : lattice_->MinimalSpecializations(e)) {
                sites.push_back(Site{occurrence, pos, e, to,
                                     Substitution::Kind::kSpecialize});
              }
            } else {
              for (EntityId to : lattice_->MinimalGeneralizations(e)) {
                sites.push_back(Site{occurrence, pos, e, to,
                                     Substitution::Kind::kGeneralize});
              }
            }
          }
        }
        ++occurrence;
      });

  for (const Site& site : sites) {
    Query clone = query.Clone();
    int idx = 0;
    VisitAtoms(clone.mutable_root(), nullptr,
               [&](AstNode* atom, AstNode*) {
                 if (idx == site.occurrence) {
                   atom->atom.at(site.position) = Term::Entity(site.to);
                 }
                 ++idx;
               });
    Substitution sub;
    sub.kind = site.kind;
    sub.from = site.from;
    sub.to = site.to;
    out.emplace_back(std::move(clone), sub);
  }

  for (const DeleteSite& del : deletions) {
    Query clone = query.Clone();
    int idx = 0;
    AstNode* to_delete = nullptr;
    AstNode* parent = nullptr;
    VisitAtoms(clone.mutable_root(), nullptr,
               [&](AstNode* atom, AstNode* parent_and) {
                 if (idx == del.occurrence) {
                   to_delete = atom;
                   parent = parent_and;
                 }
                 ++idx;
               });
    if (to_delete == nullptr || parent == nullptr) continue;
    auto& kids = parent->children;
    kids.erase(std::remove_if(kids.begin(), kids.end(),
                              [&](const std::unique_ptr<AstNode>& c) {
                                return c.get() == to_delete;
                              }),
               kids.end());
    Substitution sub;
    sub.kind = Substitution::Kind::kDeleteTemplate;
    sub.deleted_text = del.text;
    out.emplace_back(std::move(clone), sub);
  }
  return out;
}

StatusOr<ProbeResult> Prober::Probe(const Query& query,
                                    const ProbeOptions& options) const {
  ProbeResult result;
  Evaluator evaluator(view_, entities_, view_->store().universe());
  EvalOptions eval_options;
  eval_options.max_rows = options.max_rows_per_result;
  eval_options.join_order = options.join_order;
  eval_options.planner = planner_;
  eval_options.budget = options.budget;

  // Diagnosis: constants of the original query unknown to the database.
  std::set<EntityId> unknown;
  VisitAtoms(const_cast<AstNode*>(query.root()), nullptr,
             [&](AstNode* atom, AstNode*) {
               for (int pos = 0; pos < 3; ++pos) {
                 const Term& t = atom->atom.at(pos);
                 if (t.is_entity() && t.entity() >= kNumBuiltinEntities &&
                     !view_->Mentions(t.entity())) {
                   unknown.insert(t.entity());
                 }
               }
             });
  result.unknown_entities.assign(unknown.begin(), unknown.end());

  LSD_ASSIGN_OR_RETURN(result.original_result,
                       evaluator.Evaluate(query, eval_options));
  if (result.original_result.Success()) {
    result.original_succeeded = true;
    return result;
  }

  struct Candidate {
    Query query;
    std::vector<Substitution> path;
  };
  std::vector<Candidate> frontier;
  {
    Candidate original;
    original.query = query.Clone();
    frontier.push_back(std::move(original));
  }
  std::unordered_set<std::string> visited;
  visited.insert(query.DebugString(*entities_));

  for (int wave = 1; wave <= options.max_waves; ++wave) {
    std::vector<Candidate> next;
    for (const Candidate& c : frontier) {
      for (auto& [q, sub] : RetractionSet(c.query)) {
        std::string key = q.DebugString(*entities_);
        if (!visited.insert(key).second) continue;
        Candidate nc;
        nc.query = std::move(q);
        nc.path = c.path;
        nc.path.push_back(sub);
        next.push_back(std::move(nc));
      }
    }
    if (next.empty()) {
      result.exhausted = true;
      break;
    }
    result.waves = wave;
    const size_t allowed = std::min(
        next.size(), options.max_queries - result.queries_attempted);
    result.queries_attempted += allowed;

    // Existence probes first: a candidate only needs a yes/no here, so
    // the evaluation stops at the first satisfying row (first_row_only
    // short-circuits inside the join). They run in sequence: a wave's
    // probes cost microseconds each, less than spawning a thread.
    std::vector<char> succeeded(allowed, 0);
    EvalOptions probe_options = eval_options;
    probe_options.first_row_only = true;
    probe_options.max_rows = 1;
    for (size_t i = 0; i < allowed; ++i) {
      // A tripped budget sticks on the shared token; stop burning
      // candidates (the wave-boundary Check below surfaces the error).
      if (options.budget != nullptr && options.budget->cancelled()) break;
      auto evaluated = evaluator.Evaluate(next[i].query, probe_options);
      // Unsafe variants are skipped.
      succeeded[i] = evaluated.ok() && evaluated->Success() ? 1 : 0;
    }

    // Wave boundary: surface a budget trip as the probe's own error —
    // the per-candidate evaluations above swallow eval failures (unsafe
    // variants are skipped), which must not hide a cancellation.
    if (options.budget != nullptr) {
      LSD_RETURN_IF_ERROR(options.budget->Check());
    }

    // Materialize full results only for the successes (typically a
    // handful per wave), sequentially and in candidate order.
    for (size_t i = 0; i < allowed; ++i) {
      if (!succeeded[i]) continue;
      auto evaluated = evaluator.Evaluate(next[i].query, eval_options);
      if (!evaluated.ok() && (evaluated.status().IsDeadlineExceeded() ||
                              evaluated.status().IsCancelled() ||
                              evaluated.status().IsResourceExhausted())) {
        return evaluated.status();
      }
      if (!evaluated.ok() || !evaluated->Success()) continue;
      ProbeSuccess s;
      s.query = next[i].query.Clone();
      s.substitutions = next[i].path;
      s.result = std::move(*evaluated);
      result.successes.push_back(std::move(s));
    }
    if (!result.successes.empty()) break;
    if (result.queries_attempted >= options.max_queries) break;
    frontier = std::move(next);
  }
  return result;
}

std::string ProbeResult::Menu(const EntityTable& entities) const {
  if (original_succeeded) {
    return "Query succeeded.\n";
  }
  std::string out = "Query failed. Retrying...\n";
  if (!unknown_entities.empty()) {
    out += "Note: no such database entities:";
    for (EntityId e : unknown_entities) {
      out += " " + entities.Name(e);
    }
    out += "\n";
  }
  if (successes.empty()) {
    out += exhausted ? "No broader query succeeds.\n"
                     : "No success within the retraction budget.\n";
    return out;
  }
  for (size_t i = 0; i < successes.size(); ++i) {
    out += std::to_string(i + 1) + ". Success with ";
    std::vector<std::string> descs;
    for (const Substitution& s : successes[i].substitutions) {
      descs.push_back(s.Describe(entities));
    }
    for (size_t j = 0; j < descs.size(); ++j) {
      if (j > 0) out += " and ";
      out += descs[j];
    }
    out += "\n";
  }
  out += "You may select.\n";
  return out;
}

}  // namespace lsd
