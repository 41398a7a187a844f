#include "store/fact_store.h"

namespace lsd {

size_t FactSource::EstimateMatches(const Pattern& p) const {
  size_t n = 0;
  ForEach(p, [&n](const Fact&) {
    ++n;
    return true;
  });
  return n;
}

std::vector<Fact> FactSource::Match(const Pattern& p) const {
  std::vector<Fact> out;
  ForEach(p, [&out](const Fact& f) {
    out.push_back(f);
    return true;
  });
  return out;
}

bool UnionSource::ForEach(const Pattern& p, const FactVisitor& visit) const {
  for (size_t i = 0; i < sources_.size(); ++i) {
    bool keep_going = sources_[i]->ForEach(p, [&](const Fact& f) {
      // Skip facts already produced by an earlier layer.
      for (size_t j = 0; j < i; ++j) {
        if (sources_[j]->Contains(f)) return true;
      }
      return visit(f);
    });
    if (!keep_going) return false;
  }
  return true;
}

bool UnionSource::Contains(const Fact& f) const {
  for (const FactSource* s : sources_) {
    if (s->Contains(f)) return true;
  }
  return false;
}

bool UnionSource::Enumerable(const Pattern& p) const {
  for (const FactSource* s : sources_) {
    if (!s->Enumerable(p)) return false;
  }
  return true;
}

size_t UnionSource::EstimateMatches(const Pattern& p) const {
  size_t n = 0;
  for (const FactSource* s : sources_) n += s->EstimateMatches(p);
  return n;
}

void MergeSortedIds(SortedIdSpan a, SortedIdSpan b,
                    std::vector<EntityId>* out) {
  out->clear();
  out->reserve(a.size + b.size);
  size_t i = 0;
  size_t j = 0;
  while (i < a.size && j < b.size) {
    const EntityId x = a.data[i];
    const EntityId y = b.data[j];
    if (x < y) {
      out->push_back(x);
      ++i;
    } else if (y < x) {
      out->push_back(y);
      ++j;
    } else {
      out->push_back(x);
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.data + i, a.data + a.size);
  out->insert(out->end(), b.data + j, b.data + b.size);
}

bool UnionSource::SortedFreeValues(const Pattern& p,
                                   std::vector<EntityId>* scratch,
                                   SortedIdSpan* out) const {
  // Every layer must produce its run; overlapping values collapse in the
  // merge, matching ForEach's cross-layer dedup.
  std::vector<EntityId> acc;
  std::vector<EntityId> layer_scratch;
  std::vector<EntityId> merged;
  bool first = true;
  for (const FactSource* s : sources_) {
    SortedIdSpan layer;
    if (!s->SortedFreeValues(p, &layer_scratch, &layer)) return false;
    if (layer.size == 0) continue;
    if (first) {
      acc.assign(layer.data, layer.data + layer.size);
      first = false;
      continue;
    }
    MergeSortedIds(SortedIdSpan{acc.data(), acc.size()}, layer, &merged);
    acc.swap(merged);
  }
  scratch->swap(acc);
  out->data = scratch->data();
  out->size = scratch->size();
  return true;
}

bool UnionSource::CanSortFreeValues(const Pattern& p) const {
  for (const FactSource* s : sources_) {
    if (!s->CanSortFreeValues(p)) return false;
  }
  return true;
}

double IndexSource::EstimateMatchesBound(const Pattern& p,
                                         uint8_t bound_mask) const {
  return ScaleByDistinct(static_cast<double>(index_->CountMatches(p)),
                         bound_mask, index_->DistinctSources(),
                         index_->DistinctRelationships(),
                         index_->DistinctTargets());
}

double UnionSource::EstimateMatchesBound(const Pattern& p,
                                         uint8_t bound_mask) const {
  double n = 0;
  for (const FactSource* s : sources_) {
    n += s->EstimateMatchesBound(p, bound_mask);
  }
  return n;
}

bool FactStore::Assert(const Fact& f) {
  bool inserted = base_.Insert(f);
  if (inserted) ++version_;
  return inserted;
}

Fact FactStore::Assert(std::string_view source,
                       std::string_view relationship,
                       std::string_view target) {
  Fact f(entities_.Intern(source), entities_.Intern(relationship),
         entities_.Intern(target));
  Assert(f);
  return f;
}

bool FactStore::Retract(const Fact& f) {
  bool erased = base_.Erase(f);
  if (erased) ++version_;
  return erased;
}

bool FactStore::IsClassRelationship(EntityId r) const {
  // Sec 2.2-2.3: membership is a class relationship, generalization is
  // individual. The meta-relationships SYN/INV/CONTRA characterize the
  // related entities as wholes — they are not inherited by instances or
  // specializations — so they are class relationships too (otherwise
  // rule (1a) would derive nonsense like (BONUS, SYN, WAGE) from
  // (SALARY, SYN, WAGE) and (BONUS, ISA, SALARY)).
  switch (r) {
    case kEntIn:
    case kEntSyn:
    case kEntInv:
    case kEntContra:
      return true;
    case kEntIsa:
      return false;
    default:
      return base_.Contains(Fact(r, kEntIn, kEntClassRel));
  }
}

std::vector<uint8_t> FactStore::ClassRelationshipMask() const {
  std::vector<uint8_t> mask(entities_.size(), 0);
  for (EntityId e = 0; e < kNumBuiltinEntities && e < mask.size(); ++e) {
    mask[e] = IsClassRelationship(e) ? 1 : 0;
  }
  // Past the built-ins, IsClassRelationship is exactly the mark.
  base_.ForEach(Pattern(kAnyEntity, kEntIn, kEntClassRel),
                [&mask](const Fact& f) {
                  if (f.source >= kNumBuiltinEntities &&
                      f.source < mask.size()) {
                    mask[f.source] = 1;
                  }
                  return true;
                });
  return mask;
}

void FactStore::MarkClassRelationship(EntityId r) {
  Assert(Fact(r, kEntIn, kEntClassRel));
}

}  // namespace lsd
