#include "store/fact_store.h"

#include <algorithm>

#include "store/delta_index.h"

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

double UnionSource::EstimateMatchesBound(const Pattern& p,
                                         uint8_t bound_mask) const {
  double n = 0;
  for (const FactSource* s : sources_) {
    n += s->EstimateMatchesBound(p, bound_mask);
  }
  return n;
}

FactStore::FactStore()
    : entities_(std::make_shared<EntityTable>()),
      facts_(std::make_shared<DeltaIndex>()) {}

FactStore::~FactStore() = default;

bool FactStore::Contains(const Fact& f) const { return facts_->Contains(f); }

size_t FactStore::size() const { return facts_->size(); }

DeltaIndex* FactStore::MutableBase() {
  if (facts_shared_.load()) {
    facts_ = std::make_shared<DeltaIndex>(facts_->Clone());
    facts_shared_.store(false);
  }
  return const_cast<DeltaIndex*>(facts_.get());
}

void FactStore::Cover(const Fact& f) {
  if (universe_ == 0) return;
  universe_ = std::max<size_t>(
      {universe_, size_t{f.source} + 1, size_t{f.relationship} + 1,
       size_t{f.target} + 1});
}

namespace {

// Puts `run` in SRT order without duplicates (a no-op scan when it is
// already so).
void SortUnique(std::vector<Fact>* run) {
  if (!std::is_sorted(run->begin(), run->end(), OrderSrt())) {
    std::sort(run->begin(), run->end(), OrderSrt());
  }
  run->erase(std::unique(run->begin(), run->end()), run->end());
}

}  // namespace

bool FactStore::Assert(const Fact& f) {
  if (facts_->Contains(f)) return false;
  MutableBase()->Insert(f);
  ++version_;
  Cover(f);
  return true;
}

Fact FactStore::Assert(std::string_view source,
                       std::string_view relationship,
                       std::string_view target) {
  Fact f = entities_->InternFact(source, relationship, target);
  Assert(f);
  return f;
}

size_t FactStore::AssertRun(std::vector<Fact> run) {
  SortUnique(&run);
  if (run.empty()) return 0;
  const size_t added = MutableBase()->InsertRun(run);
  version_ += added;
  for (const Fact& f : run) Cover(f);
  return added;
}

bool FactStore::Retract(const Fact& f) { return RetractRun({f}) != 0; }

size_t FactStore::RetractRun(std::vector<Fact> run) {
  SortUnique(&run);
  run.erase(std::remove_if(run.begin(), run.end(),
                           [this](const Fact& f) {
                             return !facts_->Contains(f);
                           }),
            run.end());
  if (run.empty()) return 0;
  const size_t removed = MutableBase()->Erase(run);
  version_ += removed;
  return removed;
}

void FactStore::ReplaceBase(std::shared_ptr<const DeltaIndex> facts) {
  facts_ = std::move(facts);
  facts_shared_.store(true);
}

void FactStore::Compact() {
  const size_t tiers =
      facts_->segment_count() + (facts_->overlay_size() != 0 ? 1 : 0);
  if (tiers < 2) return;
  ReplaceBase(
      std::make_shared<const DeltaIndex>(DeltaIndex(facts_->BuildMerged())));
}

void FactStore::ShareFrom(const FactStore& other) {
  entities_ = other.entities_;
  facts_ = other.shared_base();
  facts_shared_.store(true);
  version_ = other.version_;
  universe_ = other.universe_;
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
      return facts_->Contains(Fact(r, kEntIn, kEntClassRel));
  }
}

std::vector<uint8_t> FactStore::ClassRelationshipMask() const {
  std::vector<uint8_t> mask(entities_->size(), 0);
  for (EntityId e = 0; e < kNumBuiltinEntities && e < mask.size(); ++e) {
    mask[e] = IsClassRelationship(e) ? 1 : 0;
  }
  // Past the built-ins, IsClassRelationship is exactly the mark.
  facts_->ForEach(Pattern(kAnyEntity, kEntIn, kEntClassRel),
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
