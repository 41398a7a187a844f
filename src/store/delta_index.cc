#include "store/delta_index.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace lsd {

DeltaIndex DeltaIndex::Clone() const {
  DeltaIndex copy;
  copy.segments_ = segments_;  // immutable, shared by pointer
  copy.frozen_count_ = frozen_count_;
  copy.erase_count_ = erase_count_;
  copy.overlay_.CopyFrom(overlay_);
  copy.overlay_hash_ = overlay_hash_;
  return copy;
}

bool DeltaIndex::Insert(const Fact& f) {
  for (const auto& seg : segments_) {
    if (seg->Contains(f)) return false;
  }
  if (!overlay_.Insert(f)) return false;
  overlay_hash_.insert(f);
  return true;
}

void DeltaIndex::AppendMissingAll(const std::vector<Fact>& run,
                                  std::vector<Fact>* out) const {
  // Batched dedup: one lockstep walk of the run against each segment's
  // sorted rows (see FrozenIndex::AppendMissing) instead of a binary
  // search per fact, then the overlay's hash probe for whatever survived.
  if (segments_.empty()) {
    out->insert(out->end(), run.begin(), run.end());
  } else {
    std::vector<Fact> cur = run;
    std::vector<Fact> next;
    for (size_t i = 0; i + 1 < segments_.size(); ++i) {
      next.clear();
      next.reserve(cur.size());
      segments_[i]->AppendMissing(cur, &next);
      cur.swap(next);
      if (cur.empty()) break;
    }
    segments_.back()->AppendMissing(cur, out);
  }
  if (!overlay_hash_.empty() && !out->empty()) {
    out->erase(std::remove_if(out->begin(), out->end(),
                              [this](const Fact& f) {
                                return overlay_hash_.count(f) != 0;
                              }),
               out->end());
  }
}

size_t DeltaIndex::InsertRun(const std::vector<Fact>& run) {
  std::vector<Fact> fresh;
  fresh.reserve(run.size());
  AppendMissingAll(run, &fresh);
  if (fresh.empty()) return 0;
  const size_t added = fresh.size();
  if (added < kL0MinRun) {
    for (const Fact& f : fresh) {
      overlay_.Insert(f);
      overlay_hash_.insert(f);
    }
    return added;
  }
  // A new L0 segment. The overlay is left alone: folding it belongs to
  // the background compactor, not the insert path.
  frozen_count_ += added;
  segments_.push_back(
      std::make_shared<const FrozenIndex>(FrozenIndex(std::move(fresh))));
  // Geometric tail-merge (the logarithmic method): keep segment sizes
  // decreasing by at least 2x oldest-to-newest, so the list stays
  // O(log n) deep while each merge touches only runs comparable to the
  // one just inserted — never the whole index.
  while (segments_.size() >= 2 &&
         segments_.back()->size() * 2 >=
             segments_[segments_.size() - 2]->size()) {
    // Segments are disjoint, so the newer one is a valid run to merge
    // into the older one's columns and permutations.
    auto merged = std::make_shared<const FrozenIndex>(FrozenIndex::Merged(
        *segments_[segments_.size() - 2], segments_.back()->Materialize()));
    segments_.pop_back();
    segments_.back() = std::move(merged);
  }
  return added;
}

size_t DeltaIndex::Erase(const std::vector<Fact>& run) {
  size_t erased = 0;
  std::vector<Fact> hits;
  for (auto& seg : segments_) {
    hits.clear();
    for (const Fact& f : run) {
      if (seg->Contains(f)) hits.push_back(f);
    }
    if (hits.empty()) continue;
    seg = std::make_shared<const FrozenIndex>(
        FrozenIndex::Merged(*seg, {}, hits));
    frozen_count_ -= hits.size();
    erased += hits.size();
  }
  if (erased != 0) {
    segments_.erase(std::remove_if(segments_.begin(), segments_.end(),
                                   [](const auto& seg) {
                                     return seg->size() == 0;
                                   }),
                    segments_.end());
  }
  if (!overlay_hash_.empty()) {
    for (const Fact& f : run) {
      if (overlay_hash_.erase(f) != 0) {
        overlay_.Erase(f);
        ++erased;
      }
    }
  }
  erase_count_ += erased;
  return erased;
}

bool DeltaIndex::ForEach(const Pattern& p, const FactVisitor& visit) const {
  if (p.BoundCount() == 0 &&
      segments_.size() + (overlay_.empty() ? 0 : 1) > 1) {
    return ForEachSrt(visit);
  }
  for (const auto& seg : segments_) {
    if (!seg->ForEach(p, visit)) return false;
  }
  return overlay_.ForEach(p, visit);
}

bool DeltaIndex::ForEachSrt(const FactVisitor& visit) const {
  std::vector<FrozenIndex::SrtCursor> runs;
  runs.reserve(segments_.size());
  for (const auto& seg : segments_) runs.emplace_back(seg.get());
  auto next = overlay_.srt().begin();
  const auto end = overlay_.srt().end();
  const OrderSrt less;
  for (;;) {
    // The tiers are disjoint, so the smallest head is unique. A few
    // tiers at most: a linear pick beats a heap.
    FrozenIndex::SrtCursor* best = nullptr;
    Fact head;
    for (FrozenIndex::SrtCursor& run : runs) {
      if (run.done()) continue;
      const Fact f = run.fact();
      if (best == nullptr || less(f, head)) {
        best = &run;
        head = f;
      }
    }
    if (next != end && (best == nullptr || less(*next, head))) {
      if (!visit(*next)) return false;
      ++next;
      continue;
    }
    if (best == nullptr) return true;
    if (!visit(head)) return false;
    best->Next();
  }
}

size_t DeltaIndex::CountMatches(const Pattern& p) const {
  size_t n = overlay_.CountMatches(p);
  for (const auto& seg : segments_) n += seg->CountMatches(p);
  return n;
}

double DeltaIndex::EstimateMatchesBound(const Pattern& p,
                                        uint8_t bound_mask) const {
  double n = ScaleByDistinct(static_cast<double>(overlay_.CountMatches(p)),
                             bound_mask, overlay_.DistinctSources(),
                             overlay_.DistinctRelationships(),
                             overlay_.DistinctTargets());
  for (const auto& seg : segments_) {
    n += seg->EstimateMatchesBound(p, bound_mask);
  }
  return n;
}

std::vector<Fact> DeltaIndex::Materialize() const {
  // Every tier streams in SRT order; successive inplace_merge of sorted
  // blocks keeps this near-linear for the common few-segment shapes.
  std::vector<Fact> all;
  all.reserve(size());
  for (const auto& seg : segments_) {
    const size_t mid = all.size();
    std::vector<Fact> run = seg->Materialize();
    all.insert(all.end(), run.begin(), run.end());
    if (mid != 0) {
      std::inplace_merge(all.begin(), all.begin() + mid, all.end(),
                         OrderSrt());
    }
  }
  const size_t mid = all.size();
  overlay_.ForEach(Pattern(), [&all](const Fact& f) {
    all.push_back(f);
    return true;
  });
  if (mid != 0 && mid != all.size()) {
    std::inplace_merge(all.begin(), all.begin() + mid, all.end(),
                       OrderSrt());
  }
  return all;
}

FrozenIndex DeltaIndex::BuildMerged() const {
  return FrozenIndex(Materialize());
}

bool DeltaIndex::SwapMergedPrefix(
    const std::vector<std::shared_ptr<const FrozenIndex>>& old_segments,
    std::shared_ptr<const FrozenIndex> merged) {
  if (old_segments.size() > segments_.size()) return false;
  for (size_t i = 0; i < old_segments.size(); ++i) {
    if (segments_[i].get() != old_segments[i].get()) return false;
  }
  std::vector<std::shared_ptr<const FrozenIndex>> next;
  next.reserve(segments_.size() - old_segments.size() + 1);
  if (merged != nullptr && merged->size() != 0) next.push_back(merged);
  next.insert(next.end(), segments_.begin() + old_segments.size(),
              segments_.end());
  segments_.swap(next);
  // Rebuild the overlay without the facts the merge folded in. Facts
  // inserted after the pin are not in `merged` and survive; suffix
  // segments are disjoint from the overlay by the insert-time invariant,
  // so `merged` is the only subtraction needed.
  if (!overlay_.empty() && merged != nullptr) {
    std::vector<Fact> keep;
    keep.reserve(overlay_.size());
    overlay_.ForEach(Pattern(), [&](const Fact& f) {
      if (!merged->Contains(f)) keep.push_back(f);
      return true;
    });
    if (keep.size() != overlay_.size()) {
      overlay_.Clear();
      overlay_hash_.clear();
      for (const Fact& f : keep) {
        overlay_.Insert(f);
        overlay_hash_.insert(f);
      }
    }
  }
  frozen_count_ = 0;
  for (const auto& seg : segments_) frozen_count_ += seg->size();
  return true;
}

bool DeltaIndex::SortedFreeValues(const Pattern& p,
                                  std::vector<EntityId>* scratch,
                                  SortedIdSpan* out) const {
  // Fast paths: a single tier answers alone (zero copy when it is a
  // frozen column slice), which is the common post-compaction state.
  if (segments_.empty()) return overlay_.SortedFreeValues(p, scratch, out);
  if (segments_.size() == 1 && overlay_.empty()) {
    return segments_[0]->SortedFreeValues(p, scratch, out);
  }
  bool have = false;
  std::vector<EntityId> acc;
  std::vector<EntityId> tier_scratch;
  auto fold = [&](const SortedIdSpan& vals) {
    if (vals.size == 0) return;
    if (!have) {
      acc.assign(vals.data, vals.data + vals.size);
      have = true;
      return;
    }
    std::vector<EntityId> merged;
    MergeSortedIds(SortedIdSpan{acc.data(), acc.size()}, vals, &merged);
    acc.swap(merged);
  };
  for (const auto& seg : segments_) {
    SortedIdSpan vals;
    if (!seg->SortedFreeValues(p, &tier_scratch, &vals)) return false;
    fold(vals);
  }
  if (!overlay_.empty()) {
    SortedIdSpan vals;
    if (!overlay_.SortedFreeValues(p, &tier_scratch, &vals)) return false;
    fold(vals);
  }
  scratch->swap(acc);
  out->data = scratch->data();
  out->size = scratch->size();
  return true;
}

DeltaIndex::Memory DeltaIndex::MemoryUsage() const {
  Memory m;
  for (const auto& seg : segments_) {
    const FrozenIndex::Memory sm = seg->MemoryUsage();
    m.frozen.run_bytes += sm.run_bytes;
    m.frozen.perm_bytes += sm.perm_bytes;
    m.frozen.offset_bytes += sm.offset_bytes;
  }
  m.overlay_bytes =
      overlay_.MemoryUsage() +
      overlay_hash_.bucket_count() * sizeof(void*) +
      overlay_hash_.size() * (sizeof(Fact) + 2 * sizeof(void*));
  m.runs = segments_.size();
  return m;
}

}  // namespace lsd
