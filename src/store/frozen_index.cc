#include "store/frozen_index.h"

#include <algorithm>
#include <utility>

#include "store/triple_index.h"

namespace lsd {

namespace {

// Decodes row id -> source id against the CSR offset table with a
// monotone cursor: scans whose rows have ascending sources (canonical
// scans, (r,t) and (t) permutation slices) advance in amortized O(1);
// backward jumps (the per-target group resets of an (r) scan) re-seek by
// binary search.
class SourceCursor {
 public:
  explicit SourceCursor(const std::vector<uint32_t>& offsets)
      : off_(offsets) {}

  // `row` must be < the total row count.
  EntityId Get(uint32_t row) {
    if (off_[cur_] <= row) {
      if (row < off_[cur_ + 1]) return cur_;
      // Exponential probe forward, then binary search the bracket.
      const size_t n = off_.size();
      size_t lo = cur_ + 1;
      size_t step = 1;
      while (lo + step < n && off_[lo + step] <= row) {
        lo += step;
        step <<= 1;
      }
      const size_t hi = std::min(n, lo + step + 1);
      cur_ = static_cast<EntityId>(
          std::upper_bound(off_.begin() + lo, off_.begin() + hi, row) -
          off_.begin() - 1);
    } else {
      cur_ = static_cast<EntityId>(
          std::upper_bound(off_.begin(), off_.begin() + cur_ + 1, row) -
          off_.begin() - 1);
    }
    return cur_;
  }

 private:
  const std::vector<uint32_t>& off_;
  EntityId cur_ = 0;
};

// [first, last) row range of id `id` in a CSR offset table.
inline std::pair<uint32_t, uint32_t> OffsetRange(
    const std::vector<uint32_t>& offsets, EntityId id) {
  const size_t i = id;
  if (i + 1 >= offsets.size()) return {0, 0};
  return {offsets[i], offsets[i + 1]};
}

// Builds a CSR offset table for a stream of non-decreasing ids given by
// `id_of(k)` for k in [0, n). The table covers ids [0, max_id + 1].
template <typename IdOf>
std::vector<uint32_t> BuildOffsets(size_t n, const IdOf& id_of) {
  std::vector<uint32_t> offsets;
  if (n == 0) {
    offsets.assign(1, 0);
    return offsets;
  }
  const size_t slots = static_cast<size_t>(id_of(n - 1)) + 1;
  offsets.reserve(slots + 1);
  offsets.push_back(0);
  for (size_t k = 0; k < n; ++k) {
    const size_t id = id_of(k);
    while (offsets.size() <= id) {
      offsets.push_back(static_cast<uint32_t>(k));
    }
  }
  while (offsets.size() <= slots) {
    offsets.push_back(static_cast<uint32_t>(n));
  }
  return offsets;
}

// A whole-relationship scan goes direct (stream the canonical columns,
// filter on rel_) once the slice holds at least 1/kDirectRelScanDensity
// of all rows; below that the permutation gather touches fewer rows
// than the filter would read. Tuned on the 1M-fact Zipf graph, where
// the ~3.5%-dense slices scan ~2x faster direct (see BM_FrozenIndexScan
// vs BM_FrozenIndexScanGather in bench_storage).
constexpr uint64_t kDirectRelScanDensity = 64;

}  // namespace

void FrozenIndex::BuildFromSorted(std::vector<Fact> facts) {
  const size_t n = facts.size();
  rel_.reserve(n);
  tgt_.reserve(n);
  for (const Fact& f : facts) {
    rel_.push_back(f.relationship);
    tgt_.push_back(f.target);
  }
  src_offsets_ =
      BuildOffsets(n, [&](size_t k) { return facts[k].source; });

  rts_perm_.resize(n);
  for (size_t i = 0; i < n; ++i) rts_perm_[i] = static_cast<uint32_t>(i);
  std::sort(rts_perm_.begin(), rts_perm_.end(),
            [&](uint32_t a, uint32_t b) {
              return OrderRts()(facts[a], facts[b]);
            });
  rel_offsets_ = BuildOffsets(
      n, [&](size_t k) { return facts[rts_perm_[k]].relationship; });

  tsr_perm_.resize(n);
  for (size_t i = 0; i < n; ++i) tsr_perm_[i] = static_cast<uint32_t>(i);
  std::sort(tsr_perm_.begin(), tsr_perm_.end(),
            [&](uint32_t a, uint32_t b) {
              return OrderTsr()(facts[a], facts[b]);
            });
  tgt_offsets_ =
      BuildOffsets(n, [&](size_t k) { return facts[tsr_perm_[k]].target; });

  RecomputeDistinct();
}

FrozenIndex::FrozenIndex(std::vector<Fact> facts) {
  std::sort(facts.begin(), facts.end(), OrderSrt());
  facts.erase(std::unique(facts.begin(), facts.end()), facts.end());
  BuildFromSorted(std::move(facts));
}

FrozenIndex FrozenIndex::FromTripleIndex(const TripleIndex& index) {
  return FrozenIndex(index.Match(Pattern()));
}

void FrozenIndex::RecomputeDistinct() {
  // A position's distinct count is the number of non-empty ranges of its
  // offset table; the tables are one short pass each.
  auto nonempty = [](const std::vector<uint32_t>& offsets) {
    size_t n = 0;
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      if (offsets[i] != offsets[i + 1]) ++n;
    }
    return n;
  };
  distinct_sources_ = nonempty(src_offsets_);
  distinct_rels_ = nonempty(rel_offsets_);
  distinct_targets_ = nonempty(tgt_offsets_);
}

std::vector<Fact> FrozenIndex::Materialize() const {
  std::vector<Fact> out;
  out.reserve(size());
  for (EntityId s = 0; s + 1 < src_offsets_.size(); ++s) {
    for (uint32_t row = src_offsets_[s]; row < src_offsets_[s + 1]; ++row) {
      out.emplace_back(s, rel_[row], tgt_[row]);
    }
  }
  return out;
}

FrozenIndex FrozenIndex::Merged(const FrozenIndex& base,
                                std::vector<Fact> run,
                                const std::vector<Fact>& erase) {
  const size_t nb = base.size();
  const size_t nr = run.size();
  if (nb == 0) {
    FrozenIndex out;
    out.BuildFromSorted(std::move(run));
    return out;
  }

  // Decode the base's source column once; the canonical walk below and
  // the permutation merges all need it, and one flat array beats three
  // cursor passes.
  std::vector<EntityId> base_src(nb);
  for (EntityId s = 0; s + 1 < base.src_offsets_.size(); ++s) {
    for (uint32_t row = base.src_offsets_[s];
         row < base.src_offsets_[s + 1]; ++row) {
      base_src[row] = s;
    }
  }

  // Canonical merge: all three inputs stream in SRT order, so the output
  // columns build in one pass while recording where each input row
  // landed (old row -> new row, kErased for a dropped base row), which
  // lets the permutations merge without re-sorting the base.
  constexpr uint32_t kErased = UINT32_MAX;
  // The output arrays are reserved before the temporaries, and new_src
  // is released once consumed: both lower a bulk load's peak resident
  // memory (perfbench browse).
  FrozenIndex out;
  out.rel_.reserve(nb + nr);
  out.tgt_.reserve(nb + nr);
  out.rts_perm_.reserve(nb + nr);
  out.tsr_perm_.reserve(nb + nr);
  std::vector<uint32_t> base_to_new(nb);
  std::vector<uint32_t> run_to_new(nr);
  std::vector<EntityId> new_src;
  new_src.reserve(nb + nr);
  {
    size_t i = 0;
    size_t j = 0;
    size_t k = 0;
    OrderSrt less;
    while (i < nb || j < nr) {
      bool take_base;
      if (i == nb) {
        take_base = false;
      } else {
        const Fact b(base_src[i], base.rel_[i], base.tgt_[i]);
        while (k < erase.size() && less(erase[k], b)) ++k;
        if (k < erase.size() && erase[k] == b) {
          base_to_new[i++] = kErased;
          continue;
        }
        take_base = j == nr || less(b, run[j]);
      }
      const uint32_t row = static_cast<uint32_t>(out.rel_.size());
      if (take_base) {
        base_to_new[i] = row;
        new_src.push_back(base_src[i]);
        out.rel_.push_back(base.rel_[i]);
        out.tgt_.push_back(base.tgt_[i]);
        ++i;
      } else {
        run_to_new[j] = row;
        new_src.push_back(run[j].source);
        out.rel_.push_back(run[j].relationship);
        out.tgt_.push_back(run[j].target);
        ++j;
      }
    }
  }
  const size_t n = out.rel_.size();
  out.src_offsets_ = BuildOffsets(n, [&](size_t k) { return new_src[k]; });
  std::vector<EntityId>().swap(new_src);

  // Permutation merges: the base's perm already streams its rows in the
  // right order, and sorting just the run gives the other stream;
  // two-way merge on the decoded keys.
  auto merge_perm = [&](const std::vector<uint32_t>& base_perm,
                        const std::vector<uint32_t>& run_order,
                        const auto& less, std::vector<uint32_t>& perm) {
    size_t i = 0;
    size_t j = 0;
    while (i < nb || j < nr) {
      if (i < nb && base_to_new[base_perm[i]] == kErased) {
        ++i;
        continue;
      }
      bool take_base;
      if (i == nb) {
        take_base = false;
      } else if (j == nr) {
        take_base = true;
      } else {
        const uint32_t row = base_perm[i];
        take_base = less(Fact(base_src[row], base.rel_[row], base.tgt_[row]),
                         run[run_order[j]]);
      }
      if (take_base) {
        perm.push_back(base_to_new[base_perm[i++]]);
      } else {
        perm.push_back(run_to_new[run_order[j++]]);
      }
    }
  };

  std::vector<uint32_t> run_order(nr);
  for (size_t j = 0; j < nr; ++j) run_order[j] = static_cast<uint32_t>(j);

  std::sort(run_order.begin(), run_order.end(), [&](uint32_t a, uint32_t b) {
    return OrderRts()(run[a], run[b]);
  });
  merge_perm(base.rts_perm_, run_order, OrderRts(), out.rts_perm_);
  out.rel_offsets_ =
      BuildOffsets(n, [&](size_t k) { return out.rel_[out.rts_perm_[k]]; });

  std::sort(run_order.begin(), run_order.end(), [&](uint32_t a, uint32_t b) {
    return OrderTsr()(run[a], run[b]);
  });
  merge_perm(base.tsr_perm_, run_order, OrderTsr(), out.tsr_perm_);
  out.tgt_offsets_ =
      BuildOffsets(n, [&](size_t k) { return out.tgt_[out.tsr_perm_[k]]; });

  out.RecomputeDistinct();
  return out;
}

bool FrozenIndex::ForEach(const Pattern& p, const FactVisitor& visit) const {
  const int bound = p.BoundCount();
  if (bound == 3) {
    Fact f(p.source, p.relationship, p.target);
    if (Contains(f)) return visit(f);
    return true;
  }
  if (bound == 0) {
    for (EntityId s = 0; s + 1 < src_offsets_.size(); ++s) {
      for (uint32_t row = src_offsets_[s]; row < src_offsets_[s + 1];
           ++row) {
        if (!visit(Fact(s, rel_[row], tgt_[row]))) return false;
      }
    }
    return true;
  }

  if (p.SourceBound()) {
    auto [lo, hi] = OffsetRange(src_offsets_, p.source);
    if (p.RelationshipBound()) {
      // (s, r, ?): narrow the source slice to the relationship subrange
      // (rel_ is sorted within a source).
      const EntityId* first = rel_.data() + lo;
      const EntityId* last = rel_.data() + hi;
      const uint32_t sub_lo = static_cast<uint32_t>(
          std::lower_bound(first, last, p.relationship) - rel_.data());
      const uint32_t sub_hi = static_cast<uint32_t>(
          std::upper_bound(first, last, p.relationship) - rel_.data());
      for (uint32_t row = sub_lo; row < sub_hi; ++row) {
        if (!visit(Fact(p.source, p.relationship, tgt_[row]))) return false;
      }
      return true;
    }
    if (p.TargetBound()) {
      // (s, ?, t): the (t) slice of the TSR permutation is ordered by
      // source, so the rows of `s` are a contiguous subrange found by
      // decoded binary search; within it rel ascends.
      auto [klo, khi] = OffsetRange(tgt_offsets_, p.target);
      SourceCursor probe(src_offsets_);
      // Manual binary searches: the comparator needs the row -> source
      // decode, so keep it explicit (two O(log) passes over the slice).
      uint32_t a = klo;
      uint32_t b = khi;
      while (a < b) {
        const uint32_t mid = a + (b - a) / 2;
        if (probe.Get(tsr_perm_[mid]) < p.source) {
          a = mid + 1;
        } else {
          b = mid;
        }
      }
      const uint32_t sub_lo = a;
      b = khi;
      while (a < b) {
        const uint32_t mid = a + (b - a) / 2;
        if (probe.Get(tsr_perm_[mid]) <= p.source) {
          a = mid + 1;
        } else {
          b = mid;
        }
      }
      for (uint32_t k = sub_lo; k < a; ++k) {
        const uint32_t row = tsr_perm_[k];
        if (!visit(Fact(p.source, rel_[row], p.target))) return false;
      }
      return true;
    }
    // (s, ?, ?): the canonical slice.
    for (uint32_t row = lo; row < hi; ++row) {
      if (!visit(Fact(p.source, rel_[row], tgt_[row]))) return false;
    }
    return true;
  }

  if (p.RelationshipBound()) {
    auto [klo, khi] = OffsetRange(rel_offsets_, p.relationship);
    if (p.TargetBound()) {
      // (?, r, t): target subrange of the relationship slice (tgt_ over
      // the RTS permutation is sorted within a relationship); sources
      // ascend within it.
      uint32_t a = klo;
      uint32_t b = khi;
      while (a < b) {
        const uint32_t mid = a + (b - a) / 2;
        if (tgt_[rts_perm_[mid]] < p.target) {
          a = mid + 1;
        } else {
          b = mid;
        }
      }
      const uint32_t sub_lo = a;
      b = khi;
      while (a < b) {
        const uint32_t mid = a + (b - a) / 2;
        if (tgt_[rts_perm_[mid]] <= p.target) {
          a = mid + 1;
        } else {
          b = mid;
        }
      }
      SourceCursor cursor(src_offsets_);
      for (uint32_t k = sub_lo; k < a; ++k) {
        if (!visit(Fact(cursor.Get(rts_perm_[k]), p.relationship,
                        p.target))) {
          return false;
        }
      }
      return true;
    }
    // (?, r, ?): two strategies. Gathering through the RTS permutation
    // slice touches (khi - klo) rows in random order and re-seeks the
    // source cursor at every target-group reset — for a dense
    // relationship that loses to streaming the canonical columns and
    // filtering, which reads sequentially and decodes sources for free
    // from the CSR walk. The gather stays for sparse relationships,
    // where the direct scan's O(n) pass would dwarf the slice.
    const uint32_t slice = khi - klo;
    const bool direct =
        rel_scan_mode_ == RelScanMode::kDirect ||
        (rel_scan_mode_ == RelScanMode::kAuto &&
         static_cast<uint64_t>(slice) * kDirectRelScanDensity >= size());
    if (direct) {
      for (EntityId s = 0; s + 1 < src_offsets_.size(); ++s) {
        for (uint32_t row = src_offsets_[s]; row < src_offsets_[s + 1];
             ++row) {
          if (rel_[row] != p.relationship) continue;
          if (!visit(Fact(s, p.relationship, tgt_[row]))) return false;
        }
      }
      return true;
    }
    SourceCursor cursor(src_offsets_);
    for (uint32_t k = klo; k < khi; ++k) {
      const uint32_t row = rts_perm_[k];
      if (!visit(Fact(cursor.Get(row), p.relationship, tgt_[row]))) {
        return false;
      }
    }
    return true;
  }

  // (?, ?, t): sources ascend across the whole target slice.
  auto [klo, khi] = OffsetRange(tgt_offsets_, p.target);
  SourceCursor cursor(src_offsets_);
  for (uint32_t k = klo; k < khi; ++k) {
    const uint32_t row = tsr_perm_[k];
    if (!visit(Fact(cursor.Get(row), rel_[row], p.target))) return false;
  }
  return true;
}

size_t FrozenIndex::CountMatches(const Pattern& p) const {
  const int bound = p.BoundCount();
  if (bound == 0) return size();
  if (bound == 3) {
    return Contains(Fact(p.source, p.relationship, p.target)) ? 1 : 0;
  }

  if (p.SourceBound()) {
    auto [lo, hi] = OffsetRange(src_offsets_, p.source);
    if (bound == 1) return hi - lo;
    if (p.RelationshipBound()) {
      const EntityId* first = rel_.data() + lo;
      const EntityId* last = rel_.data() + hi;
      return static_cast<size_t>(
          std::upper_bound(first, last, p.relationship) -
          std::lower_bound(first, last, p.relationship));
    }
    // (s, ?, t): decoded binary search over the target slice.
    auto [klo, khi] = OffsetRange(tgt_offsets_, p.target);
    SourceCursor probe(src_offsets_);
    uint32_t a = klo;
    uint32_t b = khi;
    while (a < b) {
      const uint32_t mid = a + (b - a) / 2;
      if (probe.Get(tsr_perm_[mid]) < p.source) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    const uint32_t sub_lo = a;
    b = khi;
    while (a < b) {
      const uint32_t mid = a + (b - a) / 2;
      if (probe.Get(tsr_perm_[mid]) <= p.source) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    return a - sub_lo;
  }

  if (p.RelationshipBound()) {
    auto [klo, khi] = OffsetRange(rel_offsets_, p.relationship);
    if (bound == 1) return khi - klo;
    // (?, r, t).
    uint32_t a = klo;
    uint32_t b = khi;
    while (a < b) {
      const uint32_t mid = a + (b - a) / 2;
      if (tgt_[rts_perm_[mid]] < p.target) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    const uint32_t sub_lo = a;
    b = khi;
    while (a < b) {
      const uint32_t mid = a + (b - a) / 2;
      if (tgt_[rts_perm_[mid]] <= p.target) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    return a - sub_lo;
  }

  // (?, ?, t).
  auto [klo, khi] = OffsetRange(tgt_offsets_, p.target);
  return khi - klo;
}

double FrozenIndex::EstimateMatchesBound(const Pattern& p,
                                         uint8_t bound_mask) const {
  return ScaleByDistinct(static_cast<double>(CountMatches(p)), bound_mask,
                         distinct_sources_, distinct_rels_,
                         distinct_targets_);
}

bool FrozenIndex::SortedFreeValues(const Pattern& p,
                                   std::vector<EntityId>* scratch,
                                   SortedIdSpan* out) const {
  if (p.BoundCount() != 2) return false;
  if (!p.TargetBound()) {
    // (s, r, ?): the target subrange of the source's canonical slice is
    // already a contiguous ascending run — zero copy.
    auto [lo, hi] = OffsetRange(src_offsets_, p.source);
    const EntityId* first = rel_.data() + lo;
    const EntityId* last = rel_.data() + hi;
    const size_t sub_lo = static_cast<size_t>(
        std::lower_bound(first, last, p.relationship) - rel_.data());
    const size_t sub_hi = static_cast<size_t>(
        std::upper_bound(first, last, p.relationship) - rel_.data());
    out->data = tgt_.data() + sub_lo;
    out->size = sub_hi - sub_lo;
    return true;
  }
  // The remaining shapes decode a permutation slice into the scratch
  // buffer; ForEach already emits them in ascending free-position order.
  scratch->clear();
  const int free_pos = p.SourceBound() ? 1 : 0;
  ForEach(p, [&](const Fact& f) {
    scratch->push_back(free_pos == 0 ? f.source : f.relationship);
    return true;
  });
  out->data = scratch->data();
  out->size = scratch->size();
  return true;
}

void FrozenIndex::AppendMissing(const std::vector<Fact>& run,
                                std::vector<Fact>* out) const {
  // Both the run and each source's row slice are (r, t)-sorted, so walk
  // them in lockstep per source group: one pass over the slice replaces
  // a binary search per run fact. Sources with huge slices and few run
  // facts fall back to the scoped binary search (Contains) to avoid
  // scanning deg(source) rows for one probe.
  size_t j = 0;
  const size_t nr = run.size();
  while (j < nr) {
    const EntityId s = run[j].source;
    size_t group_end = j;
    while (group_end < nr && run[group_end].source == s) ++group_end;
    auto [lo, hi] = OffsetRange(src_offsets_, s);
    const size_t group_n = group_end - j;
    if (hi - lo > 16 * group_n) {
      for (; j < group_end; ++j) {
        if (!Contains(run[j])) out->push_back(run[j]);
      }
      continue;
    }
    uint32_t row = lo;
    for (; j < group_end; ++j) {
      const uint64_t key = PackRt(run[j].relationship, run[j].target);
      while (row < hi && PackRt(rel_[row], tgt_[row]) < key) ++row;
      if (row >= hi || PackRt(rel_[row], tgt_[row]) != key) {
        out->push_back(run[j]);
      }
    }
  }
}

FrozenIndex::Memory FrozenIndex::MemoryUsage() const {
  Memory m;
  m.run_bytes = rel_.capacity() * sizeof(EntityId) +
                tgt_.capacity() * sizeof(EntityId);
  m.perm_bytes = rts_perm_.capacity() * sizeof(uint32_t) +
                 tsr_perm_.capacity() * sizeof(uint32_t);
  m.offset_bytes = src_offsets_.capacity() * sizeof(uint32_t) +
                   rel_offsets_.capacity() * sizeof(uint32_t) +
                   tgt_offsets_.capacity() * sizeof(uint32_t);
  return m;
}

}  // namespace lsd
