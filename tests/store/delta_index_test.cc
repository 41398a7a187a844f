#include "store/delta_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "store/triple_index.h"
#include "util/random.h"

namespace lsd {
namespace {

Fact RandomFact(Rng& rng) {
  return Fact(static_cast<EntityId>(rng.Uniform(12)),
              static_cast<EntityId>(rng.Uniform(5)),
              static_cast<EntityId>(rng.Uniform(12)));
}

TEST(DeltaIndexTest, InsertDeduplicatesAcrossTiers) {
  DeltaIndex idx(FrozenIndex({Fact(1, 2, 3)}));
  EXPECT_FALSE(idx.Insert(Fact(1, 2, 3)));  // already frozen
  EXPECT_TRUE(idx.Insert(Fact(4, 5, 6)));   // new, goes to overlay
  EXPECT_FALSE(idx.Insert(Fact(4, 5, 6)));  // already in overlay
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.frozen_size(), 1u);
  EXPECT_EQ(idx.overlay_size(), 1u);
  EXPECT_TRUE(idx.Contains(Fact(1, 2, 3)));
  EXPECT_TRUE(idx.Contains(Fact(4, 5, 6)));
  EXPECT_FALSE(idx.Contains(Fact(1, 2, 4)));
}

TEST(DeltaIndexTest, CompactPreservesContents) {
  Rng rng(3);
  DeltaIndex idx;
  TripleIndex reference;
  for (int i = 0; i < 300; ++i) {
    Fact f = RandomFact(rng);
    EXPECT_EQ(idx.Insert(f), reference.Insert(f));
    if (i == 150) {
      // Fold the first half into one segment, as the compactor does.
      auto merged = std::make_shared<const FrozenIndex>(idx.BuildMerged());
      ASSERT_TRUE(idx.SwapMergedPrefix(idx.segments(), merged));
      EXPECT_EQ(idx.overlay_size(), 0u);
    }
  }
  const FrozenIndex merged = idx.BuildMerged();
  EXPECT_EQ(merged.size(), reference.size());
  EXPECT_EQ(merged.Materialize(), reference.Match(Pattern()));
  EXPECT_EQ(idx.Materialize(), reference.Match(Pattern()));
  reference.ForEach(Pattern(), [&](const Fact& f) {
    EXPECT_TRUE(idx.Contains(f));
    return true;
  });
}

// A run of facts spread over two segments and the overlay.
DeltaIndex ThreeTiers(std::vector<Fact>* all) {
  DeltaIndex idx;
  std::vector<Fact> old_run, new_run;
  for (EntityId i = 0; i < 4 * DeltaIndex::kL0MinRun; ++i) {
    old_run.push_back(Fact(i, 1, 2));
  }
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun; ++i) {
    new_run.push_back(Fact(i, 3, 4));
  }
  std::sort(new_run.begin(), new_run.end(), OrderSrt());
  idx.InsertRun(old_run);
  idx.InsertRun(new_run);  // too small to tail-merge into the first
  idx.Insert(Fact(9000, 1, 2));
  idx.Insert(Fact(9001, 1, 2));
  *all = idx.Materialize();
  return idx;
}

TEST(DeltaIndexTest, EraseOverlayOnlyKeepsEverySegment) {
  std::vector<Fact> all;
  DeltaIndex idx = ThreeTiers(&all);
  ASSERT_EQ(idx.segment_count(), 2u);
  const auto before = idx.segments();
  DeltaIndex copy = idx.Clone();
  EXPECT_EQ(idx.Erase({Fact(9000, 1, 2), Fact(9999, 1, 2)}), 1u);
  EXPECT_EQ(idx.erase_count(), 1u);
  EXPECT_FALSE(idx.Contains(Fact(9000, 1, 2)));
  EXPECT_TRUE(idx.Contains(Fact(9001, 1, 2)));
  EXPECT_EQ(idx.overlay_size(), 1u);
  EXPECT_EQ(idx.size(), all.size() - 1);
  ASSERT_EQ(idx.segment_count(), 2u);
  EXPECT_EQ(idx.segments()[0].get(), before[0].get());
  EXPECT_EQ(idx.segments()[1].get(), before[1].get());
  // The clone taken before is unaffected.
  EXPECT_TRUE(copy.Contains(Fact(9000, 1, 2)));
  EXPECT_EQ(copy.erase_count(), 0u);
}

TEST(DeltaIndexTest, EraseRewritesOnlyTheSegmentsHoldingAFact) {
  std::vector<Fact> all;
  DeltaIndex idx = ThreeTiers(&all);
  const auto before = idx.segments();
  DeltaIndex copy = idx.Clone();
  // Two facts of the newer segment; the older one holds neither.
  const std::vector<Fact> gone = {Fact(5, 3, 4), Fact(7, 3, 4)};
  EXPECT_EQ(idx.Erase(gone), 2u);
  EXPECT_EQ(idx.erase_count(), 2u);
  ASSERT_EQ(idx.segment_count(), 2u);
  EXPECT_EQ(idx.segments()[0].get(), before[0].get()) << "untouched";
  EXPECT_NE(idx.segments()[1].get(), before[1].get()) << "rewritten";
  EXPECT_EQ(idx.frozen_size(), before[0]->size() + before[1]->size() - 2);
  std::vector<Fact> want;
  for (const Fact& f : all) {
    if (f != gone[0] && f != gone[1]) want.push_back(f);
  }
  EXPECT_EQ(idx.Materialize(), want);
  for (int mask = 0; mask < 8; ++mask) {
    Pattern p;
    if (mask & 1) p.source = 5;
    if (mask & 2) p.relationship = 3;
    if (mask & 4) p.target = 4;
    size_t n = 0;
    for (const Fact& f : want) n += p.Matches(f) ? 1 : 0;
    EXPECT_EQ(idx.CountMatches(p), n) << "mask=" << mask;
  }
  // The clone still shares the old generation and sees both facts.
  EXPECT_EQ(copy.segments()[1].get(), before[1].get());
  EXPECT_TRUE(copy.Contains(gone[0]));

  // Erasing every fact of a segment drops it.
  std::vector<Fact> rest;
  for (const Fact& f : want) {
    if (f.relationship == 3) rest.push_back(f);
  }
  EXPECT_EQ(idx.Erase(rest), rest.size());
  ASSERT_EQ(idx.segment_count(), 1u);
  EXPECT_EQ(idx.segments()[0].get(), before[0].get());
  EXPECT_EQ(idx.size(), all.size() - DeltaIndex::kL0MinRun);
}

TEST(DeltaIndexTest, InsertRunSmallGoesToOverlayLargeToSegment) {
  DeltaIndex idx;
  // Small run: below kL0MinRun, lands in the overlay.
  std::vector<Fact> small = {Fact(1, 1, 1), Fact(2, 2, 2)};
  EXPECT_EQ(idx.InsertRun(small), 2u);
  EXPECT_EQ(idx.overlay_size(), 2u);
  EXPECT_EQ(idx.segment_count(), 0u);

  // Large run: becomes an L0 frozen segment. The overlay is NOT folded
  // in — that is the background compactor's job, not the insert path's.
  std::vector<Fact> large;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun + 10; ++i) {
    large.push_back(Fact(i + 10, 0, 0));
  }
  std::sort(large.begin(), large.end(), OrderSrt());
  EXPECT_EQ(idx.InsertRun(large), large.size());
  EXPECT_EQ(idx.overlay_size(), 2u);
  EXPECT_EQ(idx.segment_count(), 1u);
  EXPECT_EQ(idx.size(), 2u + large.size());
  EXPECT_TRUE(idx.Contains(Fact(1, 1, 1)));
  EXPECT_TRUE(idx.Contains(large.front()));
  EXPECT_TRUE(idx.Contains(large.back()));

  // Re-inserting the same run adds nothing.
  EXPECT_EQ(idx.InsertRun(large), 0u);
  EXPECT_EQ(idx.size(), 2u + large.size());
}

TEST(DeltaIndexTest, InsertRunKeepsSegmentSizesGeometric) {
  // Equal-sized runs trip the tail-merge every time (the newest segment
  // is at least half the previous), so the list stays logarithmic in
  // the total size instead of growing one segment per run.
  DeltaIndex idx;
  const size_t n = DeltaIndex::kL0MinRun;
  for (int round = 0; round < 16; ++round) {
    std::vector<Fact> run;
    for (size_t i = 0; i < n; ++i) {
      run.push_back(Fact(static_cast<EntityId>(round * n + i), 1, 2));
    }
    EXPECT_EQ(idx.InsertRun(run), n);
  }
  EXPECT_EQ(idx.size(), 16 * n);
  EXPECT_LE(idx.segment_count(), 5u);  // ~log2(16) + slack, not 16
  // Oldest-to-newest the segments must shrink by at least 2x.
  const auto& segs = idx.segments();
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    EXPECT_GT(segs[i]->size(), 2 * segs[i + 1]->size() - 2);
  }
}

// ISSUE 10 satellite 1: inserting a modest run next to a large frozen
// generation must not rebuild the large generation (the old
// "overlay >= frozen/4 => fold everything" stall). The big segment must
// survive by pointer identity and the insert only appends after it.
TEST(DeltaIndexTest, InsertRunNeverRebuildsLargeOldGenerations) {
  std::vector<Fact> big;
  for (EntityId i = 0; i < 20'000; ++i) big.push_back(Fact(i, 1, 2));
  DeltaIndex idx(FrozenIndex(std::move(big)));
  ASSERT_EQ(idx.segment_count(), 1u);
  const FrozenIndex* big_segment = idx.segments()[0].get();

  // A run a quarter the frozen size — exactly the shape that used to
  // trigger the monolithic rebuild.
  std::vector<Fact> run;
  for (EntityId i = 0; i < 5'000; ++i) run.push_back(Fact(i, 3, 4));
  EXPECT_EQ(idx.InsertRun(run), run.size());

  ASSERT_GE(idx.segment_count(), 2u);
  EXPECT_EQ(idx.segments()[0].get(), big_segment)
      << "the old generation was rebuilt on the insert path";
  EXPECT_EQ(idx.size(), 25'000u);
}

TEST(DeltaIndexTest, CloneSharesSegmentsAndForksOverlay) {
  DeltaIndex idx;
  std::vector<Fact> run;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun; ++i) {
    run.push_back(Fact(i, 1, 2));
  }
  idx.InsertRun(run);
  idx.Insert(Fact(9000, 1, 2));
  DeltaIndex copy = idx.Clone();
  ASSERT_EQ(copy.segment_count(), idx.segment_count());
  EXPECT_EQ(copy.segments()[0].get(), idx.segments()[0].get());  // shared
  // Overlays are independent.
  EXPECT_TRUE(copy.Insert(Fact(9001, 1, 2)));
  EXPECT_FALSE(idx.Contains(Fact(9001, 1, 2)));
  EXPECT_TRUE(copy.Contains(Fact(9000, 1, 2)));
  EXPECT_EQ(idx.size() + 1, copy.size());
}

TEST(DeltaIndexTest, SwapMergedPrefixInstallsAndDetectsStaleness) {
  DeltaIndex idx;
  // 4x the later run so the post-pin InsertRun below stays its own
  // segment instead of tail-merging into (and so invalidating) the
  // pinned one.
  std::vector<Fact> run;
  for (EntityId i = 0; i < 4 * DeltaIndex::kL0MinRun; ++i) {
    run.push_back(Fact(i, 1, 2));
  }
  idx.InsertRun(run);
  idx.Insert(Fact(9000, 1, 2));  // overlay fact, pinned
  // Pin the tiers (what the compactor does off-thread)...
  auto pinned = idx.segments();
  auto merged = std::make_shared<const FrozenIndex>(idx.BuildMerged());
  // ...then mutate past the pin: these must survive the swap.
  idx.Insert(Fact(9001, 1, 2));
  std::vector<Fact> late;
  for (EntityId i = 0; i < DeltaIndex::kL0MinRun; ++i) {
    late.push_back(Fact(20'000 + i, 1, 2));
  }
  std::sort(late.begin(), late.end(), OrderSrt());
  idx.InsertRun(late);

  const size_t before = idx.size();
  ASSERT_TRUE(idx.SwapMergedPrefix(pinned, merged));
  EXPECT_EQ(idx.size(), before);  // nothing lost, nothing duplicated
  EXPECT_TRUE(idx.Contains(Fact(0, 1, 2)));
  EXPECT_TRUE(idx.Contains(Fact(9000, 1, 2)));  // folded into `merged`
  EXPECT_TRUE(idx.Contains(Fact(9001, 1, 2)));  // post-pin overlay fact
  EXPECT_TRUE(idx.Contains(late.front()));      // post-pin segment
  EXPECT_EQ(idx.segments()[0].get(), merged.get());
  // The pinned overlay fact moved into the merged generation.
  EXPECT_EQ(idx.overlay_size(), 1u);

  // A second swap against the consumed prefix is stale: the index must
  // refuse and stay untouched.
  const size_t segments_now = idx.segment_count();
  EXPECT_FALSE(idx.SwapMergedPrefix(pinned, merged));
  EXPECT_EQ(idx.segment_count(), segments_now);
  EXPECT_EQ(idx.size(), before);
}

TEST(DeltaIndexTest, ForEachStopsEarlyAcrossTiers) {
  DeltaIndex idx(FrozenIndex({Fact(1, 2, 3), Fact(4, 5, 6)}));
  idx.Insert(Fact(7, 8, 9));
  int seen = 0;
  bool complete = idx.ForEach(Pattern(), [&](const Fact&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 2);
}

// The two-tier index must answer all 8 binding patterns exactly like a
// plain TripleIndex holding the same facts, with the facts split across
// tiers at an arbitrary point — and CountMatches must equal the match
// count (it feeds the kEstimatedCost join order).
class DeltaIndexPatternTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaIndexPatternTest, AgreesWithTripleIndex) {
  const int mask = GetParam();
  Rng rng(19);
  TripleIndex reference;
  std::vector<Fact> all;
  for (int i = 0; i < 400; ++i) {
    Fact f = RandomFact(rng);
    if (reference.Insert(f)) all.push_back(f);
  }
  // First half frozen, second half overlaid, a fact duplicated in both
  // insert streams to exercise dedup.
  const size_t half = all.size() / 2;
  DeltaIndex idx(FrozenIndex(
      std::vector<Fact>(all.begin(), all.begin() + half)));
  for (size_t i = half; i < all.size(); ++i) idx.Insert(all[i]);
  idx.Insert(all.front());
  ASSERT_EQ(idx.size(), reference.size());

  auto by_key = [](const Fact& a, const Fact& b) {
    return OrderSrt()(a, b);
  };
  for (int trial = 0; trial < 40; ++trial) {
    Pattern p;
    if (mask & 1) p.source = static_cast<EntityId>(rng.Uniform(12));
    if (mask & 2) p.relationship = static_cast<EntityId>(rng.Uniform(5));
    if (mask & 4) p.target = static_cast<EntityId>(rng.Uniform(12));
    std::vector<Fact> want = reference.Match(p);
    std::vector<Fact> got = idx.Match(p);
    std::sort(want.begin(), want.end(), by_key);
    std::sort(got.begin(), got.end(), by_key);
    EXPECT_EQ(got, want) << "mask=" << mask;
    EXPECT_EQ(idx.CountMatches(p), want.size()) << "mask=" << mask;
    EXPECT_EQ(idx.EstimateMatches(p), want.size()) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, DeltaIndexPatternTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace lsd
