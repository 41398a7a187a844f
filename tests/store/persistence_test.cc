#include "store/persistence.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "store/delta_index.h"
#include "store/text_format.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace lsd {
namespace {

// Segment files are `<base>.NNNNNN`; every segment starts with a
// 24-byte header (magic, generation, sequence).
constexpr long kSegmentHeaderBytes = 24;

// Log one fact record, as a group of one.
Status LogAssert(Wal* wal, const FactStore& store, const Fact& f) {
  return wal->AppendBatch({WalFactRecord(WalOpCode::kAssert,
                                         store.entities(), f)});
}
Status LogRetract(Wal* wal, const FactStore& store, const Fact& f) {
  return wal->AppendBatch({WalFactRecord(WalOpCode::kRetract,
                                         store.entities(), f)});
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsd_persist_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    failpoint::ClearAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  // The first (and usually only) segment of a WAL base path.
  static std::string Segment(const std::string& base, int seq = 1) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), ".%06d", seq);
    return base + suffix;
  }

  static size_t CountSegments(const std::string& base) {
    size_t n = 0;
    for (int seq = 1; seq < 100; ++seq) {
      if (std::filesystem::exists(Segment(base, seq))) ++n;
    }
    return n;
  }

  static std::string ReadAll(const std::string& path) {
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    return bytes;
  }

  static void WriteAll(const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, SnapshotRoundTrip) {
  FactStore store;
  std::vector<Rule> rules;
  store.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  store.Assert("SHIPPING", "IN", "DEPARTMENT");
  std::vector<Fact> no_facts;
  ASSERT_TRUE(ParseText("rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, "
                        "SALARY)\n",
                        &store.entities(), &no_facts, &rules)
                  .ok());
  rules[0].enabled = false;

  ASSERT_TRUE(SaveSnapshot(Path("db.snap"), store, rules, 7).ok());

  FactStore loaded;
  std::vector<Rule> loaded_rules;
  uint64_t generation = 0;
  Status s = LoadSnapshot(Path("db.snap"), &loaded, &loaded_rules,
                          &generation);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(generation, 7u);
  EXPECT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.entities().size(), store.entities().size());
  EXPECT_TRUE(loaded.Contains(Fact(*loaded.entities().Lookup("JOHN"),
                                   *loaded.entities().Lookup("WORKS-FOR"),
                                   *loaded.entities().Lookup("SHIPPING"))));
  ASSERT_EQ(loaded_rules.size(), 1u);
  EXPECT_EQ(loaded_rules[0].name, "pay");
  EXPECT_FALSE(loaded_rules[0].enabled);
}

TEST_F(PersistenceTest, SnapshotPreservesEntityIds) {
  FactStore store;
  store.Assert("A", "R", "B");
  EntityId a = *store.entities().Lookup("A");

  ASSERT_TRUE(SaveSnapshot(Path("ids.snap"), store, {}).ok());
  FactStore loaded;
  ASSERT_TRUE(LoadSnapshot(Path("ids.snap"), &loaded, nullptr).ok());
  EXPECT_EQ(*loaded.entities().Lookup("A"), a);
}

TEST_F(PersistenceTest, SnapshotAtomicLeavesNoTmp) {
  FactStore store;
  store.Assert("A", "R", "B");
  ASSERT_TRUE(SaveSnapshotAtomic(Path("a.snap"), store, {}, 3).ok());
  EXPECT_FALSE(std::filesystem::exists(Path("a.snap.tmp")));
  FactStore loaded;
  uint64_t generation = 0;
  ASSERT_TRUE(
      LoadSnapshot(Path("a.snap"), &loaded, nullptr, &generation).ok());
  EXPECT_EQ(generation, 3u);
  EXPECT_EQ(loaded.size(), 1u);
}

TEST_F(PersistenceTest, LoadSnapshotRequiresFreshStore) {
  FactStore store;
  store.Assert("A", "R", "B");
  ASSERT_TRUE(SaveSnapshot(Path("x.snap"), store, {}).ok());
  Status s = LoadSnapshot(Path("x.snap"), &store, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, LoadRejectsGarbage) {
  std::FILE* f = std::fopen(Path("junk.snap").c_str(), "wb");
  std::fputs("not a snapshot", f);
  std::fclose(f);
  FactStore store;
  Status s = LoadSnapshot(Path("junk.snap"), &store, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, SnapshotChecksumCatchesEveryByteFlip) {
  FactStore store;
  store.Assert("ALPHA", "REL", "BETA");
  store.Assert("GAMMA", "REL", "DELTA");
  ASSERT_TRUE(SaveSnapshot(Path("c.snap"), store, {}).ok());
  const std::string good = ReadAll(Path("c.snap"));
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] ^= 0x40;
    WriteAll(Path("flip.snap"), bad);
    FactStore loaded;
    Status s = LoadSnapshot(Path("flip.snap"), &loaded, nullptr);
    EXPECT_FALSE(s.ok()) << "flip at " << pos << " was accepted";
  }
}

// Checksums catch damage, not a crafted file: a snapshot with a valid
// trailer whose fact names an entity id past its own entity table must
// be rejected before anything reaches the store.
TEST_F(PersistenceTest, SnapshotRejectsFactIdsPastItsEntityTable) {
  FactStore store;
  store.Assert("ALPHA", "REL", "BETA");
  ASSERT_TRUE(SaveSnapshot(Path("ids.snap"), store, {}).ok());
  std::string bytes = ReadAll(Path("ids.snap"));
  // With no rules the file ends [fact: 3 x u32][rule count][crc].
  ASSERT_GE(bytes.size(), 20u);
  const uint32_t past_end = static_cast<uint32_t>(store.entities().size());
  std::memcpy(&bytes[bytes.size() - 20], &past_end, sizeof(past_end));
  const uint32_t crc = Crc32cExtend(0, bytes.data(), bytes.size() - 4);
  std::memcpy(&bytes[bytes.size() - 4], &crc, sizeof(crc));
  WriteAll(Path("ids.snap"), bytes);

  FactStore loaded;
  Status s = LoadSnapshot(Path("ids.snap"), &loaded, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.entities().size(), size_t{kNumBuiltinEntities});
}

// A count field is bounded by the bytes that remain: a huge entity
// count with a valid trailer is an error, never an allocation.
TEST_F(PersistenceTest, SnapshotCountsAreBoundedByItsSize) {
  std::string bytes = "LSDSNAP2";
  const uint64_t generation = 0;
  const uint32_t entity_count = 0xFFFFFFF0u;
  bytes.append(reinterpret_cast<const char*>(&generation), 8);
  bytes.append(reinterpret_cast<const char*>(&entity_count), 4);
  const uint32_t crc = Crc32cExtend(0, bytes.data(), bytes.size());
  bytes.append(reinterpret_cast<const char*>(&crc), 4);
  WriteAll(Path("huge.snap"), bytes);

  FactStore loaded;
  Status s = LoadSnapshot(Path("huge.snap"), &loaded, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_EQ(loaded.entities().size(), size_t{kNumBuiltinEntities});
}

TEST_F(PersistenceTest, WalReplayAppliesMutations) {
  {
    FactStore store;
    Fact f1 = store.Assert("A", "R", "B");
    Fact f2 = store.Assert("C", "R", "D");
    Wal wal;
    ASSERT_TRUE(wal.Open(Path("db.wal")).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f1).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f2).ok());
    ASSERT_TRUE(LogRetract(&wal, store, f1).ok());
  }
  FactStore replayed;
  std::vector<Rule> rules;
  RecoveryStats stats;
  Status s = Wal::Replay(Path("db.wal"), &replayed, &rules, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(replayed.Contains(Fact(*replayed.entities().Lookup("C"),
                                     *replayed.entities().Lookup("R"),
                                     *replayed.entities().Lookup("D"))));
  EXPECT_EQ(stats.records_replayed, 3u);
  EXPECT_EQ(stats.segments_replayed, 1u);
  EXPECT_FALSE(stats.tail_truncated);
  EXPECT_EQ(stats.bytes_dropped, 0u);
}

// Replay holds fact records back and applies each fact's last record
// as one retract run and one assert run; the result must equal applying
// the records one by one, for facts that start in a frozen segment, in
// the overlay, or nowhere.
TEST_F(PersistenceTest, WalReplayMatchesOneByOneApplication) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    FactStore writer;
    FactStore replayed;
    std::vector<Fact> pool;
    for (int i = 0; i < 400; ++i) {
      const std::string s = "S" + std::to_string(i);
      const std::string t = "T" + std::to_string(i % 7);
      pool.push_back(writer.entities().InternFact(s, "R", t));
      ASSERT_EQ(replayed.entities().InternFact(s, "R", t), pool.back());
    }
    // The state the log starts from: 300 facts in a frozen segment and
    // 20 in the overlay.
    const std::vector<Fact> bulk(pool.begin(), pool.begin() + 300);
    replayed.AssertRun(bulk);
    for (int i = 300; i < 320; ++i) replayed.Assert(pool[i]);
    ASSERT_EQ(replayed.base().frozen_size(), 300u);
    std::set<Fact, OrderSrt> expect(pool.begin(), pool.begin() + 320);
    const std::string base = Path("mixed" + std::to_string(seed) + ".wal");
    {
      Wal wal;
      ASSERT_TRUE(wal.Open(base).ok());
      for (int op = 0; op < 600; ++op) {
        const Fact f = pool[rng.Uniform(pool.size())];
        if (rng.Uniform(2) == 0) {
          ASSERT_TRUE(LogAssert(&wal, writer, f).ok());
          expect.insert(f);
        } else {
          ASSERT_TRUE(LogRetract(&wal, writer, f).ok());
          expect.erase(f);
        }
      }
    }
    ASSERT_TRUE(Wal::Replay(base, &replayed, nullptr).ok());
    EXPECT_EQ(replayed.base().Materialize(),
              std::vector<Fact>(expect.begin(), expect.end()));
  }
}

TEST_F(PersistenceTest, WalReplayHandlesRulesAndToggles) {
  FactStore store;
  std::vector<Rule> rules;
  std::vector<Fact> no_facts;
  ASSERT_TRUE(ParseText("rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, "
                        "SALARY)\n",
                        &store.entities(), &no_facts, &rules)
                  .ok());
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(Path("rules.wal")).ok());
    ASSERT_TRUE(wal.AppendBatch({WalRuleRecord(rules[0], store.entities()),
                                 WalRuleEnabledRecord("pay", false)})
                    .ok());
  }
  FactStore replayed;
  std::vector<Rule> replayed_rules;
  ASSERT_TRUE(
      Wal::Replay(Path("rules.wal"), &replayed, &replayed_rules).ok());
  ASSERT_EQ(replayed_rules.size(), 1u);
  EXPECT_EQ(replayed_rules[0].name, "pay");
  EXPECT_FALSE(replayed_rules[0].enabled);
}

TEST_F(PersistenceTest, MissingWalIsEmpty) {
  FactStore store;
  RecoveryStats stats;
  EXPECT_TRUE(Wal::Replay(Path("nope.wal"), &store, nullptr, &stats).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(stats.segments_replayed, 0u);
  EXPECT_EQ(stats.records_replayed, 0u);
}

TEST_F(PersistenceTest, WalSurvivesReopen) {
  FactStore store;
  Fact f1 = store.Assert("A", "R", "B");
  Fact f2 = store.Assert("C", "R", "D");
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(Path("re.wal")).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f1).ok());
  }
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(Path("re.wal")).ok());  // append mode
    ASSERT_TRUE(LogAssert(&wal, store, f2).ok());
  }
  FactStore replayed;
  ASSERT_TRUE(Wal::Replay(Path("re.wal"), &replayed, nullptr).ok());
  EXPECT_EQ(replayed.size(), 2u);
}

TEST_F(PersistenceTest, WalRotatesSegmentsAndReplaysAll) {
  FactStore store;
  std::vector<Fact> facts;
  for (int i = 0; i < 20; ++i) {
    facts.push_back(store.Assert("E" + std::to_string(i), "R", "T"));
  }
  WalOptions options;
  options.segment_bytes = 64;  // a couple of records per segment
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(Path("rot.wal"), options).ok());
    for (const Fact& f : facts) {
      ASSERT_TRUE(LogAssert(&wal, store, f).ok());
    }
  }
  EXPECT_GE(CountSegments(Path("rot.wal")), 5u);
  FactStore replayed;
  RecoveryStats stats;
  ASSERT_TRUE(Wal::Replay(Path("rot.wal"), &replayed, nullptr, &stats).ok());
  EXPECT_EQ(replayed.size(), facts.size());
  EXPECT_EQ(stats.records_replayed, facts.size());
  EXPECT_GE(stats.segments_replayed, 5u);
}

TEST_F(PersistenceTest, BeginGenerationDropsOldSegments) {
  FactStore store;
  Fact old_fact = store.Assert("OLD", "R", "T");
  Fact new_fact = store.Assert("NEW", "R", "T");
  Wal wal;
  ASSERT_TRUE(wal.Open(Path("gen.wal")).ok());
  ASSERT_TRUE(LogAssert(&wal, store, old_fact).ok());
  ASSERT_TRUE(wal.BeginGeneration(1).ok());
  EXPECT_EQ(wal.generation(), 1u);
  EXPECT_EQ(wal.generation_bytes(), 0u);
  ASSERT_TRUE(LogAssert(&wal, store, new_fact).ok());
  wal.Close();

  // Only the post-checkpoint segment survives.
  EXPECT_FALSE(std::filesystem::exists(Segment(Path("gen.wal"), 1)));
  ASSERT_TRUE(std::filesystem::exists(Segment(Path("gen.wal"), 2)));
  FactStore replayed;
  ASSERT_TRUE(
      Wal::Replay(Path("gen.wal"), &replayed, nullptr, nullptr, 1).ok());
  EXPECT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(replayed.entities().Lookup("NEW").has_value());
  EXPECT_FALSE(replayed.entities().Lookup("OLD").has_value());
}

TEST_F(PersistenceTest, ReplaySkipsStaleGenerationSegments) {
  // Simulate a crash between snapshot publication and old-segment
  // cleanup: a stale generation-0 segment lingers next to the
  // generation-1 segment. Replay at min_generation 1 must skip it (its
  // records are already in the snapshot) and finish the cleanup.
  FactStore store;
  Fact old_fact = store.Assert("OLD", "R", "T");
  Fact new_fact = store.Assert("NEW", "R", "T");
  Wal wal;
  ASSERT_TRUE(wal.Open(Path("stale.wal")).ok());
  ASSERT_TRUE(LogAssert(&wal, store, old_fact).ok());
  const std::string stale_bytes = ReadAll(Segment(Path("stale.wal"), 1));
  ASSERT_TRUE(wal.BeginGeneration(1).ok());
  ASSERT_TRUE(LogAssert(&wal, store, new_fact).ok());
  wal.Close();
  WriteAll(Segment(Path("stale.wal"), 1), stale_bytes);  // resurrect

  FactStore replayed;
  RecoveryStats stats;
  ASSERT_TRUE(
      Wal::Replay(Path("stale.wal"), &replayed, nullptr, &stats, 1).ok());
  EXPECT_EQ(replayed.size(), 1u);
  EXPECT_FALSE(replayed.entities().Lookup("OLD").has_value());
  EXPECT_EQ(stats.segments_skipped, 1u);
  EXPECT_EQ(stats.records_replayed, 1u);
  // The stale segment was cleaned up for good.
  EXPECT_FALSE(std::filesystem::exists(Segment(Path("stale.wal"), 1)));
}

TEST_F(PersistenceTest, WalToleratesTornFinalRecord) {
  // A crash mid-append leaves a half-written final record. Replay must
  // keep every complete record, drop the torn tail, and truncate the
  // log so the next append continues from a clean point. Exercise every
  // possible chop position by byte-chopping the segment.
  FactStore store;
  Fact f1 = store.Assert("A", "R", "B");
  Fact f2 = store.Assert("C", "R", "D");
  const std::string segment = Segment(Path("full.wal"));
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(Path("full.wal")).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f1).ok());
  }
  long first_record_end = std::filesystem::file_size(segment);
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(Path("full.wal")).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f2).ok());
  }
  const std::string bytes = ReadAll(segment);
  ASSERT_GT(static_cast<long>(bytes.size()), first_record_end);

  const std::string torn_base = Path("torn.wal");
  const std::string torn_segment = Segment(torn_base);
  for (size_t chop = static_cast<size_t>(first_record_end);
       chop < bytes.size(); ++chop) {
    WriteAll(torn_segment, bytes.substr(0, chop));

    FactStore replayed;
    RecoveryStats stats;
    Status s = Wal::Replay(torn_base, &replayed, nullptr, &stats);
    ASSERT_TRUE(s.ok()) << "chop at " << chop << ": " << s.ToString();
    EXPECT_EQ(replayed.size(), 1u) << "chop at " << chop;
    EXPECT_EQ(stats.records_replayed, 1u) << "chop at " << chop;
    EXPECT_EQ(stats.tail_truncated,
              chop != static_cast<size_t>(first_record_end))
        << chop;
    // The torn tail is gone from disk: truncated back to the last
    // complete record, so appending resumes from a clean boundary.
    EXPECT_EQ(static_cast<long>(std::filesystem::file_size(torn_segment)),
              first_record_end)
        << "chop at " << chop;

    Wal wal;
    ASSERT_TRUE(wal.Open(torn_base).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f2).ok());
    wal.Close();
    FactStore recovered;
    ASSERT_TRUE(Wal::Replay(torn_base, &recovered, nullptr).ok());
    EXPECT_EQ(recovered.size(), 2u) << "chop at " << chop;
  }
}

TEST_F(PersistenceTest, WalSalvagesValidPrefixOnMidFileCorruption) {
  // Flip one byte at every position of every record (not just the
  // tail). The checksum must catch each flip and recovery must salvage
  // exactly the records before the damaged one — never fewer, never a
  // corrupt record applied.
  FactStore store;
  std::vector<Fact> facts;
  std::vector<long> boundaries;  // segment size after each append
  const std::string base = Path("mid.wal");
  const std::string segment = Segment(base);
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(base).ok());
    for (int i = 0; i < 5; ++i) {
      facts.push_back(store.Assert("ENTITY-" + std::to_string(i),
                                   "RELATES-TO", "TARGET-" +
                                   std::to_string(i)));
      ASSERT_TRUE(LogAssert(&wal, store, facts.back()).ok());
      wal.Close();
      boundaries.push_back(std::filesystem::file_size(segment));
      ASSERT_TRUE(wal.Open(base).ok());
    }
  }
  const std::string good = ReadAll(segment);
  ASSERT_EQ(static_cast<long>(good.size()), boundaries.back());

  const std::string hurt_base = Path("hurt.wal");
  const std::string hurt_segment = Segment(hurt_base);
  for (size_t pos = kSegmentHeaderBytes; pos < good.size(); ++pos) {
    // Which record holds this byte? Everything before it must survive.
    size_t intact_records = 0;
    while (boundaries[intact_records] <= static_cast<long>(pos)) {
      ++intact_records;
    }
    std::string bad = good;
    bad[pos] ^= 0x01;  // the smallest possible corruption
    WriteAll(hurt_segment, bad);

    FactStore replayed;
    RecoveryStats stats;
    Status s = Wal::Replay(hurt_base, &replayed, nullptr, &stats);
    ASSERT_TRUE(s.ok()) << "flip at " << pos << ": " << s.ToString();
    EXPECT_EQ(stats.records_replayed, intact_records) << "flip at " << pos;
    EXPECT_EQ(replayed.size(), intact_records) << "flip at " << pos;
    EXPECT_TRUE(stats.tail_truncated) << "flip at " << pos;
    const long expected_salvage =
        intact_records == 0 ? kSegmentHeaderBytes
                            : boundaries[intact_records - 1];
    EXPECT_EQ(stats.bytes_dropped, good.size() - expected_salvage)
        << "flip at " << pos;
    // Damage is truncated away: the log is usable again.
    EXPECT_EQ(static_cast<long>(std::filesystem::file_size(hurt_segment)),
              expected_salvage)
        << "flip at " << pos;
  }
}

// Damage past the checksum: a record whose length and CRC are correct
// but whose field table stops short is caught by the field decoder.
// Replay keeps the records before it and truncates the log at it.
TEST_F(PersistenceTest, ValidChecksumTruncatedFieldTableIsSalvaged) {
  FactStore store;
  Fact f1 = store.Assert("A", "R", "B");
  Fact f2 = store.Assert("C", "R", "D");
  const std::string base = Path("fields.wal");
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(base).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f1).ok());
    ASSERT_TRUE(LogAssert(&wal, store, f2).ok());
  }
  const std::string intact = ReadAll(Segment(base));
  // An assert payload that promises three fields and holds two.
  std::string payload = {static_cast<char>(WalOpCode::kAssert), 3};
  for (const char* field : {"E", "R"}) {
    const uint32_t n = 1;
    payload.append(reinterpret_cast<const char*>(&n), sizeof(n));
    payload += field;
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32cExtend(0, &len, sizeof(len));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  std::string record(reinterpret_cast<const char*>(&len), sizeof(len));
  record.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  record += payload;
  WriteAll(Segment(base), intact + record);

  FactStore replayed;
  RecoveryStats stats;
  ASSERT_TRUE(Wal::Replay(base, &replayed, nullptr, &stats).ok());
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_EQ(replayed.size(), 2u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.bytes_dropped, record.size());
  EXPECT_EQ(std::filesystem::file_size(Segment(base)), intact.size());
  EXPECT_NE(stats.detail.find("field table truncated at offset " +
                              std::to_string(intact.size())),
            std::string::npos)
      << stats.detail;
}

TEST_F(PersistenceTest, CorruptionInEarlySegmentDropsLaterSegments) {
  // Records after mid-log damage may depend on lost state; replay must
  // not leap over the gap into later segments.
  FactStore store;
  std::vector<Fact> facts;
  for (int i = 0; i < 12; ++i) {
    facts.push_back(store.Assert("E" + std::to_string(i), "R", "T"));
  }
  WalOptions options;
  options.segment_bytes = 64;
  const std::string base = Path("multi.wal");
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(base, options).ok());
    for (const Fact& f : facts) {
      ASSERT_TRUE(LogAssert(&wal, store, f).ok());
    }
  }
  const size_t segments = CountSegments(base);
  ASSERT_GE(segments, 3u);
  // Corrupt the first record of segment 2.
  std::string bytes = ReadAll(Segment(base, 2));
  ASSERT_GT(static_cast<long>(bytes.size()), kSegmentHeaderBytes);
  bytes[kSegmentHeaderBytes + 4] ^= 0xff;
  WriteAll(Segment(base, 2), bytes);

  FactStore replayed;
  RecoveryStats stats;
  ASSERT_TRUE(Wal::Replay(base, &replayed, nullptr, &stats).ok());
  // Everything in segment 1 survives; nothing at or past the damage.
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_LT(stats.records_replayed, facts.size());
  EXPECT_EQ(replayed.size(), stats.records_replayed);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.segments_dropped, segments - 2);
  for (size_t seq = 3; seq <= segments; ++seq) {
    EXPECT_FALSE(std::filesystem::exists(Segment(base, seq))) << seq;
  }
}

TEST_F(PersistenceTest, WalFsyncModeRoundTrips) {
  FactStore store;
  Fact f1 = store.Assert("A", "R", "B");
  {
    Wal wal;
    WalOptions options;
    options.sync = WalSync::kFsync;
    ASSERT_TRUE(wal.Open(Path("sync.wal"), options).ok());
    EXPECT_EQ(wal.sync_mode(), WalSync::kFsync);
    ASSERT_TRUE(LogAssert(&wal, store, f1).ok());
  }
  FactStore replayed;
  ASSERT_TRUE(Wal::Replay(Path("sync.wal"), &replayed, nullptr).ok());
  EXPECT_EQ(replayed.size(), 1u);
}

#if LSD_FAILPOINTS_ENABLED

TEST_F(PersistenceTest, InjectedShortWritePoisonsThenSalvages) {
  FactStore store;
  Fact f1 = store.Assert("A", "R", "B");
  Fact f2 = store.Assert("C", "R", "D");
  Wal wal;
  ASSERT_TRUE(wal.Open(Path("short.wal")).ok());
  ASSERT_TRUE(LogAssert(&wal, store, f1).ok());
  {
    failpoint::Policy policy;
    policy.action = failpoint::Action::kShortWrite;
    policy.arg = 5;  // tear the record 5 bytes in
    failpoint::Scoped fp("wal.append.write", policy);
    Status s = LogAssert(&wal, store, f2);
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  // The log refuses to interleave good records after the torn one.
  Status refused = LogAssert(&wal, store, f2);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  wal.Close();

  // Recovery salvages the intact prefix and the log is writable again.
  FactStore replayed;
  RecoveryStats stats;
  ASSERT_TRUE(
      Wal::Replay(Path("short.wal"), &replayed, nullptr, &stats).ok());
  EXPECT_EQ(stats.records_replayed, 1u);
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.bytes_dropped, 5u);
  ASSERT_TRUE(wal.Open(Path("short.wal")).ok());
  EXPECT_TRUE(LogAssert(&wal, store, f2).ok());
}

TEST_F(PersistenceTest, InjectedAppendErrorPoisonsWal) {
  FactStore store;
  Fact f1 = store.Assert("A", "R", "B");
  Wal wal;
  ASSERT_TRUE(wal.Open(Path("err.wal")).ok());
  {
    failpoint::Policy policy;
    policy.action = failpoint::Action::kError;
    failpoint::Scoped fp("wal.append.write", policy);
    EXPECT_EQ(LogAssert(&wal, store, f1).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(LogAssert(&wal, store, f1).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, InjectedSnapshotErrorPropagates) {
  FactStore store;
  store.Assert("A", "R", "B");
  failpoint::Policy policy;
  policy.action = failpoint::Action::kError;
  failpoint::Scoped fp("snapshot.write", policy);
  EXPECT_EQ(SaveSnapshot(Path("f.snap"), store, {}).code(),
            StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(Path("f.snap")));
}

#endif  // LSD_FAILPOINTS_ENABLED

}  // namespace
}  // namespace lsd
