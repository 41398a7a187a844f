// Robustness fuzzing: random byte soup and mutated valid inputs must
// never crash the parsers, the WAL/snapshot readers or the mutation
// record codec — they either parse or return a clean Status.
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "store/persistence.h"
#include "store/text_format.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace lsd {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out;
  size_t len = rng.Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.Uniform(256));
  }
  return out;
}

std::string RandomPrintable(Rng& rng, size_t max_len) {
  static const char kChars[] =
      "()?,*ABCXYZ0123456789 \n\t#:=<>/$.-and or exists forall rule "
      "integrity define where @class";
  std::string out;
  size_t len = rng.Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    out += kChars[rng.Uniform(sizeof(kChars) - 1)];
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, QueryParserNeverCrashes) {
  Rng rng(GetParam());
  EntityTable entities;
  for (int i = 0; i < 200; ++i) {
    std::string input =
        rng.Bernoulli(0.5) ? RandomBytes(rng, 80) : RandomPrintable(rng, 80);
    auto q = ParseQuery(input, &entities);
    if (q.ok()) {
      // Whatever parsed must render without crashing.
      (void)q->DebugString(entities);
    }
  }
}

TEST_P(FuzzTest, TextFormatParserNeverCrashes) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 100; ++i) {
    EntityTable entities;
    std::vector<Fact> facts;
    std::vector<Rule> rules;
    DefinitionRegistry definitions;
    std::string input =
        rng.Bernoulli(0.5) ? RandomBytes(rng, 200)
                           : RandomPrintable(rng, 200);
    (void)ParseText(input, &entities, &facts, &rules, &definitions);
  }
}

TEST_P(FuzzTest, MutatedValidDocumentParsesOrErrors) {
  Rng rng(GetParam() + 2000);
  const std::string valid =
      "(JOHN, WORKS-FOR, SHIPPING)\n"
      "@class TOTAL-NUMBER\n"
      "rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)\n"
      "define f(?X) := (?X, IN, EMPLOYEE)\n";
  for (int i = 0; i < 100; ++i) {
    std::string mutated = valid;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    EntityTable entities;
    std::vector<Fact> facts;
    std::vector<Rule> rules;
    DefinitionRegistry definitions;
    (void)ParseText(mutated, &entities, &facts, &rules, &definitions);
  }
}

TEST_P(FuzzTest, CorruptSnapshotsErrorCleanly) {
  Rng rng(GetParam() + 3000);
  auto dir = std::filesystem::temp_directory_path();
  std::string path =
      (dir / ("lsd_fuzz_" + std::to_string(GetParam()) + ".snap"))
          .string();

  // Build a valid snapshot, then corrupt random bytes / truncate.
  FactStore store;
  store.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  store.Assert("A", "ISA", "B");
  ASSERT_TRUE(SaveSnapshot(path, store, {}).ok());
  std::string bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);
  }
  for (int trial = 0; trial < 30; ++trial) {
    std::string corrupt = bytes;
    if (rng.Bernoulli(0.5) && corrupt.size() > 9) {
      corrupt.resize(9 + rng.Uniform(corrupt.size() - 9));  // truncate
    }
    int flips = static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips && !corrupt.empty(); ++f) {
      corrupt[rng.Uniform(corrupt.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(corrupt.data(), 1, corrupt.size(), f);
    std::fclose(f);

    FactStore loaded;
    std::vector<Rule> rules;
    // Must not crash; any Status outcome is acceptable.
    (void)LoadSnapshot(path, &loaded, &rules);
  }
  std::remove(path.c_str());
}

TEST_P(FuzzTest, CorruptWalsErrorCleanly) {
  Rng rng(GetParam() + 4000);
  auto dir = std::filesystem::temp_directory_path();
  std::string path =
      (dir / ("lsd_fuzz_" + std::to_string(GetParam()) + ".wal"))
          .string();
  const std::string segment = path + ".000001";
  std::remove(segment.c_str());
  {
    FactStore store;
    Fact f1 = store.Assert("A", "R", "B");
    Fact f2 = store.Assert("C", "R", "D");
    Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    const EntityTable& e = store.entities();
    ASSERT_TRUE(wal.AppendBatch({WalFactRecord(WalOpCode::kAssert, e, f1),
                                 WalFactRecord(WalOpCode::kAssert, e, f2),
                                 WalFactRecord(WalOpCode::kRetract, e, f1)})
                    .ok());
  }
  std::string bytes;
  {
    std::FILE* f = std::fopen(segment.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);
  }
  for (int trial = 0; trial < 30; ++trial) {
    std::string corrupt = bytes;
    if (rng.Bernoulli(0.6) && corrupt.size() > 8) {
      corrupt.resize(8 + rng.Uniform(corrupt.size() - 8));
    }
    int flips = static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < flips && !corrupt.empty(); ++f) {
      corrupt[rng.Uniform(corrupt.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    std::FILE* f = std::fopen(segment.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(corrupt.data(), 1, corrupt.size(), f);
    std::fclose(f);

    FactStore store;
    std::vector<Rule> rules;
    // Must not crash; damage is salvaged, never fatal.
    (void)Wal::Replay(path, &store, &rules);
  }
  std::remove(segment.c_str());
}

// Frames `payload` as a record with a correct length and checksum, so
// it reaches the field decoder instead of stopping at the CRC.
std::string FrameRecord(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32cExtend(0, &len, sizeof(len));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  std::string out(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return out + payload;
}

// Whether the text verbs can spell `name` as one template position: not
// empty once normalized, no '(', ')', ',' or line break, not a lone '*'
// and not a '?NAME'. Inner spaces and keywords are spellable.
bool SpellableName(const std::string& name) {
  const std::string normalized = EntityTable::Normalize(name);
  if (normalized.empty() || normalized == "*" || normalized[0] == '?') {
    return false;
  }
  return normalized.find_first_of("(),\n\r") == std::string::npos;
}

// A record payload (what follows [len][crc]): random bytes, or a
// well-formed fact, rule or toggle record's payload (among them facts
// naming what no text verb can spell) with bytes flipped, cut short, or
// extended.
std::string RandomRecordPayload(Rng& rng) {
  static const WalRecord kValid[] = {
      {static_cast<uint8_t>(WalOpCode::kAssert), {"JOHN", "LIKES", "FELIX"}},
      {static_cast<uint8_t>(WalOpCode::kRetract), {"A", "R", "B"}},
      {static_cast<uint8_t>(WalOpCode::kAssert), {"", "", ""}},
      {static_cast<uint8_t>(WalOpCode::kAssert), {"NEW NAME", "R", "(B"}},
      {static_cast<uint8_t>(WalOpCode::kRule),
       {"rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)"}},
      {static_cast<uint8_t>(WalOpCode::kDisableRule), {"pay"}},
  };
  std::string framed;
  EncodeWalRecord(kValid[rng.Uniform(std::size(kValid))], &framed);
  std::string payload = framed.substr(8);
  switch (rng.Uniform(5)) {
    case 0:
      return RandomBytes(rng, 48);
    case 1:
      for (int i = 0, n = 1 + static_cast<int>(rng.Uniform(3)); i < n; ++i) {
        payload[rng.Uniform(payload.size())] =
            static_cast<char>(rng.Uniform(256));
      }
      return payload;
    case 2:
      payload.resize(rng.Uniform(payload.size()));
      return payload;
    case 3:
      return payload + RandomBytes(rng, 8);
    default:
      return payload;
  }
}

// The one record codec, past the checksum: runs of well-framed records
// with random or mutated fields go through the record parser, a
// kMutation frame's payload and the replay of a log segment. Each call
// returns a Status or succeeds; a rejected kMutation payload mutates
// nothing; replay salvages a prefix that replays again cleanly.
TEST_P(FuzzTest, MutationRecordsDecodeOrErrorCleanly) {
  Rng rng(GetParam() + 5000);
  SharedStore store;
  ServerSession session(1, &store);
  ASSERT_TRUE(session.Execute("assert* (A, R, B) (JOHN, LIKES, FELIX)").ok());

  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("lsd_fuzz_records_" + std::to_string(GetParam()) + ".wal"))
          .string();
  const std::string segment = base + ".000001";
  std::remove(segment.c_str());
  std::string header;  // an empty segment: just its header
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(base).ok());
  }
  {
    std::FILE* f = std::fopen(segment.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    header.resize(Wal::kSegmentHeaderSize);
    ASSERT_EQ(std::fread(header.data(), 1, header.size(), f), header.size());
    std::fclose(f);
  }

  for (int trial = 0; trial < 60; ++trial) {
    std::string bytes;
    for (int i = 0, n = 1 + static_cast<int>(rng.Uniform(4)); i < n; ++i) {
      bytes += FrameRecord(RandomRecordPayload(rng));
    }
    if (rng.Bernoulli(0.2)) bytes.resize(rng.Uniform(bytes.size() + 1));

    WalRecordParser parser;
    parser.Feed(bytes);
    WalRecord record;
    bool unspellable = false;
    while (parser.Next(&record) == WalRecordParser::Result::kRecord) {
      const auto op = static_cast<WalOpCode>(record.op);
      if ((op == WalOpCode::kAssert || op == WalOpCode::kRetract) &&
          record.fields.size() == 3) {
        for (const std::string& name : record.fields) {
          unspellable |= !SpellableName(name);
        }
      }
    }

    EpochPtr before = store.snapshot();
    const size_t names = before->db().entities().size();
    auto applied = session.ExecuteBatchMutation(bytes);
    // A batch naming what the text verbs cannot spell is rejected whole.
    if (unspellable) {
      EXPECT_FALSE(applied.ok()) << "trial " << trial;
    }
    if (!applied.ok()) {
      EXPECT_EQ(applied.status().code(), StatusCode::kInvalidArgument)
          << applied.status().ToString();
      EXPECT_EQ(store.snapshot(), before) << "trial " << trial;
      EXPECT_EQ(store.snapshot()->db().entities().size(), names)
          << "trial " << trial;
    }

    std::FILE* f = std::fopen(segment.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string file = header + bytes;
    ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), f), file.size());
    std::fclose(f);
    FactStore replayed;
    std::vector<Rule> rules;
    RecoveryStats stats;
    ASSERT_TRUE(Wal::Replay(base, &replayed, &rules, &stats).ok());
    FactStore again;
    std::vector<Rule> again_rules;
    RecoveryStats again_stats;
    ASSERT_TRUE(Wal::Replay(base, &again, &again_rules, &again_stats).ok());
    EXPECT_FALSE(again_stats.tail_truncated) << again_stats.ToString();
    EXPECT_EQ(again_stats.records_replayed, stats.records_replayed);
  }
  std::remove(segment.c_str());
}

// Random sequences of the grammar's own pieces: separators, keywords,
// variables and names with spaces, '*' and line breaks.
std::string RandomStatement(Rng& rng, size_t max_pieces) {
  static const char* const kPieces[] = {
      "(",      ")",       ",",        " ",      "?X",     "?",
      "*",      " and ",   " OR ",     "exists", "forall", " where ",
      "=>",     ":=",      ":",        "JOHN",   "A SMITH", "A*B",
      "≺",      "\n",      "individual", "class", "f(",     "rule r:",
      "(A, B, C)", "(?X, *, ?Y)", "#",   "@class"};
  std::string out;
  for (size_t i = 0, n = rng.Uniform(max_pieces + 1); i < n; ++i) {
    out += kPieces[rng.Uniform(std::size(kPieces))];
  }
  return out;
}

// Every entry point of the one template grammar — each parse, the
// definition registry, and the interpreter's verbs — returns a Status
// on any input, and a rejected mutation verb commits nothing.
TEST_P(FuzzTest, EveryGrammarEntryPointReturnsAStatus) {
  Rng rng(GetParam() + 6000);
  static const char* const kVerbs[] = {
      "query ",  "probe ",    "call ",      "define ",  "rule ",
      "integrity ", "assert ", "retract ", "assert* ", "retract* ",
      "hypo assert ", "hypo retract "};
  SharedStore store;
  ServerSession session(1, &store);
  for (int i = 0; i < 200; ++i) {
    const std::string input = rng.Bernoulli(0.3) ? RandomBytes(rng, 60)
                                                 : RandomStatement(rng, 12);
    EntityTable entities;
    (void)ParseQueryNames(input);
    (void)ParseQuery(input, &entities);
    (void)ParseRule(input, RuleKind::kInference, &entities);
    (void)ParseSerializedRule(input, &entities);
    (void)ParseDefinition(input);
    (void)ParseCallNames(input);
    (void)ParseFacts(input);
    DefinitionRegistry definitions;
    (void)definitions.Define(input, &entities);
    (void)definitions.ParseCall(input, &entities);

    const std::string verb = kVerbs[rng.Uniform(std::size(kVerbs))];
    const EpochPtr before = store.snapshot();
    const size_t names = before->db().entities().size();
    auto out = session.Execute(verb + input);
    if (!out.ok() && verb.find("assert") != std::string::npos) {
      EXPECT_EQ(store.snapshot(), before) << verb << input;
      EXPECT_EQ(store.snapshot()->db().entities().size(), names)
          << verb << input;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

}  // namespace
}  // namespace lsd
