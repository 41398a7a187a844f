// Robustness fuzzing: random byte soup and mutated valid inputs must
// never crash the parsers or the WAL/snapshot readers — they either
// parse or return a clean Status.
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "query/parser.h"
#include "store/persistence.h"
#include "store/text_format.h"
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
    ASSERT_TRUE(wal.AppendAssert(store, f1).ok());
    ASSERT_TRUE(wal.AppendAssert(store, f2).ok());
    ASSERT_TRUE(wal.AppendRetract(store, f1).ok());
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

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

}  // namespace
}  // namespace lsd
