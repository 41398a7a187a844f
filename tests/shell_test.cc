// End-to-end smoke test of the interactive shell: drives lsd_shell via
// a pipe and checks the rendered output.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#ifndef LSD_BINARY_DIR
#define LSD_BINARY_DIR "."
#endif
#ifndef LSD_SOURCE_DIR
#define LSD_SOURCE_DIR "."
#endif

namespace {

std::string RunShell(const std::string& script) {
  std::string cmd = "printf '" + script + "' | " + LSD_BINARY_DIR +
                    "/tools/lsd_shell 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "<popen failed>";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  pclose(pipe);
  return out;
}

TEST(ShellTest, AssertQueryRoundTrip) {
  std::string out = RunShell(
      "assert (JOHN, LIKES, FELIX)\\n"
      "query (JOHN, LIKES, ?X)\\n"
      "quit\\n");
  EXPECT_NE(out.find("added"), std::string::npos);
  EXPECT_NE(out.find("FELIX"), std::string::npos);
}

TEST(ShellTest, LoadDataFileAndProbe) {
  std::string out = RunShell(
      std::string("load ") + LSD_SOURCE_DIR + "/data/campus.lsd\\n" +
      "probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)\\n"
      "quit\\n");
  EXPECT_NE(out.find("Query failed. Retrying..."), std::string::npos);
  EXPECT_NE(out.find("FRESHMAN instead of STUDENT"), std::string::npos);
  EXPECT_NE(out.find("CHEAP instead of FREE"), std::string::npos);
}

TEST(ShellTest, NavigationAndOperators) {
  std::string out = RunShell(
      std::string("load ") + LSD_SOURCE_DIR + "/data/music.lsd\\n" +
      "nav JOHN\\n"
      "try MOZART\\n"
      "assoc JOHN MOZART\\n"
      "dist LEOPOLD SERKIN\\n"
      "call composer-of(PC#9-WAM, ?C)\\n"
      "stats\\n"
      "quit\\n");
  EXPECT_NE(out.find("JOHN **"), std::string::npos);
  EXPECT_NE(out.find("try(MOZART):"), std::string::npos);
  EXPECT_NE(out.find("FAVORITE-MUSIC.PC#9-WAM.COMPOSED-BY"),
            std::string::npos);
  EXPECT_NE(out.find("semantic distance 3"), std::string::npos);
  EXPECT_NE(out.find("MOZART"), std::string::npos);
  EXPECT_NE(out.find("asserted facts:"), std::string::npos);
}

TEST(ShellTest, RulesAndIntegrity) {
  std::string out = RunShell(
      std::string("load ") + LSD_SOURCE_DIR + "/data/org.lsd\\n" +
      "check\\n"
      "exclude mem-source\\n"
      "rules\\n"
      "quit\\n");
  EXPECT_NE(out.find("contradicts built-in arithmetic"),
            std::string::npos);
  EXPECT_NE(out.find("[ ] rule mem-source"), std::string::npos);
}

TEST(ShellTest, SessionNavigationAndDot) {
  std::string out = RunShell(
      std::string("load ") + LSD_SOURCE_DIR + "/data/music.lsd\\n" +
      "visit JOHN\\n"
      "visit MOZART\\n"
      "back\\n"
      "forward\\n"
      "dot LEOPOLD\\n"
      "quit\\n");
  EXPECT_NE(out.find("[JOHN] > MOZART"), std::string::npos);
  EXPECT_NE(out.find("JOHN > [MOZART]"), std::string::npos);
  EXPECT_NE(out.find("digraph lsd {"), std::string::npos);
  EXPECT_NE(out.find("\"LEOPOLD\" -> \"MOZART\""), std::string::npos);
}

TEST(ShellTest, UnknownCommandIsReported) {
  std::string out = RunShell("frobnicate\\nquit\\n");
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

size_t Count(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// What a .lsd file can name, every verb can name: a spaced name, a
// keyword and a name holding '*' load, query, retract and derive alike.
TEST(ShellTest, LoadedNamesAreQueryableAndRetractable) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("lsd_shell_names_" + std::to_string(::getpid()) + ".lsd"))
          .string();
  {
    std::ofstream out(path);
    out << "(JOHN SMITH, LIKES, OPERA)\n(AND, ISA, CONJUNCTION)\n"
           "(A*B, LIKES, OPERA)\n"
           "rule fan: (?X, LIKES, OPERA) => (?X, IN, OPERA FAN)\n";
  }
  std::string out = RunShell(
      "load " + path + "\\n" +
      "query (JOHN SMITH, IN, ?X)\\n"
      "query (AND, ISA, ?X)\\n"
      "query (A*B, IN, ?X)\\n"
      "retract (JOHN SMITH, LIKES, OPERA)\\n"
      "retract (AND, ISA, CONJUNCTION)\\n"
      "retract (A*B, LIKES, OPERA)\\n"
      "query (?X, IN, OPERA FAN)\\n"
      "quit\\n");
  std::remove(path.c_str());
  EXPECT_EQ(out.find("! "), std::string::npos) << out;
  EXPECT_EQ(Count(out, "| OPERA FAN "), 2u) << out;
  EXPECT_EQ(Count(out, "| CONJUNCTION |"), 1u) << out;
  EXPECT_EQ(Count(out, "removed\n"), 3u) << out;
  // The retracts took the derived memberships with them.
  EXPECT_EQ(out.find("| JOHN SMITH"), std::string::npos) << out;
}

// A head naming NOWHERE is a head, not a where-clause; a lone '*' is the
// same wildcard in a rule as in a query.
TEST(ShellTest, RuleGrammarMatchesTheQueryGrammar) {
  std::string out = RunShell(
      "assert (X2, LINKS, Y1)\\n"
      "assert (X2, IN, A)\\n"
      "rule r1: (?X, IN, A) => (?X, GOES, NOWHERE)\\n"
      "rule r5: (?X, *, Y1) => (?X, TOUCHES, Y1)\\n"
      "query (X2, GOES, ?W)\\n"
      "query (?X, TOUCHES, Y1)\\n"
      "query (?X, *, Y1)\\n"
      "rules\\n"
      "quit\\n");
  EXPECT_EQ(out.find("! "), std::string::npos) << out;
  EXPECT_EQ(Count(out, "defined\n"), 2u) << out;
  EXPECT_NE(out.find("| NOWHERE |"), std::string::npos) << out;
  EXPECT_NE(out.find("| X2 |"), std::string::npos) << out;
  EXPECT_NE(out.find("| X2 | TOUCHES |"), std::string::npos) << out;
  EXPECT_NE(out.find("rule r5: (?X, ?_1, Y1) => (?X, TOUCHES, Y1)"),
            std::string::npos)
      << out;
}

}  // namespace
