// Crash-torture harness for the durability stack (the tentpole's
// acceptance test): fork a writer child, kill it at every registered
// durability failpoint and at hundreds of random byte offsets of the
// log, then recover and prove that
//
//   * the recovered store is exactly a prefix of the committed mutation
//     history (never a corrupt record applied, never an acknowledged
//     mutation lost),
//   * the salvaged log accepts further appends, and
//   * once the interrupted history is finished on top of the recovered
//     store, the paper's Sec 5.2 probing sessions still produce their
//     golden menus.
//
// The child acknowledges each durably appended mutation with one byte
// in an ack file (raw write(2), so acknowledgements survive _exit);
// recovery must never fall behind the acknowledged count.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "replication/log_shipper.h"
#include "replication/monitor.h"
#include "replication/replication_client.h"
#include "server/shared_store.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace lsd {
namespace {

namespace fs = std::filesystem;

// ---- The committed history --------------------------------------------

// One mutation == exactly one WAL record, so "prefix of the history"
// and "prefix of the log" coincide.
struct Mutation {
  enum Kind { kAssert, kRetract, kRule, kToggle } kind;
  std::string a, b, c;  // fact names, or rule text/name in `a`/`b`
};

// The campus domain of Sec 5.2 (mirrors workload::BuildCampusDomain —
// the golden menus below depend on these exact facts) followed by a
// churn of extra asserts, retracts, rules, and toggles.
std::vector<Mutation> BuildHistory() {
  std::vector<Mutation> h;
  auto fact = [&h](const char* s, const char* r, const char* t) {
    h.push_back({Mutation::kAssert, s, r, t});
  };
  fact("FRESHMAN", "ISA", "STUDENT");
  fact("SENIOR", "ISA", "STUDENT");
  fact("LOVE", "ISA", "LIKE");
  fact("LIKE", "ISA", "ENJOY");
  fact("FREE", "ISA", "CHEAP");
  fact("OPERA", "ISA", "MUSIC");
  fact("OPERA", "ISA", "THEATER");
  fact("FRESHMAN", "LOVE", "MOVIE-NIGHT");
  fact("MOVIE-NIGHT", "COSTS", "FREE");
  fact("STUDENT", "LOVE", "CONCERT-PASS");
  fact("CONCERT-PASS", "COSTS", "CHEAP");
  fact("TOM", "ENROLLED-IN", "CS100");
  fact("SUE", "ENROLLED-IN", "MATH101");
  fact("CS100", "TAUGHT-BY", "HARRY");

  h.push_back({Mutation::kRule,
               "tort-chain: (?X, TORT-NEXT, ?Y) => (?X, TORT-REACH, ?Y)",
               "", ""});
  for (int i = 0; i < 60; ++i) {
    const std::string e = "CHURN-" + std::to_string(i);
    fact(e.c_str(), "TORT-NEXT", ("CHURN-" + std::to_string(i + 1)).c_str());
    if (i % 5 == 4) {
      // Retract a fact asserted a few steps earlier.
      h.push_back({Mutation::kRetract, "CHURN-" + std::to_string(i - 2),
                   "TORT-NEXT", "CHURN-" + std::to_string(i - 1)});
    }
    if (i % 20 == 10) {
      h.push_back({Mutation::kToggle, "tort-chain",
                   (i / 20) % 2 == 0 ? "off" : "on", ""});
    }
  }
  h.push_back({Mutation::kToggle, "tort-chain", "on", ""});
  return h;
}

// Applies one mutation; true iff it produced exactly one WAL record.
bool Apply(LooseDb& db, const Mutation& m) {
  switch (m.kind) {
    case Mutation::kAssert:
      db.Assert(m.a, m.b, m.c);
      return true;
    case Mutation::kRetract:
      return db.Retract(m.a, m.b, m.c).ok();
    case Mutation::kRule:
      return db.DefineRule(m.a).ok();
    case Mutation::kToggle:
      return db.SetRuleEnabled(m.a, m.b == "on").ok();
  }
  return false;
}

// Commits one mutation as a group of its own, so each mutation still
// writes exactly one WAL record and one fsync-or-flush.
Status CommitOne(SharedStore& store, const Mutation& m) {
  return store
      .Commit([&m](LooseDb& db) {
        return Apply(db, m) ? Status::OK()
                            : Status::Internal("mutation logged nothing");
      })
      .status();
}

// ---- Prefix simulation ------------------------------------------------

struct SimState {
  std::set<std::string> facts;                // extra facts, "s|r|t"
  std::map<std::string, bool> rules;          // extra rules -> enabled
};

std::string Key(const std::string& a, const std::string& b,
                const std::string& c) {
  return a + "|" + b + "|" + c;
}

void Advance(SimState* sim, const Mutation& m) {
  switch (m.kind) {
    case Mutation::kAssert:
      sim->facts.insert(Key(m.a, m.b, m.c));
      break;
    case Mutation::kRetract:
      sim->facts.erase(Key(m.a, m.b, m.c));
      break;
    case Mutation::kRule: {
      size_t colon = m.a.find(':');
      sim->rules[m.a.substr(0, colon)] = true;
      break;
    }
    case Mutation::kToggle:
      sim->rules[m.a] = (m.b == "on");
      break;
  }
}

std::set<std::string> DumpFacts(const LooseDb& db) {
  std::set<std::string> out;
  const EntityTable& e = db.entities();
  db.store().base().ForEach(Pattern(), [&](const Fact& f) {
    out.insert(Key(e.Name(f.source), e.Name(f.relationship),
                   e.Name(f.target)));
    return true;
  });
  return out;
}

// The facts and rule census of a virgin database; the simulation works
// relative to this baseline.
struct Baseline {
  std::set<std::string> facts;
  size_t rule_count;
};

const Baseline& GetBaseline() {
  static const Baseline* b = [] {
    LooseDb fresh;
    auto* out = new Baseline;
    out->facts = DumpFacts(fresh);
    out->rule_count = fresh.rules().size();
    return out;
  }();
  return *b;
}

bool MatchesPrefix(const LooseDb& recovered, const SimState& sim) {
  const Baseline& base = GetBaseline();
  std::set<std::string> expected = base.facts;
  for (const std::string& f : sim.facts) expected.insert(f);
  if (DumpFacts(recovered) != expected) return false;
  if (recovered.rules().size() != base.rule_count + sim.rules.size()) {
    return false;
  }
  for (const auto& [name, enabled] : sim.rules) {
    bool found = false;
    for (const Rule& r : recovered.rules()) {
      if (r.name == name) {
        if (r.enabled != enabled) return false;
        found = true;
      }
    }
    if (!found) return false;
  }
  return true;
}

// Finds the smallest prefix length >= min_len whose simulated state
// equals the recovered store, or -1.
int FindMatchingPrefix(const LooseDb& recovered,
                       const std::vector<Mutation>& history,
                       size_t min_len) {
  SimState sim;
  for (size_t m = 0; m <= history.size(); ++m) {
    if (m >= min_len && MatchesPrefix(recovered, sim)) {
      return static_cast<int>(m);
    }
    if (m < history.size()) Advance(&sim, history[m]);
  }
  return -1;
}

// ---- Golden sessions (Sec 5.2) ----------------------------------------

void ExpectGoldenMenus(LooseDb& db) {
  auto probe = db.Probe("(STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  std::string menu = probe->Menu(db.entities());
  EXPECT_NE(menu.find("FRESHMAN instead of STUDENT"), std::string::npos)
      << menu;
  EXPECT_NE(menu.find("CHEAP instead of FREE"), std::string::npos) << menu;

  auto query = db.Query("(TOM, ENROLLED-IN, ?C)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->rows.size(), 1u);
}

// ---- The harness ------------------------------------------------------

class CrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lsd_torture_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    history_ = BuildHistory();
  }
  void TearDown() override {
    failpoint::ClearAll();
    fs::remove_all(dir_);
  }

  std::string Prefix(const std::string& name) {
    return (dir_ / name).string();
  }

  static SharedStoreDurability TortureDurability() {
    SharedStoreDurability durability;
    durability.sync = WalSync::kFlush;
    durability.segment_bytes = 400;      // force frequent rotation
    durability.checkpoint_bytes = 1200;  // force mid-run auto-checkpoints
    return durability;
  }

  // Runs the writer in a forked child with `failpoints` armed,
  // acknowledging each committed mutation in `ack_path`. Returns the
  // child's exit status.
  int RunWriterChild(const std::string& prefix, const std::string& ack_path,
                     const std::string& failpoints) {
    std::fflush(nullptr);  // no duplicated stdio buffers in the child
    pid_t pid = ::fork();
    if (pid == 0) {
      if (!failpoint::Configure(failpoints).ok()) ::_exit(81);
      SharedStore store;
      if (!store.OpenDurable(prefix, TortureDurability()).ok()) ::_exit(82);
      int ack_fd =
          ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (ack_fd < 0) ::_exit(83);
      for (const Mutation& m : history_) {
        if (!CommitOne(store, m).ok()) ::_exit(84);
        if (!store.wal_status().ok()) ::_exit(85);
        if (::write(ack_fd, "+", 1) != 1) ::_exit(86);
      }
      ::_exit(0);
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static size_t CountAcks(const std::string& ack_path) {
    std::error_code ec;
    uint64_t size = fs::file_size(ack_path, ec);
    return ec ? 0 : static_cast<size_t>(size);
  }

  // Recovers the store at `prefix`, asserts the committed-prefix
  // property against `acked`, finishes the history, and checks the
  // golden sessions.
  void VerifyRecoveryAndFinish(const std::string& prefix, size_t acked,
                               const std::string& context) {
    SharedStore store;
    Status opened = store.OpenDurable(prefix, TortureDurability());
    ASSERT_TRUE(opened.ok()) << context << ": " << opened.ToString();
    int m = FindMatchingPrefix(store.snapshot()->db(), history_, acked);
    ASSERT_GE(m, 0) << context
                    << ": recovered store matches no committed prefix >= "
                    << acked << " acked mutations ("
                    << store.last_recovery().ToString() << ")";
    // The salvaged log keeps accepting appends: finish the history.
    for (size_t i = static_cast<size_t>(m); i < history_.size(); ++i) {
      Status committed = CommitOne(store, history_[i]);
      ASSERT_TRUE(committed.ok())
          << context << " at step " << i << ": " << committed.ToString();
      ASSERT_TRUE(store.wal_status().ok())
          << context << ": " << store.wal_status().ToString();
    }
    ExpectGoldenMenus(store.snapshot()->db());
  }

  fs::path dir_;
  std::vector<Mutation> history_;
};

// Every registered durability kill site, each at several log positions.
// Keep in sync with FailpointTest.CanonicalDurabilitySitesExist.
TEST_F(CrashTortureTest, SurvivesKillAtEveryFailpoint) {
  struct Trial {
    const char* site;
    int skip;
  };
  const Trial kTrials[] = {
      {"wal.append.write", 0},  {"wal.append.write", 13},
      {"wal.append.write", 47}, {"wal.append.flush", 0},
      {"wal.append.flush", 29}, {"wal.rotate", 0},
      {"wal.rotate", 2},        {"snapshot.write", 0},
      {"snapshot.flush", 0},    {"snapshot.rename", 0},
      {"checkpoint.swap", 0},   {"wal.generation.swap", 0},
      {"wal.generation.swap", 1},
  };
  int trial_index = 0;
  for (const Trial& trial : kTrials) {
    SCOPED_TRACE(std::string(trial.site) + "@" +
                 std::to_string(trial.skip));
    const std::string prefix =
        Prefix("db" + std::to_string(trial_index));
    const std::string ack = Prefix("ack" + std::to_string(trial_index));
    ++trial_index;
    std::string spec = std::string(trial.site) + "=crash@" +
                       std::to_string(trial.skip);
    int exit_status = RunWriterChild(prefix, ack, spec);
    // Every trial targets a site its workload certainly reaches.
    ASSERT_EQ(exit_status, failpoint::kCrashExitStatus)
        << "site never fired (exit " << exit_status << ")";
    VerifyRecoveryAndFinish(prefix, CountAcks(ack), spec);
  }
}

// ---- Group commit under crashes ---------------------------------------
//
// Concurrent writers commit disjoint facts through a durable
// SharedStore while a group-commit failpoint kills the process either
// mid-batch-append (wal.batch.record: some of the group's records are
// staged, the rest are not) or between the group's flush and its fsync
// (wal.batch.sync: bytes in the page cache, ack not yet released).
// Each writer appends its fact's name to the ack file with one raw
// write(2) only AFTER Commit returned OK — i.e. after the group's
// fsync — so the ack file is a durable floor: every acked fact must be
// in the recovered store. Facts beyond the floor may or may not
// survive (they were never acknowledged), but anything recovered must
// come from the issued set — a torn group must never replay as
// garbage.
TEST_F(CrashTortureTest, GroupCommitCrashKeepsEveryAckedWrite) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 30;

  const char* kTrials[] = {
      "wal.batch.record=crash@0", "wal.batch.record=crash@13",
      "wal.batch.record=crash@47", "wal.batch.sync=crash@0",
      "wal.batch.sync=crash@5",
  };
  int trial_index = 0;
  for (const char* spec : kTrials) {
    SCOPED_TRACE(spec);
    const std::string prefix = Prefix("grp" + std::to_string(trial_index));
    const std::string ack = Prefix("gack" + std::to_string(trial_index));
    ++trial_index;

    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid == 0) {
      if (!failpoint::Configure(spec).ok()) ::_exit(91);
      SharedStore store;
      SharedStoreDurability durability;
      durability.sync = WalSync::kFsync;
      durability.segment_bytes = 400;    // force rotation under groups
      durability.checkpoint_bytes = 1200;
      if (!store.OpenDurable(prefix, durability).ok()) ::_exit(92);
      int ack_fd =
          ::open(ack.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (ack_fd < 0) ::_exit(93);
      std::vector<std::thread> writers;
      for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&store, ack_fd, t] {
          for (int i = 0; i < kCommitsPerThread; ++i) {
            std::string name =
                "T" + std::to_string(t) + "-N" + std::to_string(i);
            auto committed = store.Commit([&name](LooseDb& db) {
              db.Assert(name, "MARKS", "DONE");
              return Status::OK();
            });
            if (!committed.ok()) ::_exit(94);
            std::string line = name + "\n";
            if (::write(ack_fd, line.data(), line.size()) !=
                static_cast<ssize_t>(line.size())) {
              ::_exit(95);
            }
          }
        });
      }
      for (auto& t : writers) t.join();
      ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    ASSERT_EQ(WEXITSTATUS(status), failpoint::kCrashExitStatus)
        << "site never fired (exit " << WEXITSTATUS(status) << ")";

    // Complete lines only: a torn final line means the ack itself never
    // finished, so treating that write as unacknowledged is sound.
    std::set<std::string> acked;
    {
      std::string bytes;
      std::FILE* f = std::fopen(ack.c_str(), "rb");
      if (f != nullptr) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
          bytes.append(buf, n);
        }
        std::fclose(f);
      }
      size_t start = 0, nl;
      while ((nl = bytes.find('\n', start)) != std::string::npos) {
        acked.insert(bytes.substr(start, nl - start));
        start = nl + 1;
      }
    }

    SharedStore recovered;
    Status opened = recovered.OpenDurable(prefix, TortureDurability());
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    EpochPtr tip = recovered.snapshot();
    LooseDb& db = tip->db();

    // Floor: every acknowledged write survived the crash.
    for (const std::string& name : acked) {
      auto q = db.Query("(" + name + ", MARKS, ?X)");
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      EXPECT_TRUE(q->Success())
          << "acked write " << name << " lost (" << acked.size()
          << " acked, " << recovered.last_recovery().ToString() << ")";
    }
    // Ceiling: everything recovered was actually issued — a torn batch
    // must never resurface as an invented fact.
    const Baseline& base = GetBaseline();
    for (const std::string& key : DumpFacts(db)) {
      if (base.facts.count(key) > 0) continue;
      size_t bar = key.find('|');
      std::string name = key.substr(0, bar);
      EXPECT_TRUE(name.size() > 2 && name[0] == 'T' &&
                  key.substr(bar) == "|MARKS|DONE")
          << "recovered fact " << key << " was never issued";
    }
    // The salvaged log still accepts appends after recovery.
    Status appended = CommitOne(
        recovered, {Mutation::kAssert, "POST-RECOVERY", "MARKS", "DONE"});
    ASSERT_TRUE(appended.ok()) << appended.ToString();
    ASSERT_TRUE(recovered.wal_status().ok())
        << recovered.wal_status().ToString();
  }
}

// ---- Replication under a primary kill ---------------------------------
//
// The primary runs in a forked child — durable store, log shipper,
// concurrent group-committing writers — and is killed mid-group by a
// batch failpoint while a follower in the parent tails its WAL. The
// follower only ever receives published (fsynced-and-acked) bytes, so
// its state is always a committed prefix. The parent then recovers the
// primary's files in-process and reships on the same port: the
// follower's reconnect loop must resume and converge to the recovered
// tip, which (durability invariant) contains every acked write — and
// the converged replica must match the recovered primary fact-for-fact.
TEST_F(CrashTortureTest, FollowerConvergesToAckedPrefixAfterPrimaryKill) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 30;
  const char* kTrials[] = {
      "wal.batch.record=crash@13",  // torn mid-batch-append
      "wal.batch.sync=crash@5",     // after flush, before the group fsync
  };
  int trial_index = 0;
  for (const char* spec : kTrials) {
    SCOPED_TRACE(spec);
    const std::string prefix = Prefix("repl" + std::to_string(trial_index));
    const std::string ack = Prefix("rack" + std::to_string(trial_index));
    const std::string port_path =
        Prefix("rport" + std::to_string(trial_index));
    const std::string scratch =
        Prefix("rscratch" + std::to_string(trial_index));
    ++trial_index;

    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid == 0) {
      if (!failpoint::Configure(spec).ok()) ::_exit(91);
      SharedStore store;
      SharedStoreDurability durability;
      durability.sync = WalSync::kFsync;
      durability.segment_bytes = 400;
      durability.checkpoint_bytes = 1200;
      if (!store.OpenDurable(prefix, durability).ok()) ::_exit(92);
      LogShipperOptions ship_options;
      ship_options.heartbeat_ms = 25;
      LogShipper shipper(&store, ship_options);
      if (!shipper.Start().ok()) ::_exit(96);
      {
        // Publish the ephemeral port for the parent's follower.
        std::FILE* f = std::fopen(port_path.c_str(), "w");
        if (f == nullptr) ::_exit(97);
        std::fprintf(f, "%u\n", shipper.port());
        std::fclose(f);
      }
      int ack_fd = ::open(ack.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (ack_fd < 0) ::_exit(93);
      std::vector<std::thread> writers;
      for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&store, ack_fd, t] {
          for (int i = 0; i < kCommitsPerThread; ++i) {
            std::string name =
                "T" + std::to_string(t) + "-N" + std::to_string(i);
            auto committed = store.Commit([&name](LooseDb& db) {
              db.Assert(name, "MARKS", "DONE");
              return Status::OK();
            });
            if (!committed.ok()) ::_exit(94);
            std::string line = name + "\n";
            if (::write(ack_fd, line.data(), line.size()) !=
                static_cast<ssize_t>(line.size())) {
              ::_exit(95);
            }
          }
        });
      }
      for (auto& t : writers) t.join();
      ::_exit(0);
    }

    // Tail the child while it lives (and retry once it is dead).
    uint16_t port = 0;
    for (int i = 0; i < 2000 && port == 0; ++i) {
      std::FILE* f = std::fopen(port_path.c_str(), "r");
      if (f != nullptr) {
        unsigned p = 0;
        if (std::fscanf(f, "%u", &p) == 1 && p != 0) {
          port = static_cast<uint16_t>(p);
        }
        std::fclose(f);
      }
      if (port == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_NE(port, 0) << "child never published its replication port";
    SharedStore follower;
    ReplicationMonitor monitor;
    ReplicationClientOptions follow_options;
    follow_options.port = port;
    follow_options.scratch_prefix = scratch;
    follow_options.backoff_base_ms = 20;
    follow_options.backoff_max_ms = 200;
    ReplicationClient client(&follower, &monitor, follow_options);
    ASSERT_TRUE(client.Start().ok());

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    ASSERT_EQ(WEXITSTATUS(status), failpoint::kCrashExitStatus)
        << "site never fired (exit " << WEXITSTATUS(status) << ")";
    failpoint::ClearAll();  // the spec must not arm the parent's recovery

    std::set<std::string> acked;
    {
      std::string bytes;
      std::FILE* f = std::fopen(ack.c_str(), "rb");
      if (f != nullptr) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
          bytes.append(buf, n);
        }
        std::fclose(f);
      }
      size_t start = 0, nl;
      while ((nl = bytes.find('\n', start)) != std::string::npos) {
        acked.insert(bytes.substr(start, nl - start));
        start = nl + 1;
      }
    }

    // Recover the primary in-process and reship on the same port; the
    // follower resumes from its last applied offset (or falls back to
    // a snapshot if recovery checkpointed the log away).
    SharedStore recovered;
    SharedStoreDurability durability;
    durability.sync = WalSync::kFsync;
    durability.segment_bytes = 400;
    durability.checkpoint_bytes = 1200;
    ASSERT_TRUE(recovered.OpenDurable(prefix, durability).ok());
    LogShipperOptions ship_options;
    ship_options.port = port;
    ship_options.heartbeat_ms = 25;
    LogShipper shipper(&recovered, ship_options);
    ASSERT_TRUE(shipper.Start().ok());

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    auto converged = [&] {
      const ReplicationStatus s = monitor.Sample();
      return s.ever_synced && s.lag_bytes == 0 &&
             s.applied_epoch == recovered.snapshot()->sequence();
    };
    while (!converged() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(converged())
        << "follower never converged after the primary kill ("
        << monitor.Sample().reconnects << " reconnects)";
    client.Stop();
    shipper.Stop();

    // Floor: every acknowledged write reached the replica.
    EpochPtr replica = follower.snapshot();
    std::set<std::string> replica_facts = DumpFacts(replica->db());
    for (const std::string& name : acked) {
      EXPECT_TRUE(replica_facts.count(Key(name, "MARKS", "DONE")) > 0)
          << "acked write " << name << " missing on the follower ("
          << acked.size() << " acked)";
    }
    // And the replica IS the recovered primary, fact for fact.
    EXPECT_EQ(replica_facts, DumpFacts(recovered.snapshot()->db()));
  }
}

// ---- Background compaction under crashes ------------------------------
//
// Compaction is a durability no-op: a merge writes no WAL records and
// publishes through the same epoch machinery as ordinary commits, so
// killing the process mid-merge (compact.merge, on the merge thread
// between the pin and the plan) or between the two tier swaps
// (compact.swap, inside the install commit) must lose nothing. The
// recovered store is exactly the acked floor plus possibly-unacked
// issued writes — never an invented fact, never a half-swapped tier —
// and compaction can be re-enabled on the recovered store.
TEST_F(CrashTortureTest, CompactionCrashIsADurabilityNoOp) {
  constexpr int kThreads = 3;
  constexpr int kCommitsPerThread = 40;
  const char* kTrials[] = {
      "compact.merge=crash@0", "compact.merge=crash@3",
      "compact.swap=crash@0",  "compact.swap=crash@2",
  };
  int trial_index = 0;
  for (const char* spec : kTrials) {
    SCOPED_TRACE(spec);
    const std::string prefix = Prefix("cmp" + std::to_string(trial_index));
    const std::string ack = Prefix("cack" + std::to_string(trial_index));
    ++trial_index;

    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid == 0) {
      if (!failpoint::Configure(spec).ok()) ::_exit(91);
      SharedStore store;
      SharedStoreDurability durability;
      durability.sync = WalSync::kFsync;
      durability.segment_bytes = 400;     // rotate under compaction
      durability.checkpoint_bytes = 1200; // checkpoints interleave merges
      if (!store.OpenDurable(prefix, durability).ok()) ::_exit(92);
      CompactionOptions aggressive;
      aggressive.min_runs = 1;
      aggressive.overlay_ratio = 0.0;
      aggressive.min_overlay_bytes = 1;
      aggressive.poll_ms = 1;
      aggressive.backpressure_runs = 0;
      if (!store.EnableCompaction(aggressive).ok()) ::_exit(96);
      int ack_fd =
          ::open(ack.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (ack_fd < 0) ::_exit(93);
      auto acked_commit = [&store, ack_fd](const std::string& name) {
        auto committed = store.Commit([&name](LooseDb& db) {
          db.Assert(name, "MARKS", "DONE");
          return Status::OK();
        });
        if (!committed.ok()) ::_exit(94);
        std::string line = name + "\n";
        if (::write(ack_fd, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size())) {
          ::_exit(95);
        }
      };
      std::vector<std::thread> writers;
      for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&acked_commit, t] {
          for (int i = 0; i < kCommitsPerThread; ++i) {
            acked_commit("T" + std::to_string(t) + "-N" + std::to_string(i));
          }
        });
      }
      for (auto& t : writers) t.join();
      // The background thread may not have reached the armed site yet;
      // pump foreground merges (each with fresh overlay, so the plan is
      // never trivially empty) until the failpoint kills us.
      for (int i = 0; i < 1000; ++i) {
        acked_commit("PUMP-" + std::to_string(i));
        if (!store.CompactOnce().ok()) ::_exit(97);
      }
      ::_exit(0);  // site never fired: the parent will fail the trial
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    ASSERT_EQ(WEXITSTATUS(status), failpoint::kCrashExitStatus)
        << "site never fired (exit " << WEXITSTATUS(status) << ")";

    std::set<std::string> acked;
    {
      std::string bytes;
      std::FILE* f = std::fopen(ack.c_str(), "rb");
      if (f != nullptr) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
          bytes.append(buf, n);
        }
        std::fclose(f);
      }
      size_t start = 0, nl;
      while ((nl = bytes.find('\n', start)) != std::string::npos) {
        acked.insert(bytes.substr(start, nl - start));
        start = nl + 1;
      }
    }

    // Recover as a durable SharedStore (the serving configuration).
    SharedStore recovered;
    SharedStoreDurability durability;
    durability.sync = WalSync::kFsync;
    durability.segment_bytes = 400;
    durability.checkpoint_bytes = 1200;
    ASSERT_TRUE(recovered.OpenDurable(prefix, durability).ok());

    // Floor: every acknowledged write survived, whatever the merge
    // thread was doing when the process died.
    LooseDb& db = recovered.snapshot()->db();
    std::set<std::string> facts = DumpFacts(db);
    for (const std::string& name : acked) {
      EXPECT_TRUE(facts.count(Key(name, "MARKS", "DONE")) > 0)
          << "acked write " << name << " lost to a compaction crash ("
          << acked.size() << " acked)";
    }
    // Ceiling: nothing recovered that was never issued — a torn merge
    // or half-swapped tier must not resurface as invented facts.
    const Baseline& base = GetBaseline();
    for (const std::string& key : facts) {
      if (base.facts.count(key) > 0) continue;
      size_t bar = key.find('|');
      std::string name = key.substr(0, bar);
      EXPECT_TRUE((name.rfind("T", 0) == 0 || name.rfind("PUMP-", 0) == 0) &&
                  key.substr(bar) == "|MARKS|DONE")
          << "recovered fact " << key << " was never issued";
    }
    // The recovered store serves, compacts, and keeps committing.
    auto q = recovered.snapshot()->db().Query("(?W, MARKS, DONE)");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_GE(q->rows.size(), acked.size());
    ASSERT_TRUE(recovered.EnableCompaction().ok());
    ASSERT_TRUE(recovered
                    .Commit([](LooseDb& db2) {
                      db2.Assert("POST-RECOVERY", "MARKS", "DONE");
                      return Status::OK();
                    })
                    .ok());
    Status merged = recovered.CompactOnce();
    ASSERT_TRUE(merged.ok()) << merged.ToString();
    auto q2 = recovered.snapshot()->db().Query("(POST-RECOVERY, MARKS, ?X)");
    ASSERT_TRUE(q2.ok());
    EXPECT_TRUE(q2->Success());
    recovered.StopCompaction();
  }
}

// A writer with no failpoints armed must complete and recover whole.
TEST_F(CrashTortureTest, CleanRunRecoversEverything) {
  const std::string prefix = Prefix("clean");
  const std::string ack = Prefix("ack");
  ASSERT_EQ(RunWriterChild(prefix, ack, ""), 0);
  ASSERT_EQ(CountAcks(ack), history_.size());
  SharedStore store;
  ASSERT_TRUE(store.OpenDurable(prefix, TortureDurability()).ok());
  EXPECT_EQ(FindMatchingPrefix(store.snapshot()->db(), history_,
                               history_.size()),
            static_cast<int>(history_.size()))
      << store.last_recovery().ToString();
  ExpectGoldenMenus(store.snapshot()->db());
}

// Kill the log itself, not the process: truncate and corrupt the final
// log at hundreds of random byte offsets and prove every recovery is a
// committed prefix with zero checksum-invalid records accepted.
TEST_F(CrashTortureTest, SurvivesRandomByteOffsetDamage) {
  // Write the full history without checkpoints: with no snapshot, the
  // record count replayed identifies the recovered prefix exactly.
  SharedStoreDurability durability = TortureDurability();
  durability.checkpoint_bytes = 0;
  const std::string prefix = Prefix("flat");
  {
    SharedStore store;
    ASSERT_TRUE(store.OpenDurable(prefix, durability).ok());
    for (const Mutation& m : history_) {
      ASSERT_TRUE(CommitOne(store, m).ok());
    }
  }

  // Snapshot the pristine segment files, in sequence order.
  struct Segment {
    std::string path;
    std::string bytes;
  };
  std::vector<Segment> pristine;
  for (int seq = 1; seq < 1000; ++seq) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), ".wal.%06d", seq);
    const std::string path = prefix + suffix;
    if (!fs::exists(path)) break;
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
    std::fclose(f);
    pristine.push_back({path, std::move(bytes)});
  }
  ASSERT_GE(pristine.size(), 3u) << "rotation produced too few segments";
  size_t total_bytes = 0;
  for (const Segment& s : pristine) total_bytes += s.bytes.size();

  // Restores the pristine log, then truncates it at global offset
  // `cut` (mode 0) or flips the byte at `cut` (mode 1).
  auto damage = [&](size_t cut, int mode) {
    for (const Segment& s : pristine) fs::remove(s.path);
    size_t start = 0;
    for (const Segment& s : pristine) {
      size_t end = start + s.bytes.size();
      std::string bytes = s.bytes;
      bool last = false;
      if (mode == 0) {
        if (cut <= start) break;  // this segment never existed
        if (cut < end) {
          bytes = s.bytes.substr(0, cut - start);
          last = true;
        }
      } else if (cut >= start && cut < end) {
        bytes[cut - start] ^= 0x20;
      }
      std::FILE* f = std::fopen(s.path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                bytes.size());
      std::fclose(f);
      if (last) break;
      start = end;
    }
  };

  Rng rng(20260806);
  const int kTrialsPerMode = 110;  // 220 damage recoveries total
  for (int mode = 0; mode < 2; ++mode) {
    for (int trial = 0; trial < kTrialsPerMode; ++trial) {
      size_t cut = rng.Uniform(total_bytes);
      SCOPED_TRACE((mode == 0 ? "truncate at " : "flip at ") +
                   std::to_string(cut));
      damage(cut, mode);

      SharedStore store;
      Status opened = store.OpenDurable(prefix, durability);
      ASSERT_TRUE(opened.ok()) << opened.ToString();
      EpochPtr tip = store.snapshot();
      const LooseDb& db = tip->db();
      const RecoveryStats& stats = store.last_recovery();
      // With no snapshot, replayed records == prefix length. Verify
      // the store state is exactly that prefix: a single corrupt
      // record accepted, lost, or reordered would break the match.
      ASSERT_LE(stats.records_replayed, history_.size());
      SimState sim;
      for (size_t i = 0; i < stats.records_replayed; ++i) {
        Advance(&sim, history_[i]);
      }
      EXPECT_TRUE(MatchesPrefix(db, sim))
          << "recovered store is not the " << stats.records_replayed
          << "-record prefix (" << stats.ToString() << ")";
    }
  }
}

}  // namespace
}  // namespace lsd
