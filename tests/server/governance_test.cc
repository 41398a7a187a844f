// Resource governance end-to-end: hard request deadlines killing
// poison queries with typed errors (connection survives), step budgets,
// per-session cumulative budgets, shed-under-overload policy, the
// starvation regression (poison queries must not starve cheap probes),
// the cancelled-evaluation-leaves-no-trace property, and cancellation
// racing the group-commit WAL path.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "wire_client.h"
#include "util/budget.h"
#include "util/failpoint.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

using testing_wire::BinaryClient;
using testing_wire::TextClient;
using Clock = std::chrono::steady_clock;

// The poison query: a chain join whose every atom matches the whole
// FEEDS edge set (no selective start for the planner) and whose middle
// expansion fans out kLayer ways before the third atom kills each
// candidate — ~kLayer^3 enumerations, zero rows, O(depth) memory.
constexpr const char* kPoison =
    "query (?A, FEEDS, ?B) and (?B, FEEDS, ?C) and (?C, FEEDS, ?D)";

// Seeds a three-layer DAG with complete bipartite FEEDS edges between
// consecutive layers; disconnected from the campus domain, so cheap
// queries never touch it. 192^3 ≈ 7M enumerations — far past any
// deadline these tests set.
void SeedPoisonGraph(SharedStore* store, int layer = 192) {
  auto seeded = store->Commit([layer](LooseDb& db) {
    const char* names[] = {"HX", "HY", "HZ"};
    for (int l = 0; l < 2; ++l) {
      for (int i = 0; i < layer; ++i) {
        for (int j = 0; j < layer; ++j) {
          char a[32], b[32];
          std::snprintf(a, sizeof(a), "%s%d", names[l], i);
          std::snprintf(b, sizeof(b), "%s%d", names[l + 1], j);
          (void)db.Assert(a, "FEEDS", b);
        }
      }
    }
    return Status::OK();
  });
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
}

void SeedCampus(SharedStore* store) {
  auto seeded = store->Commit([](LooseDb& db) {
    workload::BuildCampusDomain(&db);
    return Status::OK();
  });
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
}

class GovernanceTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<LsdServer>(&store_, options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }
  void TearDown() override {
    failpoint::ClearAll();
    if (server_ != nullptr) server_->Stop();
  }

  SharedStore store_;
  std::unique_ptr<LsdServer> server_;
};

TEST_F(GovernanceTest, DeadlineKillsPoisonTypedAndConnectionSurvives) {
  SeedCampus(&store_);
  SeedPoisonGraph(&store_);
  ServerOptions options;
  options.request_timeout = std::chrono::milliseconds(100);
  StartServer(options);

  TextClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  auto start = Clock::now();
  auto reply = client.Send(kPoison);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->ok);
  EXPECT_NE(reply->error.find("DeadlineExceeded"), std::string::npos)
      << reply->error;
  // The hard deadline plus the cooperative-check grace from the issue:
  // no request may outlive request_timeout + 500 ms.
  EXPECT_LE(elapsed.count(), 100 + 500) << "poison outlived the deadline";

  // A budget kill is a typed reply, not a hangup: the same connection
  // keeps serving (pipelined requests survive a governed predecessor).
  auto pong = client.Send("ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok);

  // The kill is visible in the stats governance block.
  auto stats = client.Send("stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok);
  EXPECT_NE(stats->payload.find("governance:"), std::string::npos)
      << stats->payload;
  EXPECT_NE(stats->payload.find("deadline 1"), std::string::npos)
      << stats->payload;
  EXPECT_NE(stats->payload.find("worst request:"), std::string::npos)
      << stats->payload;
}

TEST_F(GovernanceTest, StepCapKillsWithResourceExhausted) {
  SeedCampus(&store_);
  SeedPoisonGraph(&store_);
  ServerOptions options;
  options.request_timeout = std::chrono::milliseconds(0);  // steps only
  options.max_steps_per_request = 50'000;
  StartServer(options);

  TextClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  auto reply = client.Send(kPoison);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->ok);
  EXPECT_NE(reply->error.find("ResourceExhausted"), std::string::npos)
      << reply->error;
  // Cheap queries stay under the cap.
  auto cheap = client.Send("query (TOM, ENROLLED-IN, ?C)");
  ASSERT_TRUE(cheap.ok());
  EXPECT_TRUE(cheap->ok) << cheap->error;
}

TEST_F(GovernanceTest, SessionStepBudgetExhausts) {
  SeedCampus(&store_);
  SeedPoisonGraph(&store_);
  ServerOptions options;
  options.request_timeout = std::chrono::milliseconds(100);
  options.session_step_budget = 100'000;
  StartServer(options);

  TextClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  // Burn the session's cumulative budget with poison queries (each is
  // deadline-killed but still charges its enumerations), then watch a
  // cheap read get refused while control verbs keep working.
  bool exhausted = false;
  for (int i = 0; i < 50 && !exhausted; ++i) {
    auto reply = client.Send(kPoison);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_FALSE(reply->ok);
    exhausted =
        reply->error.find("session step budget exhausted") != std::string::npos;
  }
  EXPECT_TRUE(exhausted) << "cumulative budget never tripped";
  auto cheap = client.Send("query (TOM, ENROLLED-IN, ?C)");
  ASSERT_TRUE(cheap.ok());
  EXPECT_FALSE(cheap->ok);
  EXPECT_NE(cheap->error.find("session step budget"), std::string::npos)
      << cheap->error;
  // Control verbs are never budget-gated: the client can still observe
  // its own state and say goodbye.
  auto session = client.Send("session");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->ok) << session->error;
  EXPECT_NE(session->payload.find("steps:"), std::string::npos);
}

// Shed policy, tested at the session layer where DEGRADED can be set
// deterministically: while degraded, queries whose planner estimate
// exceeds the threshold are refused with a typed error before running;
// cheap probes and control verbs keep flowing.
TEST(GovernanceShedTest, DegradedShedsExpensiveKeepsCheap) {
  SharedStore store;
  SeedCampus(&store);
  SeedPoisonGraph(&store, /*layer=*/64);
  SessionRegistry registry(&store);
  GovernanceState governance;
  governance.shed_cost_threshold = 1 << 16;
  registry.set_governance(&governance);
  auto session = registry.Create(8);
  ASSERT_NE(session, nullptr);

  governance.degraded.store(true);
  auto shed = session->Execute(kPoison);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted())
      << shed.status().ToString();
  EXPECT_NE(shed.status().ToString().find("shed"), std::string::npos);
  EXPECT_EQ(governance.cancelled_shed.load(), 1u);

  // Cheap point reads (bound atoms, small estimates) are not shed.
  auto cheap = session->Execute("query (TOM, ENROLLED-IN, ?C)");
  EXPECT_TRUE(cheap.ok()) << cheap.status().ToString();
  // Control verbs never shed: they are how a client observes the very
  // overload that is rejecting its queries.
  EXPECT_TRUE(session->Execute("stats").ok());
  EXPECT_TRUE(session->Execute("session").ok());

  // Leaving DEGRADED restores the expensive query's right to run (and
  // to be killed by its own budget instead). A step cap, not a
  // deadline: the poison's 64^3 enumerations trip it however fast the
  // build runs.
  governance.degraded.store(false);
  QueryBudget budget(QueryBudget::Clock::time_point::max(),
                     /*max_steps=*/50'000);
  session->set_request_budget(&budget);
  auto governed = session->Execute(kPoison);
  session->set_request_budget(nullptr);
  ASSERT_FALSE(governed.ok());
  EXPECT_TRUE(governed.status().IsResourceExhausted())
      << governed.status().ToString();
}

// Pricing reads the names of a request and interns none: a shed query
// naming a new entity leaves the table every epoch shares unchanged.
TEST(GovernanceShedTest, PricingInternsNothing) {
  SharedStore store;
  SeedCampus(&store);
  SeedPoisonGraph(&store, /*layer=*/64);
  SessionRegistry registry(&store);
  GovernanceState governance;
  governance.shed_cost_threshold = 1 << 16;
  registry.set_governance(&governance);
  auto session = registry.Create(8);
  ASSERT_NE(session, nullptr);
  governance.degraded.store(true);
  const size_t names = store.snapshot()->db().entities().size();
  auto shed = session->Execute(
      "query ((?A, FEEDS, ?B) and (?B, FEEDS, ?C) and (?C, FEEDS, ?D)) or "
      "((?A, QQNEW, ?B) and (?B, QQNEW, ?C) and (?C, QQNEW, ?D))");
  ASSERT_FALSE(shed.ok());
  EXPECT_NE(shed.status().ToString().find("shed"), std::string::npos)
      << shed.status().ToString();
  EXPECT_EQ(store.snapshot()->db().entities().size(), names);
}

// A name the table does not hold is priced as unbound, not as matching
// nothing: a fresh number under a comparator matches every smaller
// numeric entity, so the poison chain joined to it is still shed.
TEST(GovernanceShedTest, UnknownNamesArePricedAsUnbound) {
  SharedStore store;
  SeedCampus(&store);
  SeedPoisonGraph(&store, /*layer=*/64);
  SessionRegistry registry(&store);
  GovernanceState governance;
  governance.shed_cost_threshold = 1 << 16;
  registry.set_governance(&governance);
  auto session = registry.Create(8);
  ASSERT_NE(session, nullptr);
  governance.degraded.store(true);
  const size_t names = store.snapshot()->db().entities().size();
  // Should pricing let it through, a step cap ends the run, with
  // another error than a shed.
  QueryBudget budget(QueryBudget::Clock::time_point::max(),
                     /*max_steps=*/50'000);
  session->set_request_budget(&budget);
  auto shed = session->Execute(std::string(kPoison) +
                               " and (?N, <, 999999999)");
  session->set_request_budget(nullptr);
  ASSERT_FALSE(shed.ok());
  EXPECT_NE(shed.status().ToString().find("shed"), std::string::npos)
      << shed.status().ToString();
  EXPECT_EQ(store.snapshot()->db().entities().size(), names);
}

// The walks are priced by the facts they scan, not at a full closure
// scan (past the threshold here: 2 × 192² FEEDS facts). A short assoc,
// near and dist run under DEGRADED, and so does an assoc from a hub to
// a sink with nothing between them to walk (300 out-links, each a dead
// end). An assoc whose second hop fans out (HUB feeds every HX and HY:
// 384 + 2 × 192² facts) is shed, as are near and dist around that hub,
// and a near whose radius reaches past the threshold.
TEST(GovernanceShedTest, WalksArePricedByTheFactsTheyScan) {
  SharedStore store;
  SeedCampus(&store);
  SeedPoisonGraph(&store);
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    for (int i = 0; i < 300; ++i) {
                      const std::string n = std::to_string(i);
                      db.Assert("SPOKES", "LINKS", "L" + n);
                      db.Assert("M" + n, "LINKS", "SINK");
                    }
                    for (int i = 0; i < 192; ++i) {
                      const std::string n = std::to_string(i);
                      db.Assert("HUB", "FEEDS", "HX" + n);
                      db.Assert("HUB", "FEEDS", "HY" + n);
                    }
                    return Status::OK();
                  })
                  .ok());
  SessionRegistry registry(&store);
  GovernanceState governance;
  governance.shed_cost_threshold = 1 << 16;
  registry.set_governance(&governance);
  auto session = registry.Create(8);
  ASSERT_NE(session, nullptr);
  governance.degraded.store(true);

  auto cheap = session->Execute("assoc TOM HARRY");
  ASSERT_TRUE(cheap.ok()) << cheap.status().ToString();
  EXPECT_NE(cheap->find("ENROLLED-IN.CS100.TAUGHT-BY"), std::string::npos)
      << *cheap;
  EXPECT_TRUE(session->Execute("near TOM 2").ok());
  EXPECT_TRUE(session->Execute("dist TOM HARRY").ok());
  auto spokes = session->Execute("assoc SPOKES SINK");
  EXPECT_TRUE(spokes.ok()) << spokes.status().ToString();
  EXPECT_EQ(governance.cancelled_shed.load(), 0u);

  for (const char* hub : {"assoc HUB HZ0", "near HUB 2", "dist HUB HZ0",
                          "near TOM 40"}) {
    auto shed = session->Execute(hub);
    ASSERT_FALSE(shed.ok()) << hub;
    EXPECT_NE(shed.status().ToString().find("shed"), std::string::npos)
        << hub << ": " << shed.status().ToString();
  }
  EXPECT_EQ(governance.cancelled_shed.load(), 4u);
}

// ExecuteRequest is the governed-request sequence every front end runs
// (the server's worker, the shell under `timeout N`): it charges the
// budget's steps to the session and counts a failure as a cancellation
// only when the budget caused it.
TEST(GovernanceSessionTest, ExecuteRequestCountsOnlyBudgetFailures) {
  SharedStore store;
  SeedCampus(&store);
  SeedPoisonGraph(&store, /*layer=*/64);
  SessionRegistry registry(&store);
  GovernanceState governance;
  registry.set_governance(&governance);
  auto session = registry.Create(8);
  ASSERT_NE(session, nullptr);

  QueryBudget capped(QueryBudget::Clock::time_point::max(),
                     /*max_steps=*/50'000);
  auto poison = session->ExecuteRequest(kPoison, /*mutation=*/false, &capped);
  ASSERT_FALSE(poison.ok());
  EXPECT_TRUE(poison.status().IsResourceExhausted())
      << poison.status().ToString();
  EXPECT_EQ(governance.cancelled_budget.load(), 1u);
  EXPECT_EQ(session->steps_used(), capped.steps());
  EXPECT_GT(session->steps_used(), 0u);

  // An expired budget refuses a governed read before any work...
  QueryBudget expired(QueryBudget::Clock::time_point::max());
  expired.Cancel(CancelReason::kDeadline);
  auto refused = session->ExecuteRequest("query (TOM, ENROLLED-IN, ?C)",
                                         /*mutation=*/false, &expired);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsDeadlineExceeded())
      << refused.status().ToString();
  EXPECT_EQ(governance.cancelled_deadline.load(), 1u);
  // ...but a command failing for its own reason is not a cancellation,
  // however the budget stands.
  auto unknown =
      session->ExecuteRequest("frobnicate", /*mutation=*/false, &expired);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument)
      << unknown.status().ToString();
  EXPECT_EQ(governance.total_cancelled(), 2u);
}

// The property test from the issue: a cancelled evaluation must leave
// the session's trail and hypothetical overlay bit-identical to never
// having run, across every governed verb.
TEST(GovernanceSessionTest, CancelledEvaluationLeavesNoTrace) {
  SharedStore store;
  SeedCampus(&store);
  SeedPoisonGraph(&store, /*layer=*/64);
  // A hub whose neighborhood is larger than one ticker stride, so a
  // step-capped navigation is guaranteed to trip mid-scan.
  auto star = store.Commit([](LooseDb& db) {
    for (int i = 0; i < 3000; ++i) {
      char n[16];
      std::snprintf(n, sizeof(n), "S%d", i);
      (void)db.Assert("HOT", "TOUCHES", n);
    }
    return Status::OK();
  });
  ASSERT_TRUE(star.ok()) << star.status().ToString();
  SessionRegistry registry(&store);
  auto session = registry.Create(8);
  ASSERT_NE(session, nullptr);

  // Build interesting session state: a trail with the cursor mid-way
  // and a non-empty overlay.
  ASSERT_TRUE(session->Execute("visit TOM").ok());
  ASSERT_TRUE(session->Execute("visit MATH101").ok());
  ASSERT_TRUE(session->Execute("back").ok());
  ASSERT_TRUE(
      session->Execute("hypo retract (TOM, ENROLLED-IN, MATH101)").ok());
  ASSERT_TRUE(session->Execute("hypo assert (TOM, LOVE, CS100)").ok());

  auto render = [&session]() {
    std::string out;
    auto hypo = session->Execute("hypo list");
    EXPECT_TRUE(hypo.ok());
    if (hypo.ok()) out += *hypo;
    auto info = session->Execute("session");
    EXPECT_TRUE(info.ok());
    if (info.ok()) {
      // Keep only the state lines; requests/steps counters advance by
      // construction on every Execute.
      std::istringstream in(*info);
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("trail:", 0) == 0 || line.rfind("overlay:", 0) == 0 ||
            line.rfind("epoch:", 0) == 0) {
          out += line + "\n";
        }
      }
    }
    // The overlay's semantics, not just its bookkeeping: the
    // hypothetical world must answer exactly as before.
    auto probe = session->Execute("query (TOM, LOVE, ?Z)");
    EXPECT_TRUE(probe.ok());
    if (probe.ok()) out += *probe;
    return out;
  };
  const std::string before = render();

  const char* governed[] = {
      kPoison,
      "probe (?A, FEEDS, ?B) and (?B, FEEDS, ?C) and (?C, FEEDS, ?D)",
      "nav TOM",
      "visit SUE",
      "back",
      "forward",
      "near TOM",
      "dist TOM SUE",
      "assoc TOM SUE",
      "check",
      "dot",
  };
  // Boundary cancellation: a request arriving past its deadline is
  // refused before any work and leaves no trace.
  QueryBudget expired(QueryBudget::Clock::now() -
                      std::chrono::milliseconds(1));
  for (const char* verb : governed) {
    session->set_request_budget(&expired);
    auto result = session->Execute(verb);
    session->set_request_budget(nullptr);
    ASSERT_FALSE(result.ok()) << verb << " ran to completion";
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << verb << ": " << result.status().ToString();
    EXPECT_EQ(render(), before) << verb << " left a trace";
  }

  // Mid-evaluation cancellation: a live budget with a one-step cap
  // passes the boundary check, starts the work, and trips at the first
  // ticker stride — the unwind must roll back any half-taken state
  // (e.g. a visit must not move the trail cursor).
  const char* midway[] = {
      kPoison,
      "probe (?A, FEEDS, ?B) and (?B, FEEDS, ?C) and (?C, FEEDS, ?D)",
      "nav HOT",
      "visit HOT",
  };
  for (const char* verb : midway) {
    QueryBudget capped(QueryBudget::Clock::now() + std::chrono::hours(1),
                       /*max_steps=*/1);
    session->set_request_budget(&capped);
    auto result = session->Execute(verb);
    session->set_request_budget(nullptr);
    ASSERT_FALSE(result.ok()) << verb << " ran to completion";
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << verb << ": " << result.status().ToString();
    EXPECT_EQ(render(), before) << verb << " left a trace";
  }
}

// Cancellation composing with group commit: once a mutation is past the
// pre-enqueue budget check, a firing deadline must NOT abort it — the
// worker waits for the ack and the client gets OK, never a half-applied
// commit or a lost ack. The WAL failpoint stretches the commit well
// past the deadline to force the race.
TEST_F(GovernanceTest, CancelAfterEnqueueWaitsForAck) {
#if !LSD_FAILPOINTS_ENABLED
  GTEST_SKIP() << "built without failpoints";
#else
  char tmpl[] = "/tmp/lsd_governance.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string prefix = std::string(tmpl) + "/db";
  ASSERT_TRUE(store_.OpenDurable(prefix).ok());
  SeedCampus(&store_);
  ServerOptions options;
  options.request_timeout = std::chrono::milliseconds(50);
  StartServer(options);

  ASSERT_TRUE(failpoint::Configure("wal.batch.record=delay(150)").ok());
  TextClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  auto start = Clock::now();
  auto reply = client.Send("assert (RACE1, TOUCHES, HUB)");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);
  failpoint::ClearAll();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  // The commit outlived the deadline (the WAL append alone took 3x the
  // request_timeout) yet the write acked: cancel-after-enqueue waits.
  EXPECT_GE(elapsed.count(), 100) << "failpoint did not stretch the commit";
  EXPECT_TRUE(reply->ok) << reply->error;
  auto ask = client.Send("query (RACE1, TOUCHES, HUB)");
  ASSERT_TRUE(ask.ok());
  ASSERT_TRUE(ask->ok) << ask->error;
  EXPECT_NE(ask->payload.find("true"), std::string::npos) << ask->payload;
#endif
}

// Torture: disconnect-cancellation racing the group-commit WAL write.
// Clients fire a multi-op batch mutation and slam the connection shut
// at a random point; whatever the timing, the store must never show a
// partially applied batch (its ops land in ONE commit slot) and the
// server must keep serving.
TEST_F(GovernanceTest, DisconnectRaceNeverHalfAppliesBatch) {
#if !LSD_FAILPOINTS_ENABLED
  GTEST_SKIP() << "built without failpoints";
#else
  char tmpl[] = "/tmp/lsd_governance.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string prefix = std::string(tmpl) + "/db";
  ASSERT_TRUE(store_.OpenDurable(prefix).ok());
  SeedCampus(&store_);
  ServerOptions options;
  options.request_timeout = std::chrono::milliseconds(200);
  StartServer(options);
  ASSERT_TRUE(failpoint::Configure("wal.batch.record=delay(2)").ok());

  constexpr int kBatches = 24;
  constexpr int kOpsPerBatch = 4;
  for (int b = 0; b < kBatches; ++b) {
    BinaryClient client(server_->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Greeting().ok());
    std::string records;
    for (int o = 0; o < kOpsPerBatch; ++o) {
      EncodeWalRecord(
          WalRecord{static_cast<uint8_t>(WalOpCode::kAssert),
                    {"B" + std::to_string(b) + "-" + std::to_string(o),
                     "TOUCHES", "HUB"}},
          &records);
    }
    ASSERT_TRUE(
        WriteAll(client.fd(), EncodeFrame(FrameType::kMutation, 1, records))
            .ok());
    // Vary the race window: sometimes the close lands before the worker
    // even dequeues the request, sometimes mid-WAL-append.
    if (b % 3 != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(b % 7));
    }
    client.Close();
  }
  failpoint::ClearAll();

  // Let in-flight commits drain, then check atomicity batch by batch
  // through a fresh connection (a ground query renders true/false; an
  // unknown entity means the batch never interned, i.e. absent).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  TextClient checker(server_->port());
  ASSERT_TRUE(checker.connected());
  ASSERT_TRUE(checker.Greeting().ok());
  for (int b = 0; b < kBatches; ++b) {
    int present = 0;
    for (int o = 0; o < kOpsPerBatch; ++o) {
      const std::string name =
          "B" + std::to_string(b) + "-" + std::to_string(o);
      auto ask = checker.Send("query (" + name + ", TOUCHES, HUB)");
      ASSERT_TRUE(ask.ok()) << ask.status().ToString();
      if (ask->ok && ask->payload.find("true") != std::string::npos) {
        ++present;
      }
    }
    EXPECT_TRUE(present == 0 || present == kOpsPerBatch)
        << "batch " << b << " half-applied: " << present << "/"
        << kOpsPerBatch;
  }
  // The server survived the slam-fest and still serves.
  auto pong = checker.Send("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok);
#endif
}

// The starvation regression from the issue: 4 poison queries against a
// governed server while 64 cheap probes flow. Every poison must die at
// the deadline (+grace) and the cheap probes' p50 must stay within 2x
// of the no-poison baseline measured the same way.
TEST_F(GovernanceTest, PoisonQueriesDoNotStarveCheapProbes) {
  SeedCampus(&store_);
  SeedPoisonGraph(&store_);
  ServerOptions options;
  options.request_timeout = std::chrono::milliseconds(150);
  options.worker_threads = 8;  // poison must not consume the whole pool
  StartServer(options);

  constexpr int kProbes = 64;
  constexpr auto kPace = std::chrono::milliseconds(15);
  const std::string cheap = "query (TOM, ENROLLED-IN, ?C)";

  // One paced pass of cheap probes; returns per-request latency in us.
  auto run_probes = [&]() {
    std::vector<double> us;
    TextClient client(server_->port());
    EXPECT_TRUE(client.connected());
    EXPECT_TRUE(client.Greeting().ok());
    for (int i = 0; i < kProbes; ++i) {
      auto start = Clock::now();
      auto reply = client.Send(cheap);
      auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - start);
      EXPECT_TRUE(reply.ok() && reply->ok);
      us.push_back(static_cast<double>(elapsed.count()));
      std::this_thread::sleep_for(kPace);
    }
    std::nth_element(us.begin(), us.begin() + kProbes / 2, us.end());
    return us[kProbes / 2];
  };

  // Warm pass (closure, plan cache), then the measured baseline.
  (void)run_probes();
  const double baseline_p50_us = run_probes();

  // Fire 4 poison queries concurrently, then immediately run the same
  // paced probe pass against the loaded server.
  std::vector<std::thread> attackers;
  std::vector<std::chrono::milliseconds> poison_ms(4);
  // Not vector<bool>: its elements share a word, so the attackers'
  // writes would race.
  std::vector<char> poison_killed(4, false);
  for (int p = 0; p < 4; ++p) {
    attackers.emplace_back([this, p, &poison_ms, &poison_killed] {
      TextClient attacker(server_->port());
      if (!attacker.connected() || !attacker.Greeting().ok()) return;
      auto start = Clock::now();
      auto reply = attacker.Send(kPoison);
      poison_ms[p] = std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now() - start);
      poison_killed[p] =
          reply.ok() && !reply->ok &&
          reply->error.find("DeadlineExceeded") != std::string::npos;
    });
  }
  const double hostile_p50_us = run_probes();
  for (auto& t : attackers) t.join();

  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(poison_killed[p]) << "poison " << p << " was not killed";
    EXPECT_LE(poison_ms[p].count(), 150 + 500)
        << "poison " << p << " outlived deadline + grace";
  }
  std::printf("starvation: baseline p50 %.1f us, hostile p50 %.1f us, "
              "poison kill times %ld/%ld/%ld/%ld ms\n",
              baseline_p50_us, hostile_p50_us,
              static_cast<long>(poison_ms[0].count()),
              static_cast<long>(poison_ms[1].count()),
              static_cast<long>(poison_ms[2].count()),
              static_cast<long>(poison_ms[3].count()));
  // 2x the baseline, with a 1 ms floor so microsecond-scale scheduler
  // jitter on small baselines cannot flake the assertion.
  EXPECT_LE(hostile_p50_us,
            std::max(2.0 * baseline_p50_us, baseline_p50_us + 1000.0))
      << "cheap probes starved: baseline p50 " << baseline_p50_us
      << "us, hostile p50 " << hostile_p50_us << "us";
}

// idle_timeout ships with a sane non-zero default so a silent peer
// cannot pin a connection forever.
TEST(GovernanceDefaultsTest, IoTimeoutDefaultsNonZero) {
  ServerOptions options;
  EXPECT_GT(options.idle_timeout.count(), 0);
  EXPECT_GT(options.request_timeout.count(), 0);
}

}  // namespace
}  // namespace lsd
