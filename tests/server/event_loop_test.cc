// Event-loop lifecycle tests for the reactor front end: graceful
// shutdown drains in-flight pipelined requests, idle connections are
// swept, no fds leak across a server lifetime, backpressure pauses
// reads instead of erroring, and the Sec 5.2 two-session isolation
// suite holds over the binary pipelined transport. These run under TSan
// in CI; the threading they exercise is reactor + worker pool + test
// threads.
#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "server/server.h"
#include "server/shared_store.h"
#include "wire_client.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

using testing_wire::BinaryClient;
using testing_wire::TextClient;

size_t CountOpenFds() {
  size_t n = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

class EventLoopTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = ServerOptions()) {
    options.port = 0;
    server_ = std::make_unique<LsdServer>(&store_, options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  SharedStore store_;
  std::unique_ptr<LsdServer> server_;
};

TEST_F(EventLoopTest, WorkerPoolServesManyConnections) {
  ServerOptions options;
  options.worker_threads = 4;
  StartServer(options);
  EXPECT_EQ(server_->worker_count(), 4u);

  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TextClient client(server_->port());
      if (!client.connected() || !client.Greeting().ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        auto pong = client.Send("ping");
        if (!pong.ok() || !pong->ok || pong->payload != "pong\n") {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->requests_served(),
            static_cast<uint64_t>(kClients * kRequests));
}

TEST_F(EventLoopTest, ShutdownDrainsInFlightPipelinedRequests) {
  StartServer();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  constexpr int kWindow = 32;
  const uint64_t before = server_->requests_served();
  for (int i = 0; i < kWindow; ++i) {
    ASSERT_TRUE(client.SendRequest(i, "ping").ok());
  }
  // Wait until every request has executed (responses are queued or
  // flushed), then stop: Stop() must flush what is queued before
  // closing.
  for (int spin = 0; spin < 2000; ++spin) {
    if (server_->requests_served() >= before + kWindow) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(server_->requests_served(), before + kWindow);
  server_->Stop();

  for (int i = 0; i < kWindow; ++i) {
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok())
        << "response " << i << " lost: " << reply.status().ToString();
    EXPECT_EQ(reply->request_id, static_cast<uint64_t>(i));
    EXPECT_EQ(reply->payload, "pong\n");
  }
  // And then a clean EOF.
  auto eof = client.ReadReply();
  EXPECT_FALSE(eof.ok());
}

TEST_F(EventLoopTest, IdleConnectionsAreSwept) {
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(60);
  StartServer(options);

  TextClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  ASSERT_TRUE(client.Send("ping")->ok);
  // Past the idle budget (idle_timeout), the server hangs up on its
  // own.
  auto reply = client.Read();
  EXPECT_FALSE(reply.ok());
}

TEST_F(EventLoopTest, NoFdLeaksAcrossAServerLifetime) {
  // Warm up any lazy fd use (e.g. /dev/urandom) before baselining.
  {
    StartServer();
    TextClient warm(server_->port());
    ASSERT_TRUE(warm.Greeting().ok());
    ASSERT_TRUE(warm.Send("ping")->ok);
    warm.Close();
    server_->Stop();
    server_.reset();
  }
  const size_t before = CountOpenFds();
  {
    StartServer();
    std::vector<std::unique_ptr<TextClient>> clients;
    for (int i = 0; i < 50; ++i) {
      clients.push_back(std::make_unique<TextClient>(server_->port()));
      ASSERT_TRUE(clients.back()->connected());
      ASSERT_TRUE(clients.back()->Greeting().ok());
    }
    ASSERT_TRUE(clients[0]->Send("ping")->ok);
    // Half the clients hang up first; the server reaps them. The rest
    // are still open when Stop() runs.
    for (int i = 0; i < 25; ++i) clients[i]->Close();
    server_->Stop();
    server_.reset();
    clients.clear();
  }
  const size_t after = CountOpenFds();
  EXPECT_EQ(before, after);
}

TEST_F(EventLoopTest, BackpressurePausesReadsInsteadOfErroring) {
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queued_requests = 1;
  options.max_inflight_per_connection = 1;
  StartServer(options);

  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  // Blast far more requests than the caps allow in flight; every one
  // must still be answered, in order, with no in-band "busy" errors —
  // the reactor absorbs the burst by pausing reads.
  constexpr int kBurst = 500;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) {
    wire += EncodeFrame(FrameType::kRequest, i, "ping");
  }
  std::thread writer(
      [&] { ASSERT_TRUE(WriteAll(client.fd(), wire).ok()); });
  for (int i = 0; i < kBurst; ++i) {
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->request_id, static_cast<uint64_t>(i));
    EXPECT_EQ(static_cast<int>(reply->type),
              static_cast<int>(FrameType::kOk));
  }
  writer.join();
  EXPECT_GE(server_->reads_paused(), 1u);
}

// The Sec 5.2 golden scenario over the binary pipelined transport: two
// sessions, one retracts (MOVIE-NIGHT, COSTS, FREE) hypothetically, and
// only that session's failing-probe menu loses the FRESHMAN suggestion.
TEST_F(EventLoopTest, BinaryPipelinedSessionsStayIsolated) {
  auto seeded = store_.Commit([](LooseDb& db) {
    workload::BuildCampusDomain(&db);
    return Status::OK();
  });
  ASSERT_TRUE(seeded.ok());
  StartServer();

  BinaryClient alice(server_->port());
  BinaryClient bob(server_->port());
  ASSERT_TRUE(alice.Greeting().ok());
  ASSERT_TRUE(bob.Greeting().ok());

  const std::string probe =
      "probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)";
  // Alice pipelines the hypothetical retraction and the probe in one
  // burst; FIFO execution guarantees the probe sees the overlay.
  ASSERT_TRUE(
      alice.SendRequest(1, "hypo retract (MOVIE-NIGHT, COSTS, FREE)").ok());
  ASSERT_TRUE(alice.SendRequest(2, probe).ok());
  auto retracted = alice.ReadReply();
  ASSERT_TRUE(retracted.ok());
  EXPECT_EQ(retracted->request_id, 1u);
  EXPECT_EQ(static_cast<int>(retracted->type),
            static_cast<int>(FrameType::kOk));
  auto alice_menu = alice.ReadReply();
  ASSERT_TRUE(alice_menu.ok());
  EXPECT_EQ(alice_menu->request_id, 2u);
  EXPECT_EQ(alice_menu->payload.find("FRESHMAN instead of STUDENT"),
            std::string::npos)
      << alice_menu->payload;

  // Bob's session still sees the shared store: the paper's menu keeps
  // both generalization suggestions.
  auto bob_menu = bob.Call(9, probe);
  ASSERT_TRUE(bob_menu.ok());
  EXPECT_EQ(bob_menu->request_id, 9u);
  EXPECT_NE(bob_menu->payload.find("FRESHMAN instead of STUDENT"),
            std::string::npos)
      << bob_menu->payload;
  EXPECT_NE(bob_menu->payload.find("CHEAP instead of FREE"),
            std::string::npos)
      << bob_menu->payload;
}

}  // namespace
}  // namespace lsd
