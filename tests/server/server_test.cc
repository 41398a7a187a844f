// End-to-end tests of the TCP front end: greeting, framing, shared
// writes becoming visible across connections, bounded admission, and
// clean shutdown with connections open.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/protocol.h"
#include "server/server.h"
#include "server/shared_store.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

// A minimal blocking client over the wire protocol.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    if (connected_) reader_ = std::make_unique<LineReader>(fd_);
  }
  ~TestClient() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool connected() const { return connected_; }

  int fd() const { return fd_; }

  StatusOr<WireResponse> Greeting() { return ReadResponse(reader_.get()); }

  // Reads one response without sending anything (for raw-write tests).
  StatusOr<WireResponse> Read() { return ReadResponse(reader_.get()); }

  StatusOr<WireResponse> Send(const std::string& line) {
    LSD_RETURN_IF_ERROR(WriteAll(fd_, line + "\n"));
    return ReadResponse(reader_.get());
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::unique_ptr<LineReader> reader_;
};

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = ServerOptions()) {
    options.port = 0;  // ephemeral
    server_ = std::make_unique<LsdServer>(&store_, options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  SharedStore store_;
  std::unique_ptr<LsdServer> server_;
};

TEST_F(ServerTest, GreetsAndAnswersPing) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  auto greeting = client.Greeting();
  ASSERT_TRUE(greeting.ok()) << greeting.status().ToString();
  EXPECT_TRUE(greeting->ok);
  EXPECT_NE(greeting->payload.find("lsd server ready"), std::string::npos);

  auto pong = client.Send("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->payload, "pong\n");

  auto bye = client.Send("quit");
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye->ok);
}

TEST_F(ServerTest, ErrorsAreReportedInBand) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  auto response = client.Send("no-such-verb");
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error.find("unknown command"), std::string::npos);
  // The connection survives an in-band error.
  auto pong = client.Send("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok);
}

TEST_F(ServerTest, CommitsAreVisibleAcrossConnections) {
  StartServer();
  TestClient writer(server_->port());
  TestClient reader(server_->port());
  ASSERT_TRUE(writer.Greeting().ok());
  ASSERT_TRUE(reader.Greeting().ok());

  auto added = writer.Send("assert (TOM, ENROLLED-IN, CS100)");
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(added->ok) << added->error;
  EXPECT_EQ(added->payload, "added\n");

  auto rows = reader.Send("query (TOM, ENROLLED-IN, ?C)");
  ASSERT_TRUE(rows.ok());
  ASSERT_TRUE(rows->ok) << rows->error;
  EXPECT_NE(rows->payload.find("CS100"), std::string::npos);
}

TEST_F(ServerTest, StatsExposesEpochAndPlannerCounters) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.Greeting().ok());
  ASSERT_TRUE(client.Send("assert (A, R, B)")->ok);
  // Two identical queries: the second should hit the plan cache.
  ASSERT_TRUE(client.Send("query (A, R, ?X)")->ok);
  ASSERT_TRUE(client.Send("query (A, R, ?X)")->ok);

  auto stats = client.Send("stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok) << stats->error;
  EXPECT_NE(stats->payload.find("epoch:          1"), std::string::npos)
      << stats->payload;
  EXPECT_NE(stats->payload.find("store version:"), std::string::npos);
  EXPECT_NE(stats->payload.find("planner cache:"), std::string::npos);
  EXPECT_NE(stats->payload.find("commits:        1"), std::string::npos);
  EXPECT_NE(stats->payload.find("sessions:       1 live"), std::string::npos);
}

TEST_F(ServerTest, AdmissionIsBounded) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);

  TestClient first(server_->port());
  ASSERT_TRUE(first.connected());
  auto greeting = first.Greeting();
  ASSERT_TRUE(greeting.ok());
  EXPECT_TRUE(greeting->ok);

  // The second connection is rejected at the greeting, in-band.
  TestClient second(server_->port());
  ASSERT_TRUE(second.connected());
  auto rejected = second.Greeting();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected->ok);
  EXPECT_NE(rejected->error.find("busy"), std::string::npos);
  EXPECT_EQ(server_->rejected_connections(), 1u);

  // Once the first disconnects, the slot frees up.
  ASSERT_TRUE(first.Send("quit").ok());
  first.Close();
  for (int attempt = 0; attempt < 100; ++attempt) {
    TestClient retry(server_->port());
    ASSERT_TRUE(retry.connected());
    auto retry_greeting = retry.Greeting();
    ASSERT_TRUE(retry_greeting.ok());
    if (retry_greeting->ok) return;  // admitted
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "slot never freed after disconnect";
}

TEST_F(ServerTest, HypotheticalsStaySessionLocalOverTheWire) {
  auto seeded = store_.Commit([](LooseDb& db) {
    workload::BuildCampusDomain(&db);
    return Status::OK();
  });
  ASSERT_TRUE(seeded.ok());
  StartServer();

  TestClient alice(server_->port());
  TestClient bob(server_->port());
  ASSERT_TRUE(alice.Greeting().ok());
  ASSERT_TRUE(bob.Greeting().ok());

  ASSERT_TRUE(alice.Send("hypo retract (MOVIE-NIGHT, COSTS, FREE)")->ok);
  auto alice_menu =
      alice.Send("probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)");
  ASSERT_TRUE(alice_menu.ok());
  ASSERT_TRUE(alice_menu->ok) << alice_menu->error;
  EXPECT_EQ(alice_menu->payload.find("FRESHMAN instead of STUDENT"),
            std::string::npos);

  auto bob_menu =
      bob.Send("probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)");
  ASSERT_TRUE(bob_menu.ok());
  ASSERT_TRUE(bob_menu->ok) << bob_menu->error;
  EXPECT_NE(bob_menu->payload.find("FRESHMAN instead of STUDENT"),
            std::string::npos);
}

// A client that dribbles its request line out in chunks slower than the
// reactor's poll must still be served: any received byte resets the
// idle budget.
TEST_F(ServerTest, SlowWriterIsServedWithinRetryBudget) {
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(250);
  StartServer(options);

  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  // Dribble "ping\n" one byte at a time, sleeping past the 50 ms poll
  // between bytes (but within idle_timeout).
  const std::string request = "ping\n";
  for (char c : request) {
    ASSERT_TRUE(WriteAll(client.fd(), std::string(1, c)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  auto pong = client.Read();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(pong->payload, "pong\n");
}

// Past the idle budget, the same dribble is declared a dead client.
TEST_F(ServerTest, SlowWriterIsDroppedWithoutRetryBudget) {
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(30);
  StartServer(options);

  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  ASSERT_TRUE(WriteAll(client.fd(), "pi").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The server has hung up; finishing the line gets no response.
  (void)WriteAll(client.fd(), "ng\n");
  auto response = client.Read();
  EXPECT_FALSE(response.ok());
}

TEST_F(ServerTest, StopWithConnectionsOpenIsClean) {
  StartServer();
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<TestClient>(server_->port()));
    ASSERT_TRUE(clients.back()->connected());
    ASSERT_TRUE(clients.back()->Greeting().ok());
  }
  ASSERT_TRUE(clients[0]->Send("ping")->ok);
  server_->Stop();  // joins all connection threads; must not hang
  SUCCEED();
}

}  // namespace
}  // namespace lsd
