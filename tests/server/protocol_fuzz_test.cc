// Torture tests for the wire framings: the binary frame parser fed
// byte-dribbled, coalesced, pipelined, truncated, and oversized-length
// input, and the server's text line parser fed the same abuse over a
// live socket. The properties: no crashes, every well-formed frame
// decodes with its request id intact, and malformed input ends the
// connection cleanly (an in-band error for bad text, a hangup once
// binary framing is lost).
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "replication/wire.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/shared_store.h"
#include "wire_client.h"
#include "util/random.h"

namespace lsd {
namespace {

using testing_wire::BinaryClient;
using testing_wire::TextClient;

std::vector<BinaryFrame> MakeFrames() {
  std::vector<BinaryFrame> frames;
  auto add = [&](uint64_t id, std::string payload) {
    BinaryFrame f;
    f.type = FrameType::kRequest;
    f.request_id = id;
    f.payload = std::move(payload);
    frames.push_back(std::move(f));
  };
  add(0, "");  // empty payload
  add(1, "ping");
  add(0xFFFF'FFFF'FFFF'FFFFull, std::string(1, '\0'));
  add(42, ".leading dot\n.and.\nnewlines");  // would need stuffing in text
  add(43, std::string(3, static_cast<char>(kBinaryMagic0)));  // magic bytes
  add(44, std::string(10'000, 'x'));  // bigger than one read chunk
  return frames;
}

std::string Concatenate(const std::vector<BinaryFrame>& frames) {
  std::string wire;
  for (const BinaryFrame& f : frames) {
    wire += EncodeFrame(f.type, f.request_id, f.payload);
  }
  return wire;
}

void ExpectDecodesAll(BinaryFrameParser* parser,
                      const std::vector<BinaryFrame>& want,
                      size_t* next_index) {
  BinaryFrame got;
  while (parser->Next(&got) == BinaryFrameParser::Result::kFrame) {
    ASSERT_LT(*next_index, want.size());
    const BinaryFrame& expect = want[*next_index];
    EXPECT_EQ(static_cast<int>(got.type), static_cast<int>(expect.type));
    EXPECT_EQ(got.request_id, expect.request_id);
    EXPECT_EQ(got.payload, expect.payload);
    ++*next_index;
  }
  EXPECT_TRUE(parser->error().empty()) << parser->error();
}

TEST(BinaryFramerTest, ByteDribbledFramesDecode) {
  const std::vector<BinaryFrame> frames = MakeFrames();
  const std::string wire = Concatenate(frames);
  BinaryFrameParser parser;
  size_t decoded = 0;
  for (char c : wire) {
    parser.Feed(std::string_view(&c, 1));
    ExpectDecodesAll(&parser, frames, &decoded);
  }
  EXPECT_EQ(decoded, frames.size());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(BinaryFramerTest, CoalescedPipelineDecodesInOrder) {
  const std::vector<BinaryFrame> frames = MakeFrames();
  BinaryFrameParser parser;
  parser.Feed(Concatenate(frames));
  size_t decoded = 0;
  ExpectDecodesAll(&parser, frames, &decoded);
  EXPECT_EQ(decoded, frames.size());
}

TEST(BinaryFramerTest, RandomChunkingNeverChangesTheFrames) {
  const std::vector<BinaryFrame> frames = MakeFrames();
  const std::string wire = Concatenate(frames);
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    BinaryFrameParser parser;
    size_t decoded = 0;
    size_t pos = 0;
    while (pos < wire.size()) {
      const size_t chunk =
          std::min(wire.size() - pos, static_cast<size_t>(1 + rng.Uniform(97)));
      parser.Feed(std::string_view(wire).substr(pos, chunk));
      pos += chunk;
      ExpectDecodesAll(&parser, frames, &decoded);
    }
    ASSERT_EQ(decoded, frames.size()) << "round " << round;
  }
}

TEST(BinaryFramerTest, TruncatedFrameStaysPending) {
  const std::string wire = EncodeFrame(FrameType::kRequest, 7, "truncated");
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    BinaryFrameParser parser;
    parser.Feed(std::string_view(wire).substr(0, cut));
    BinaryFrame frame;
    EXPECT_EQ(parser.Next(&frame), BinaryFrameParser::Result::kNeedMore);
    EXPECT_TRUE(parser.error().empty());
    // The rest arrives later; the frame completes.
    parser.Feed(std::string_view(wire).substr(cut));
    ASSERT_EQ(parser.Next(&frame), BinaryFrameParser::Result::kFrame);
    EXPECT_EQ(frame.request_id, 7u);
    EXPECT_EQ(frame.payload, "truncated");
  }
}

TEST(BinaryFramerTest, OversizedLengthIsAnErrorNotAnAllocation) {
  std::string header = EncodeFrame(FrameType::kRequest, 1, "");
  // Patch the length field to kMaxBinaryPayload + 1.
  const uint32_t huge = kMaxBinaryPayload + 1;
  for (int i = 0; i < 4; ++i) {
    header[16 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  BinaryFrameParser parser;
  parser.Feed(header);
  BinaryFrame frame;
  EXPECT_EQ(parser.Next(&frame), BinaryFrameParser::Result::kError);
  EXPECT_NE(parser.error().find("exceeds"), std::string::npos);
  // Poisoned: more bytes never resurrect it.
  parser.Feed(EncodeFrame(FrameType::kRequest, 2, "after"));
  EXPECT_EQ(parser.Next(&frame), BinaryFrameParser::Result::kError);
}

TEST(BinaryFramerTest, MalformedHeadersArePermanentErrors) {
  const std::string good = EncodeFrame(FrameType::kRequest, 9, "x");
  struct Case {
    size_t offset;
    char value;
    const char* name;
  };
  const Case cases[] = {
      {0, 'Z', "bad magic0"},    {1, 'z', "bad magic1"},
      {2, 'z', "bad magic2"},    {3, 9, "unknown version"},
      {3, 1, "version 1 (the old kMutation layout)"},
      {4, kMaxFrameType + 1, "unknown type"},
      {5, 1, "reserved byte 5"},
      {6, 1, "reserved byte 6"}, {7, 1, "reserved byte 7"},
  };
  for (const Case& c : cases) {
    std::string bad = good;
    bad[c.offset] = c.value;
    BinaryFrameParser parser;
    parser.Feed(bad);
    BinaryFrame frame;
    EXPECT_EQ(parser.Next(&frame), BinaryFrameParser::Result::kError)
        << c.name;
    EXPECT_FALSE(parser.error().empty()) << c.name;
    parser.Feed(good);
    EXPECT_EQ(parser.Next(&frame), BinaryFrameParser::Result::kError)
        << c.name << " should stay poisoned";
  }
}

// ---- Replication frames --------------------------------------------------
// The framing layer accepts the replication types (kSubscribe,
// kLogChunk, kHeartbeat, kSnapshot) everywhere — validity is a port
// policy, not a parser policy — so they get the same chunking and
// truncation abuse as the browse frames.

TEST(ReplicationWireTest, FramedPayloadsRoundTripUnderDribble) {
  SubscribeRequest sub;
  sub.pos = WalPosition{3, 7, 4096};
  LogChunk chunk;
  chunk.pos = WalPosition{1, 2, 24};
  chunk.primary_epoch = 41;
  chunk.primary_epoch_ms = 1'700'000'000'123ull;
  chunk.behind_bytes = 99;
  chunk.records = std::string("\x01\x02raw record bytes\x00with nul", 27);
  Heartbeat hb;
  hb.primary_epoch = 42;
  hb.primary_epoch_ms = 1'700'000'000'456ull;
  hb.behind_bytes = 0;
  SnapshotChunk snap;
  snap.total_bytes = 1 << 20;
  snap.chunk_offset = 512;
  snap.primary_epoch = 43;
  snap.primary_epoch_ms = 7;
  snap.pos = WalPosition{2, 5, 24};
  snap.data = std::string(777, 's');

  const std::string wire =
      EncodeFrame(FrameType::kSubscribe, 1, EncodeSubscribe(sub)) +
      EncodeFrame(FrameType::kLogChunk, 0, EncodeLogChunk(chunk)) +
      EncodeFrame(FrameType::kHeartbeat, 0, EncodeHeartbeat(hb)) +
      EncodeFrame(FrameType::kSnapshot, 0, EncodeSnapshotChunk(snap));

  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    BinaryFrameParser parser;
    std::vector<BinaryFrame> frames;
    size_t pos = 0;
    while (pos < wire.size()) {
      const size_t n = std::min(wire.size() - pos,
                                static_cast<size_t>(1 + rng.Uniform(61)));
      parser.Feed(std::string_view(wire).substr(pos, n));
      pos += n;
      BinaryFrame f;
      while (parser.Next(&f) == BinaryFrameParser::Result::kFrame) {
        frames.push_back(f);
      }
      ASSERT_TRUE(parser.error().empty()) << parser.error();
    }
    ASSERT_EQ(frames.size(), 4u);

    SubscribeRequest sub2;
    ASSERT_TRUE(DecodeSubscribe(frames[0].payload, &sub2).ok());
    EXPECT_EQ(sub2.pos, sub.pos);
    LogChunk chunk2;
    ASSERT_TRUE(DecodeLogChunk(frames[1].payload, &chunk2).ok());
    EXPECT_EQ(chunk2.pos, chunk.pos);
    EXPECT_EQ(chunk2.primary_epoch, chunk.primary_epoch);
    EXPECT_EQ(chunk2.primary_epoch_ms, chunk.primary_epoch_ms);
    EXPECT_EQ(chunk2.behind_bytes, chunk.behind_bytes);
    EXPECT_EQ(chunk2.records, chunk.records);
    Heartbeat hb2;
    ASSERT_TRUE(DecodeHeartbeat(frames[2].payload, &hb2).ok());
    EXPECT_EQ(hb2.primary_epoch, hb.primary_epoch);
    EXPECT_EQ(hb2.behind_bytes, hb.behind_bytes);
    SnapshotChunk snap2;
    ASSERT_TRUE(DecodeSnapshotChunk(frames[3].payload, &snap2).ok());
    EXPECT_EQ(snap2.total_bytes, snap.total_bytes);
    EXPECT_EQ(snap2.chunk_offset, snap.chunk_offset);
    EXPECT_EQ(snap2.pos, snap.pos);
    EXPECT_EQ(snap2.data, snap.data);
  }
}

TEST(ReplicationWireTest, TruncatedPayloadsAreErrorsNotCrashes) {
  SubscribeRequest sub;
  sub.pos = WalPosition{1, 1, 24};
  const std::string sub_wire = EncodeSubscribe(sub);
  for (size_t cut = 0; cut < sub_wire.size(); ++cut) {
    SubscribeRequest out;
    EXPECT_FALSE(DecodeSubscribe(sub_wire.substr(0, cut), &out).ok());
  }
  // A trailing byte is as malformed as a missing one (exact-size
  // payloads catch frame/payload confusion).
  SubscribeRequest out;
  EXPECT_FALSE(DecodeSubscribe(sub_wire + "x", &out).ok());

  Heartbeat hb;
  const std::string hb_wire = EncodeHeartbeat(hb);
  for (size_t cut = 0; cut < hb_wire.size(); ++cut) {
    Heartbeat hout;
    EXPECT_FALSE(DecodeHeartbeat(hb_wire.substr(0, cut), &hout).ok());
  }

  // Variable-length payloads: everything below the fixed header is an
  // error; at or past it, the tail is the record/data bytes.
  LogChunk chunk;
  chunk.records = "rr";
  const std::string chunk_wire = EncodeLogChunk(chunk);
  const size_t chunk_header = chunk_wire.size() - chunk.records.size();
  for (size_t cut = 0; cut < chunk_header; ++cut) {
    LogChunk cout_;
    EXPECT_FALSE(DecodeLogChunk(chunk_wire.substr(0, cut), &cout_).ok());
  }
  SnapshotChunk snap;
  snap.data = "dd";
  const std::string snap_wire = EncodeSnapshotChunk(snap);
  const size_t snap_header = snap_wire.size() - snap.data.size();
  for (size_t cut = 0; cut < snap_header; ++cut) {
    SnapshotChunk sout;
    EXPECT_FALSE(DecodeSnapshotChunk(snap_wire.substr(0, cut), &sout).ok());
  }
}

// ---- Over-the-wire torture ----------------------------------------------

class ProtocolTortureTest : public ::testing::Test {
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

TEST_F(ProtocolTortureTest, PipelinedRequestsCorrelateById) {
  StartServer();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  // Many requests in flight at once, ids deliberately not 0..n.
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    const uint64_t id = 1000 + 7 * static_cast<uint64_t>(i);
    ASSERT_TRUE(client.SendRequest(id, "ping").ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->request_id, 1000 + 7 * static_cast<uint64_t>(i));
    EXPECT_EQ(static_cast<int>(reply->type),
              static_cast<int>(FrameType::kOk));
    EXPECT_EQ(reply->payload, "pong\n");
  }
}

TEST_F(ProtocolTortureTest, DribbledBinaryRequestIsServed) {
  StartServer();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  const std::string wire = EncodeFrame(FrameType::kRequest, 5, "ping");
  for (char c : wire) {
    ASSERT_TRUE(WriteAll(client.fd(), std::string_view(&c, 1)).ok());
  }
  auto reply = client.ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 5u);
  EXPECT_EQ(reply->payload, "pong\n");
}

TEST_F(ProtocolTortureTest, MalformedBinaryFrameClosesTheConnection) {
  StartServer();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  // A valid request, then garbage where the next magic should be.
  ASSERT_TRUE(client.SendRequest(1, "ping").ok());
  std::string garbage;
  garbage.push_back(static_cast<char>(kBinaryMagic0));
  garbage += "XX";  // wrong magic1/magic2
  garbage.append(17, '\0');
  ASSERT_TRUE(WriteAll(client.fd(), garbage).ok());

  // The first (valid) request may still be answered; after that the
  // server must hang up, never send a partial frame, and never crash.
  auto first = client.ReadReply();
  if (first.ok()) {
    EXPECT_EQ(first->request_id, 1u);
    auto second = client.ReadReply();
    EXPECT_FALSE(second.ok());
  }
}

TEST_F(ProtocolTortureTest, ReplicationFrameOnBrowsePortClosesTheConnection) {
  StartServer();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  // kSubscribe parses fine but only the replication port honors it;
  // the browse port treats it like any other non-request frame.
  SubscribeRequest sub;
  ASSERT_TRUE(
      WriteAll(client.fd(), EncodeFrame(FrameType::kSubscribe, 1,
                                        EncodeSubscribe(sub)))
          .ok());
  auto reply = client.ReadReply();
  EXPECT_FALSE(reply.ok());
}

TEST_F(ProtocolTortureTest, NonRequestFrameClosesTheConnection) {
  StartServer();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  // A well-formed frame of a response type is a protocol violation from
  // a client.
  ASSERT_TRUE(
      WriteAll(client.fd(), EncodeFrame(FrameType::kOk, 1, "nope")).ok());
  auto reply = client.ReadReply();
  EXPECT_FALSE(reply.ok());
}

TEST_F(ProtocolTortureTest, TextLinesSurviveDribbleAndCoalesce) {
  StartServer();
  TextClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  // Dribbled line.
  for (char c : std::string("ping\n")) {
    ASSERT_TRUE(WriteAll(client.fd(), std::string_view(&c, 1)).ok());
  }
  auto pong = client.Read();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->payload, "pong\n");

  // Coalesced pipeline: three requests in one write, answered in order.
  ASSERT_TRUE(WriteAll(client.fd(), "ping\r\nno-such-verb\nping\n").ok());
  auto first = client.Read();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->ok);
  auto second = client.Read();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->ok);  // in-band error, connection survives
  auto third = client.Read();
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->ok);
}

TEST_F(ProtocolTortureTest, OverlongTextLineClosesTheConnection) {
  ServerOptions options;
  options.max_text_line_bytes = 1024;
  StartServer(options);
  TextClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());

  // 64 KiB with no newline: a flood, not a request.
  std::string flood(64 * 1024, 'a');
  (void)WriteAll(client.fd(), flood);  // may fail once the server closes
  auto reply = client.Read();
  EXPECT_FALSE(reply.ok());
}

// ---- kMutation frames over a live server ------------------------------

std::string FactRecords(WalOpCode op,
                        const std::vector<std::vector<std::string>>& facts) {
  std::string out;
  for (const auto& names : facts) {
    EncodeWalRecord(WalRecord{static_cast<uint8_t>(op), names}, &out);
  }
  return out;
}

TEST_F(ProtocolTortureTest, MutationBatchLandsInOneEpochWithItsTally) {
  StartServer();
  ASSERT_TRUE(store_.Commit([](LooseDb& db) {
                      db.Assert("OLD", "R", "X");
                      return Status::OK();
                    })
                  .ok());
  const uint64_t epoch = store_.snapshot()->sequence();
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  const std::string payload =
      FactRecords(WalOpCode::kAssert,
                  {{"A", "R", "B"}, {"C", "R", "D"}, {"A", "R", "B"}}) +
      FactRecords(WalOpCode::kRetract,
                  {{"OLD", "R", "X"}, {"NOBODY", "R", "X"}});
  ASSERT_TRUE(
      WriteAll(client.fd(), EncodeFrame(FrameType::kMutation, 7, payload))
          .ok());
  auto reply = client.ReadReply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 7u);
  ASSERT_EQ(static_cast<int>(reply->type), static_cast<int>(FrameType::kOk))
      << reply->payload;
  EXPECT_EQ(reply->payload, "added 2, present 1, removed 1, missing 1\n");
  // One commit: the batch is one epoch past the seed.
  EpochPtr tip = store_.snapshot();
  EXPECT_EQ(tip->sequence(), epoch + 1);
  const EntityTable& names = tip->db().entities();
  EXPECT_TRUE(tip->db().store().Contains(*names.LookupFact("A", "R", "B")));
  EXPECT_TRUE(tip->db().store().Contains(*names.LookupFact("C", "R", "D")));
  EXPECT_FALSE(tip->db().store().Contains(*names.LookupFact("OLD", "R", "X")));
  EXPECT_FALSE(names.Lookup("NOBODY").has_value());
}

TEST_F(ProtocolTortureTest, MalformedMutationBatchIsRejectedWhole) {
  StartServer();
  const std::string good =
      FactRecords(WalOpCode::kAssert, {{"GOOD", "R", "ONE"}});
  std::string bad_crc = good + FactRecords(WalOpCode::kAssert,
                                           {{"GOOD", "R", "TWO"}});
  bad_crc[good.size() + 4] ^= 0x01;
  std::string rule;
  EncodeWalRecord(WalRecord{static_cast<uint8_t>(WalOpCode::kRule),
                            {"rule r: (?X, R, ONE) => (?X, R, TWO)"}},
                  &rule);
  struct Case {
    const char* name;
    std::string payload;
  };
  const Case cases[] = {
      {"truncated", good + good.substr(0, good.size() - 3)},
      {"bad crc", bad_crc},
      {"rule record", good + rule},
      {"two fields", good + FactRecords(WalOpCode::kAssert, {{"A", "B"}})},
      // Names no text verb can spell: the applier would intern them.
      {"empty names", good + FactRecords(WalOpCode::kAssert, {{"", "", ""}})},
      {"blank name",
       good + FactRecords(WalOpCode::kRetract, {{"A", " ", "B"}})},
      {"delimiter in a name",
       good + FactRecords(WalOpCode::kAssert, {{"A, B", "R", "C"}})},
      {"lone star name", good + FactRecords(WalOpCode::kAssert,
                                            {{"A", "*", "C"}})},
  };
  BinaryClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Greeting().ok());
  const EpochPtr before = store_.snapshot();
  const size_t names = before->db().entities().size();
  uint64_t id = 1;
  for (const Case& c : cases) {
    ASSERT_TRUE(WriteAll(client.fd(),
                         EncodeFrame(FrameType::kMutation, id, c.payload))
                    .ok());
    auto reply = client.ReadReply();
    ASSERT_TRUE(reply.ok()) << c.name << ": " << reply.status().ToString();
    EXPECT_EQ(reply->request_id, id++);
    EXPECT_EQ(static_cast<int>(reply->type),
              static_cast<int>(FrameType::kErr))
        << c.name << ": " << reply->payload;
    EXPECT_EQ(store_.snapshot(), before) << c.name;
    EXPECT_EQ(store_.snapshot()->db().entities().size(), names) << c.name;
  }
  // The connection keeps serving.
  auto pong = client.Call(id, "ping");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->payload, "pong\n");
}

TEST_F(ProtocolTortureTest, RandomGarbageNeverCrashesTheServer) {
  StartServer();
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    BinaryClient client(server_->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Greeting().ok());
    std::string noise;
    // Start with the magic byte so the connection sniffs binary.
    noise.push_back(static_cast<char>(kBinaryMagic0));
    const size_t len = 1 + rng.Uniform(512);
    for (size_t i = 0; i < len; ++i) {
      noise.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)WriteAll(client.fd(), noise);
    // Half-close so a trailing incomplete frame cannot park the
    // connection waiting for more bytes; then drain until the server
    // hangs up. Whatever the noise decoded to, replies or a clean EOF
    // are the only acceptable outcomes.
    client.FinishWriting();
    while (client.ReadReply().ok()) {
    }
  }
  // The server is still alive and serving.
  TextClient survivor(server_->port());
  ASSERT_TRUE(survivor.connected());
  ASSERT_TRUE(survivor.Greeting().ok());
  auto pong = survivor.Send("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->ok);
}

}  // namespace
}  // namespace lsd
