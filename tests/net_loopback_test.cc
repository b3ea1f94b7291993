// TCP front end end-to-end: the acceptance bar is that sketches produced
// via a real loopback socket session are bit-identical to a direct absorb
// of the same reports (net_multipump_test.cc pins this for shard counts
// {1, 4}) — and that no malformed frame, oversized length, corrupt
// envelope, params mismatch, or mid-stream disconnect can crash the server
// (these tests run under the CI ASan/UBSan job); each is counted in the
// metrics instead.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "net/protocol.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 21) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

std::vector<LdpReport> PerturbColumn(const LdpJoinSketchClient& client,
                                     size_t n, uint64_t seed) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (i * 2654435761u) % 1000;
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  client.PerturbBatch(values, reports, rng);
  return reports;
}

SessionHello HelloFor(const SketchParams& params, double epsilon) {
  SessionHello hello;
  hello.k = static_cast<uint32_t>(params.k);
  hello.m = static_cast<uint32_t>(params.m);
  hello.seed = params.seed;
  hello.epsilon = epsilon;
  return hello;
}

Socket ConnectRaw(const FrameServer& server) {
  auto socket = Socket::ConnectTcp("127.0.0.1", server.port());
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  // Bounds every read below: a server that leaves the socket open after
  // its ERROR shows up as DeadlineExceeded instead of the expected EOF.
  socket->SetRecvTimeout(1);
  return std::move(*socket);
}

/// The server's answer to a refused handshake or a rejected frame: one
/// ERROR carrying `code`, then EOF within the 1 s recv deadline — the
/// server closes the socket at once rather than leaving it for a later
/// accept to reap.
void ExpectErrorThenEof(const Socket& socket, StatusCode code) {
  auto reply = ReadNetFrame(socket, kMaxControlFramePayload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, NetFrameType::kError);
  EXPECT_EQ(DecodeErrorPayload(reply->payload).code(), code);
  auto next = ReadNetFrame(socket, kMaxControlFramePayload);
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound)
      << next.status().ToString();
}

TEST(NetLoopbackTest, SendReportsMatchesDirectAbsorbBitForBit) {
  const SketchParams params = TestParams();
  const double epsilon = 3.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 10000, 3);

  FrameServerOptions options;
  options.num_shards = 3;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  auto sender = FrameSender::Connect("127.0.0.1", server.port(), params,
                                     epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();

  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  LdpJoinSketchServer over_tcp = server.Finalize();
  direct.Finalize();
  // Finalized sketches serialize their cells; byte equality is the
  // strongest statement of bit-identity.
  EXPECT_EQ(over_tcp.Serialize(), direct.Serialize());

  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.reports_ingested, reports.size());
  EXPECT_EQ(metrics.corrupt_frames_rejected, 0u);
  uint64_t shard_reports = 0;
  for (const ShardMetrics& shard : metrics.shards) {
    shard_reports += shard.reports;
  }
  EXPECT_EQ(metrics.shards.size(), 3u);
  EXPECT_EQ(shard_reports, reports.size());
  EXPECT_GE(metrics.queue_high_water, 1u);
}

// Every request goes through one exchange, so the sender's counters see
// every frame it wrote: the HELLO, each DATA and each control request.
// The server counts the same bytes, and every frame but the HELLO.
TEST(NetLoopbackTest, SenderCountsEveryFrameItWrites) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports =
      PerturbColumn(client, 2 * kMaxWireBatchReports + 10, 5);

  FrameServer server(params, epsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();
  EXPECT_EQ(sender->frames_sent(), 1u);  // the HELLO
  ASSERT_TRUE(sender->SendReports(reports).ok());  // 3 DATA frames
  ASSERT_TRUE(sender->Ping().ok());
  ASSERT_TRUE(sender->SnapshotRawSketch().ok());
  ASSERT_TRUE(sender->Stats().ok());
  ASSERT_TRUE(sender->Query(QueryRequest{}).ok());
  ASSERT_TRUE(sender->FleetStats().ok());
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();

  EXPECT_EQ(sender->frames_sent(), 10u);
  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.frames_received + 1, sender->frames_sent());
  EXPECT_EQ(metrics.bytes_received, sender->bytes_sent());
}

TEST(NetLoopbackTest, SnapshotMatchesDirectRawLanes) {
  const SketchParams params = TestParams();
  const double epsilon = 1.5;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 6000, 9);

  FrameServerOptions options;
  options.num_shards = 2;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(sender->SendReports(reports).ok());
  auto snapshot = sender->SnapshotRawSketch();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(sender->Finish().ok());

  // The snapshot is ordered after every frame this connection sent, so it
  // holds exactly the raw lanes a direct absorb of the same reports gives.
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  EXPECT_EQ(*snapshot, direct.Serialize());
  auto restored = LdpJoinSketchServer::Deserialize(*snapshot);
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->finalized());
  EXPECT_EQ(restored->total_reports(), reports.size());
}

TEST(NetLoopbackTest, HelloMismatchRejectedAndCounted) {
  const SketchParams params = TestParams();
  FrameServerOptions options;
  FrameServer server(params, 2.0, options);
  ASSERT_TRUE(server.Start().ok());

  SketchParams wrong_m = params;
  wrong_m.m = 512;
  auto mismatch =
      FrameSender::Connect("127.0.0.1", server.port(), wrong_m, 2.0);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);

  auto wrong_epsilon =
      FrameSender::Connect("127.0.0.1", server.port(), params, 2.5);
  EXPECT_FALSE(wrong_epsilon.ok());

  // Every refused handshake closes the socket right after its ERROR.
  {  // Mismatched params.
    Socket socket = ConnectRaw(server);
    SessionHello hello = HelloFor(params, 2.0);
    hello.k = 4;
    ASSERT_TRUE(
        WriteNetFrame(socket, NetFrameType::kHello, EncodeHello(hello)).ok());
    ExpectErrorThenEof(socket, StatusCode::kFailedPrecondition);
  }
  {  // An undecodable HELLO.
    Socket socket = ConnectRaw(server);
    const std::vector<uint8_t> garbage(12, 0xAB);
    ASSERT_TRUE(WriteNetFrame(socket, NetFrameType::kHello, garbage).ok());
    ExpectErrorThenEof(socket, StatusCode::kCorruption);
  }
  {  // A first frame that is not HELLO.
    Socket socket = ConnectRaw(server);
    ASSERT_TRUE(WriteNetFrame(socket, NetFrameType::kPing, {}).ok());
    ExpectErrorThenEof(socket, StatusCode::kCorruption);
  }

  // A matching client still gets in afterwards.
  auto good = FrameSender::Connect("127.0.0.1", server.port(), params, 2.0);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->Finish().ok());
  server.Stop();
  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.handshakes_rejected, 3u);
  EXPECT_EQ(metrics.corrupt_frames_rejected, 2u);
}

// There is one protocol version: a HELLO carrying any other is a refused
// handshake, exactly like a params mismatch.
TEST(NetLoopbackTest, HelloWithAnotherVersionIsRefused) {
  const SketchParams params = TestParams();
  FrameServer server(params, 2.0, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Socket socket = ConnectRaw(server);
  SessionHello hello = HelloFor(params, 2.0);
  hello.version = kNetVersion - 1;
  ASSERT_TRUE(
      WriteNetFrame(socket, NetFrameType::kHello, EncodeHello(hello)).ok());
  ExpectErrorThenEof(socket, StatusCode::kFailedPrecondition);

  server.Stop();
  EXPECT_EQ(server.metrics().handshakes_rejected, 1u);
  EXPECT_EQ(server.metrics().corrupt_frames_rejected, 0u);
}

// The client side of the same rule: a server answering HELLO_OK with
// another version fails Connect, before any frame of the session is sent.
TEST(NetLoopbackTest, HelloOkWithAnotherVersionFailsConnect) {
  const SketchParams params = TestParams();
  auto listener = Socket::ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  std::thread old_server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto hello = ReadNetFrame(*conn, kMaxIngestFramePayload);
    ASSERT_TRUE(hello.ok());
    ASSERT_EQ(hello->type, NetFrameType::kHello);
    SessionHelloOk ok;
    ok.version = kNetVersion - 1;
    ASSERT_TRUE(
        WriteNetFrame(*conn, NetFrameType::kHelloOk, EncodeHelloOk(ok)).ok());
    // The client hangs up without sending anything else.
    EXPECT_EQ(ReadNetFrame(*conn, kMaxIngestFramePayload).status().code(),
              StatusCode::kNotFound);
  });
  {
    auto sender = FrameSender::Connect("127.0.0.1", listener->local_port(),
                                       params, 2.0);
    EXPECT_EQ(sender.status().code(), StatusCode::kFailedPrecondition);
  }
  old_server.join();
}

// The route table: after a good HELLO, every frame type that is not a
// client request — a second HELLO, any server→client type — is a protocol
// violation: ERROR(Corruption), EOF, one corrupt frame counted, and the
// server keeps serving everyone else bit-identically.
TEST(NetLoopbackTest, NonRequestFrameTypesAreRejected) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 2;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<uint8_t> hello = EncodeHello(HelloFor(params, epsilon));

  uint64_t corrupt = 0;
  for (const NetFrameType type :
       {NetFrameType::kHello, NetFrameType::kHelloOk,
        NetFrameType::kSnapshotData, NetFrameType::kFinalizeOk,
        NetFrameType::kByeOk, NetFrameType::kError,
        NetFrameType::kEpochPushOk, NetFrameType::kPingOk,
        NetFrameType::kQueryOk, NetFrameType::kStats,
        NetFrameType::kStatsPushOk, NetFrameType::kFleetStats}) {
    SCOPED_TRACE(static_cast<int>(type));
    Socket socket = ConnectRaw(server);
    ASSERT_TRUE(WriteNetFrame(socket, NetFrameType::kHello, hello).ok());
    auto hello_ok = ReadNetFrame(socket, kMaxControlFramePayload);
    ASSERT_TRUE(hello_ok.ok() && hello_ok->type == NetFrameType::kHelloOk);
    const std::vector<uint8_t> payload =
        type == NetFrameType::kHello ? hello : std::vector<uint8_t>{};
    ASSERT_TRUE(WriteNetFrame(socket, type, payload).ok());
    ExpectErrorThenEof(socket, StatusCode::kCorruption);
    EXPECT_EQ(server.metrics().corrupt_frames_rejected, ++corrupt);
  }

  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 5000, 41);
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
  EXPECT_EQ(server.metrics().reports_ingested, reports.size());

  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

TEST(NetLoopbackTest, MalformedFramesAreCountedAndServerSurvives) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 2;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  SessionHello hello_fields;
  hello_fields.k = static_cast<uint32_t>(params.k);
  hello_fields.m = static_cast<uint32_t>(params.m);
  hello_fields.seed = params.seed;
  hello_fields.epsilon = epsilon;
  const std::vector<uint8_t> hello = EncodeHello(hello_fields);
  auto open_session = [&]() -> Socket {
    auto socket = Socket::ConnectTcp("127.0.0.1", server.port());
    EXPECT_TRUE(socket.ok());
    EXPECT_TRUE(WriteNetFrame(*socket, NetFrameType::kHello, hello).ok());
    auto reply = ReadNetFrame(*socket, kMaxControlFramePayload);
    EXPECT_TRUE(reply.ok() && reply->type == NetFrameType::kHelloOk);
    return std::move(*socket);
  };
  auto expect_error_then_close = [](const Socket& socket) {
    // The server answers with ERROR and stops reading from this peer.
    auto reply = ReadNetFrame(socket, kMaxControlFramePayload);
    if (reply.ok()) {
      EXPECT_EQ(reply->type, NetFrameType::kError);
    }
  };

  {  // Oversized declared length.
    Socket socket = open_session();
    const uint8_t header[5] = {0xFF, 0xFF, 0xFF, 0x7F,
                               static_cast<uint8_t>(NetFrameType::kData)};
    ASSERT_TRUE(socket.SendAll(header).ok());
    expect_error_then_close(socket);
  }
  {  // Well-framed DATA whose LJSB envelope is garbage.
    Socket socket = open_session();
    const std::vector<uint8_t> garbage(64, 0xAB);
    ASSERT_TRUE(WriteNetFrame(socket, NetFrameType::kData, garbage).ok());
    expect_error_then_close(socket);
  }
  {  // Mid-stream disconnect: half a header, then gone.
    Socket socket = open_session();
    const uint8_t partial[2] = {32, 0};
    ASSERT_TRUE(socket.SendAll(partial).ok());
  }
  {  // Port probe: connect and close without a word. Counts as nothing.
    auto socket = Socket::ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(socket.ok());
  }

  // The server still serves a well-behaved client with exact results.
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 5000, 17);
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();

  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.corrupt_frames_rejected, 3u);
  EXPECT_EQ(metrics.reports_ingested, reports.size());
  // Three corrupt sessions + the probe + the good sender.
  EXPECT_EQ(metrics.connections_accepted, 5u);

  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

// Satellite regression: a FINALIZE payload of any size other than 0
// (anonymous) or 4 (region-tagged) is a protocol violation. It must be
// rejected as corruption — counted, ERROR'd, connection closed — and must
// NEVER advance the finalize barrier: a truncated or garbage region tag
// that counted as an anonymous finalize could end a multi-region
// collection early with data still in flight.
TEST(NetLoopbackTest, MalformedFinalizePayloadsRejectedNotCounted) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  SessionHello hello_fields;
  hello_fields.k = static_cast<uint32_t>(params.k);
  hello_fields.m = static_cast<uint32_t>(params.m);
  hello_fields.seed = params.seed;
  hello_fields.epsilon = epsilon;
  const std::vector<uint8_t> hello = EncodeHello(hello_fields);
  auto open_session = [&]() -> Socket {
    auto socket = Socket::ConnectTcp("127.0.0.1", server.port());
    EXPECT_TRUE(socket.ok());
    EXPECT_TRUE(WriteNetFrame(*socket, NetFrameType::kHello, hello).ok());
    auto reply = ReadNetFrame(*socket, kMaxControlFramePayload);
    EXPECT_TRUE(reply.ok() && reply->type == NetFrameType::kHelloOk);
    return std::move(*socket);
  };

  std::atomic<bool> finalized{false};
  std::thread waiter([&] {
    server.WaitForFinalizeRequest();
    finalized.store(true);
  });

  for (const size_t size : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    Socket socket = open_session();
    const std::vector<uint8_t> payload(size, 0x5A);
    ASSERT_TRUE(
        WriteNetFrame(socket, NetFrameType::kFinalize, payload).ok());
    // The offender gets ERROR (never FINALIZE_OK), then the session ends.
    auto reply = ReadNetFrame(socket, kMaxControlFramePayload);
    ASSERT_TRUE(reply.ok()) << "size=" << size;
    EXPECT_EQ(reply->type, NetFrameType::kError) << "size=" << size;
    auto after = ReadNetFrame(socket, kMaxControlFramePayload);
    EXPECT_FALSE(after.ok()) << "size=" << size;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(finalized.load());  // no malformed size advanced the barrier
  {
    const NetMetrics metrics = server.metrics();
    EXPECT_EQ(metrics.corrupt_frames_rejected, 4u);
  }

  {  // Size 4 — a legitimate region tag — IS the barrier.
    Socket socket = open_session();
    const uint8_t region[4] = {1, 0, 0, 0};
    ASSERT_TRUE(WriteNetFrame(socket, NetFrameType::kFinalize, region).ok());
    auto reply = ReadNetFrame(socket, kMaxControlFramePayload);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, NetFrameType::kFinalizeOk);
  }
  waiter.join();
  EXPECT_TRUE(finalized.load());
  server.Stop();
}

// PING_OK is an ingest barrier: ordered after every DATA frame its
// connection sent, so lanes already hold everything when it returns — the
// cheap alternative to SNAPSHOT the windowed epoch cut relies on.
TEST(NetLoopbackTest, PingIsAnIngestBarrier) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 4;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 20000, 23);
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Ping().ok());
  // Everything is in the lanes NOW — no Stop(), no BYE.
  EXPECT_EQ(server.metrics().reports_ingested, reports.size());
  EXPECT_EQ(server.CurrentPublishedView()->reports(), reports.size());
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
}

// Satellite regression (meaningful under the TSan CI job): a metrics
// snapshot taken concurrently with full-rate ingest must be race-free —
// queue_high_water is read lock-free while readers update it under the
// queue lock.
TEST(NetLoopbackTest, MetricsSnapshotRacesIngestCleanly) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 4;  // small queue: high-water moves constantly
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::thread poller([&] {
    uint64_t last_reports = 0;
    while (!done.load()) {
      const NetMetrics metrics = server.metrics();
      // Totals must be monotone under concurrent snapshots.
      EXPECT_GE(metrics.reports_ingested, last_reports);
      last_reports = metrics.reports_ingested;
    }
  });

  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 60000, 29);
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Finish().ok());
  done.store(true);
  poller.join();
  server.Stop();
  EXPECT_EQ(server.metrics().reports_ingested, reports.size());
}

TEST(NetLoopbackTest, ManyConcurrentSendersMergeExactly) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  constexpr size_t kSenders = 4;
  constexpr size_t kPerSender = 8000;
  std::vector<std::vector<LdpReport>> partitions;
  for (size_t s = 0; s < kSenders; ++s) {
    partitions.push_back(PerturbColumn(client, kPerSender, 100 + s));
  }

  FrameServerOptions options;
  options.num_shards = 4;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      ASSERT_TRUE(sender.ok());
      ASSERT_TRUE(sender->SendReports(partitions[s]).ok());
      ASSERT_TRUE(sender->Finish().ok());
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  // Interleaving across connections is nondeterministic; the estimate is
  // not — raw lanes are order-independent integer adds.
  LdpJoinSketchServer direct(params, epsilon);
  for (const auto& partition : partitions) direct.AbsorbBatch(partition);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
  EXPECT_EQ(server.metrics().reports_ingested, kSenders * kPerSender);
}

/// The ids of this process's live threads, read from /proc/self/task.
std::set<int> LiveThreadIds() {
  std::set<int> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(std::stoi(entry.path().filename().string()));
  }
  return ids;
}

/// Waits up to 5 s for the live thread count to fall to `limit`; returns
/// the last count read.
size_t WaitForThreadsAtMost(size_t limit) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t live = LiveThreadIds().size();
  while (live > limit && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    live = LiveThreadIds().size();
  }
  return live;
}

// Sessions are read by reader workers that accept their own connections
// and go back to accept() when a session ends: back-to-back sessions reuse
// the same few threads instead of spawning and joining one each.
TEST(NetLoopbackTest, ReaderWorkersServeSequentialSessionsWithoutSpawning) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 2;
  const std::set<int> before = LiveThreadIds();
  const size_t allowed =
      options.num_shards + FrameServer::kMaxIdleWorkers + 1;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kSessions = 200;
  std::set<int> spawned;  // every server thread seen while a session is open
  for (int i = 0; i < kSessions; ++i) {
    auto sender =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    ASSERT_TRUE(sender.ok()) << sender.status().ToString();
    const std::set<int> live = LiveThreadIds();
    std::set_difference(live.begin(), live.end(), before.begin(),
                        before.end(), std::inserter(spawned, spawned.end()));
    ASSERT_LE(live.size(), before.size() + allowed) << "session " << i;
    ASSERT_TRUE(sender->Finish().ok());
  }
  // A thread per session would show as one new id per session.
  EXPECT_LE(spawned.size(), allowed);
  server.Stop();
  EXPECT_EQ(LiveThreadIds(), before);  // every worker joined
  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.connections_accepted, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(metrics.connections_active, 0u);
  EXPECT_EQ(metrics.frames_received, static_cast<uint64_t>(kSessions));
}

// Every live connection still has its own blocking reader: 32 sessions held
// open at once are all served. Once they close, the workers above the idle
// bound retire, and Stop joins the rest along with the retired ones.
TEST(NetLoopbackTest, ReaderWorkersServeHeldOpenSessionsThenShrink) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  constexpr size_t kSessions = 32;
  std::vector<std::vector<LdpReport>> partitions;
  for (size_t s = 0; s < kSessions; ++s) {
    partitions.push_back(PerturbColumn(client, 300, 200 + s));
  }
  FrameServerOptions options;
  options.num_shards = 2;
  const size_t before = LiveThreadIds().size();
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<FrameSender> senders;
  for (size_t s = 0; s < kSessions; ++s) {
    auto sender =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    ASSERT_TRUE(sender.ok()) << s << ": " << sender.status().ToString();
    ASSERT_TRUE(sender->SendReports(partitions[s]).ok());
    senders.push_back(std::move(*sender));
  }
  // PING_OK on every session while all of them stay open: each one is
  // being read, and everything it sent is in the lanes.
  for (FrameSender& sender : senders) ASSERT_TRUE(sender.Ping().ok());
  EXPECT_EQ(server.metrics().connections_active, kSessions);
  EXPECT_GE(LiveThreadIds().size(), before + options.num_shards + kSessions);
  for (FrameSender& sender : senders) ASSERT_TRUE(sender.Finish().ok());
  EXPECT_LE(WaitForThreadsAtMost(before + options.num_shards +
                                 FrameServer::kMaxIdleWorkers),
            before + options.num_shards + FrameServer::kMaxIdleWorkers);
  server.Stop();
  EXPECT_EQ(LiveThreadIds().size(), before);

  LdpJoinSketchServer direct(params, epsilon);
  for (const auto& partition : partitions) direct.AbsorbBatch(partition);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
  EXPECT_EQ(server.metrics().reports_ingested, kSessions * 300);
}

// Stop() while a client reconnects in a loop: Stop returns, every worker is
// joined, and every session that read BYE_OK is in the lanes. Only the
// session Stop cut may or may not have landed its one DATA frame.
TEST(NetLoopbackTest, ReaderWorkersStopDuringConnectLoopLosesNoAckedReports) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  FrameServerOptions options;
  options.num_shards = 2;
  const size_t before = LiveThreadIds().size();
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> acked_sessions{0};
  std::atomic<bool> loop_ended{false};
  std::vector<LdpReport> acked;
  std::vector<LdpReport> cut;  // the last session, if Stop cut it
  auto connect_loop = [&] {
    FrameSender::Options sender_options;
    sender_options.recv_timeout_seconds = 5;  // a hang fails, not stalls
    for (uint64_t i = 0;; ++i) {
      const std::vector<LdpReport> batch = PerturbColumn(client, 64, 500 + i);
      auto sender = FrameSender::Connect("127.0.0.1", server.port(), params,
                                         epsilon, sender_options);
      if (!sender.ok()) return;
      if (!sender->SendReports(batch).ok() || !sender->Finish().ok()) {
        cut = batch;
        return;
      }
      acked.insert(acked.end(), batch.begin(), batch.end());
      acked_sessions.fetch_add(1);
    }
  };
  std::thread loop([&] {
    connect_loop();
    loop_ended.store(true);
  });
  while (acked_sessions.load() < 50 && !loop_ended.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(loop_ended.load()) << "the loop failed before Stop";
  const auto stop_start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(5));
  loop.join();
  EXPECT_EQ(LiveThreadIds().size(), before);

  const uint64_t ingested = server.metrics().reports_ingested;
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(acked);
  if (ingested != acked.size()) {
    ASSERT_EQ(ingested, acked.size() + cut.size());
    direct.AbsorbBatch(cut);
  }
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

}  // namespace
}  // namespace ldpjs
