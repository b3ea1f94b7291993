// TCP front end end-to-end: the acceptance bar is that sketches produced
// via a real loopback socket session are bit-identical to a direct absorb
// of the same reports (net_multipump_test.cc pins this for shard counts
// {1, 4}) — and that no malformed frame, oversized length, corrupt
// envelope, params mismatch, or mid-stream disconnect can crash the server
// (these tests run under the CI ASan/UBSan job); each is counted in the
// metrics instead.
#include <atomic>
#include <chrono>
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
  EXPECT_EQ(sender->server_shards(), 3u);
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
    ok.version = 4;
    ok.num_shards = 1;
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
       {NetFrameType::kHello, NetFrameType::kHelloOk, NetFrameType::kDataAck,
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

TEST(NetLoopbackTest, ShedBackpressureLosesNothing) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 40000, 23);

  FrameServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 1;  // force backpressure on every burst
  options.backpressure = BackpressurePolicy::kShed;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  FrameSender::Options sender_options;
  sender_options.busy_backoff = {.base_micros = 50, .cap_micros = 2000};
  auto sender = FrameSender::Connect("127.0.0.1", server.port(), params,
                                     epsilon, sender_options);
  ASSERT_TRUE(sender.ok());
  EXPECT_TRUE(sender->acked_data());
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();

  const NetMetrics metrics = server.metrics();
  // Shed frames were retried until accepted: nothing lost, nothing doubled.
  EXPECT_EQ(metrics.reports_ingested, reports.size());
  EXPECT_LE(metrics.queue_high_water, options.queue_capacity + 1);

  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

TEST(NetLoopbackTest, ShedRetryExhaustionYieldsCleanUnavailable) {
  // A pathological server that sheds every DATA frame: FrameSender must
  // exhaust its retry budget and surface a clean retriable kUnavailable —
  // never report the lost frame as success.
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  auto listener = Socket::ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  std::thread always_busy([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto hello = ReadNetFrame(*conn, kMaxIngestFramePayload);
    ASSERT_TRUE(hello.ok());
    ASSERT_EQ(hello->type, NetFrameType::kHello);
    SessionHelloOk ok;
    ok.num_shards = 1;
    ok.acked_data = true;  // shed-mode session: every DATA is acked
    ASSERT_TRUE(
        WriteNetFrame(*conn, NetFrameType::kHelloOk, EncodeHelloOk(ok)).ok());
    for (;;) {
      auto frame = ReadNetFrame(*conn, kMaxIngestFramePayload);
      if (!frame.ok()) break;  // client gave up and closed
      if (frame->type != NetFrameType::kData) break;
      const uint8_t busy = static_cast<uint8_t>(DataAckCode::kBusy);
      if (!WriteNetFrame(*conn, NetFrameType::kDataAck, {&busy, 1}).ok()) {
        break;
      }
    }
  });

  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 100, 31);
  {
    FrameSender::Options options;
    options.max_busy_retries = 3;
    options.busy_backoff = {.base_micros = 1, .cap_micros = 100};
    auto sender = FrameSender::Connect("127.0.0.1", listener->local_port(),
                                       params, epsilon, options);
    ASSERT_TRUE(sender.ok()) << sender.status().ToString();
    const Status sent = sender->SendReports(reports);
    ASSERT_FALSE(sent.ok());
    EXPECT_EQ(sent.code(), StatusCode::kUnavailable);  // retriable, explicit
    // Every attempt was refused; the budget (initial try + 3 retries) was
    // really spent before giving up.
    EXPECT_EQ(sender->busy_retries(), 4u);
  }  // sender closes → the fake server's read fails → thread exits
  always_busy.join();
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

}  // namespace
}  // namespace ldpjs
