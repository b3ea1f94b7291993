// Shard-affine multi-pump ingest: a FrameServer with N shards runs N pump
// threads over N bounded queues, and absorbs small DATA frames on the
// connection's reader instead. Raw integer lanes make any frame→shard
// routing and any absorbing thread exact, so both paths must be
// bit-identical to the single-pump shape (shards=1) and to a direct absorb
// — the split is purely a throughput decision, and these tests pin that it
// can never change an answer or break the session ordering guarantees.
#include <span>
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

SketchParams TestParams() {
  SketchParams params;
  params.k = 6;
  params.m = 256;
  params.seed = 33;
  return params;
}

std::vector<LdpReport> PerturbColumn(const LdpJoinSketchClient& client,
                                     size_t n, uint64_t seed) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (i * 2654435761u) % 1500;
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  client.PerturbBatch(values, reports, rng);
  return reports;
}

LdpJoinSketchServer RunThroughServer(const SketchParams& params,
                                     double epsilon, size_t shards,
                                     const std::vector<LdpReport>& reports,
                                     NetMetrics* metrics_out) {
  FrameServerOptions options;
  options.num_shards = shards;
  FrameServer server(params, epsilon, options);
  EXPECT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  EXPECT_TRUE(sender.ok());
  EXPECT_TRUE(sender->SendReports(reports).ok());
  EXPECT_TRUE(sender->Finish().ok());
  server.Stop();
  if (metrics_out != nullptr) *metrics_out = server.metrics();
  return server.Finalize();
}

TEST(NetMultipumpTest, MultiPumpBitIdenticalToSinglePumpAndDirect) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 40000, 3);

  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  const std::vector<uint8_t> want = direct.Serialize();

  NetMetrics single_metrics, multi_metrics;
  LdpJoinSketchServer single =
      RunThroughServer(params, epsilon, 1, reports, &single_metrics);
  LdpJoinSketchServer multi =
      RunThroughServer(params, epsilon, 4, reports, &multi_metrics);
  EXPECT_EQ(single.Serialize(), want);
  EXPECT_EQ(multi.Serialize(), want);

  // The multi-pump server really spread the work: 40000 reports = 10 DATA
  // frames round-robined over 4 shard queues, so every pump ingested.
  ASSERT_EQ(multi_metrics.shards.size(), 4u);
  uint64_t shard_frames = 0;
  for (const ShardMetrics& shard : multi_metrics.shards) {
    EXPECT_GT(shard.frames, 0u);
    shard_frames += shard.frames;
  }
  EXPECT_EQ(shard_frames, 10u);  // ceil(40000 / 4096) DATA frames
  EXPECT_EQ(multi_metrics.reports_ingested, reports.size());
  EXPECT_EQ(single_metrics.reports_ingested, reports.size());
}

// SNAPSHOT between bursts of DATA must observe exactly the frames sent
// before it on this connection — the per-connection in-flight barrier that
// replaces single-pump queue ordering.
TEST(NetMultipumpTest, SnapshotOrderedAfterConnectionDataAcrossPumps) {
  const SketchParams params = TestParams();
  const double epsilon = 1.5;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> first = PerturbColumn(client, 12000, 5);
  const std::vector<LdpReport> second = PerturbColumn(client, 9000, 6);

  FrameServerOptions options;
  options.num_shards = 4;
  options.queue_capacity = 2;  // force real queueing across the pumps
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  LdpJoinSketchServer direct(params, epsilon);
  ASSERT_TRUE(sender->SendReports(first).ok());
  direct.AbsorbBatch(first);
  auto snapshot1 = sender->SnapshotRawSketch();
  ASSERT_TRUE(snapshot1.ok());
  EXPECT_EQ(*snapshot1, direct.Serialize());

  ASSERT_TRUE(sender->SendReports(second).ok());
  direct.AbsorbBatch(second);
  auto snapshot2 = sender->SnapshotRawSketch();
  ASSERT_TRUE(snapshot2.ok());
  EXPECT_EQ(*snapshot2, direct.Serialize());

  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

// Concurrent senders against the multi-pump server still merge exactly,
// and shed backpressure still loses nothing with per-shard queues.
TEST(NetMultipumpTest, ConcurrentSendersAndShedBackpressureStayExact) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  constexpr size_t kSenders = 4;
  std::vector<std::vector<LdpReport>> partitions;
  for (size_t s = 0; s < kSenders; ++s) {
    partitions.push_back(PerturbColumn(client, 10000, 50 + s));
  }

  FrameServerOptions options;
  options.num_shards = 3;
  options.queue_capacity = 1;  // shed on nearly every burst
  options.backpressure = BackpressurePolicy::kShed;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      FrameSender::Options sender_options;
      sender_options.busy_backoff = {.base_micros = 20, .cap_micros = 1000};
      auto sender = FrameSender::Connect("127.0.0.1", server.port(), params,
                                         epsilon, sender_options);
      ASSERT_TRUE(sender.ok());
      ASSERT_TRUE(sender->SendReports(partitions[s]).ok());
      ASSERT_TRUE(sender->Finish().ok());
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  LdpJoinSketchServer direct(params, epsilon);
  for (const auto& partition : partitions) direct.AbsorbBatch(partition);
  direct.Finalize();
  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
  EXPECT_EQ(metrics.reports_ingested, kSenders * 10000);
  EXPECT_LE(metrics.queue_high_water, options.queue_capacity + 1);
}

/// Reports of a frame small enough to be absorbed on the reader, and of
/// one large enough to go through a pump.
constexpr size_t kInlineReports = 64;
constexpr size_t kQueuedReports = kMaxWireBatchReports;

std::vector<uint8_t> EncodedFrame(std::span<const LdpReport> reports) {
  BinaryWriter writer;
  EncodeReportBatch(reports, writer);
  return std::vector<uint8_t>(writer.buffer().begin(), writer.buffer().end());
}

// One connection alternating inline and queued frames: with one-slot
// queues the large frames really wait on their pumps while the small ones
// are absorbed on the reader, and every SNAPSHOT must still see exactly the
// frames sent before it — the ordering barrier covers both paths.
TEST(NetMultipumpTest, InlineAndQueuedFramesShareTheOrderingBarrier) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 80000, 8);

  FrameServerOptions options;
  options.num_shards = 4;
  options.queue_capacity = 1;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  LdpJoinSketchServer direct(params, epsilon);
  const std::span<const LdpReport> all(reports);
  size_t next = 0;
  for (int burst = 0; burst < 6; ++burst) {
    for (int i = 0; i < 6; ++i) {
      const size_t n = i % 2 == 0 ? kInlineReports : kQueuedReports;
      ASSERT_LE(next + n, all.size());
      ASSERT_TRUE(sender->SendReports(all.subspan(next, n)).ok());
      direct.AbsorbBatch(all.subspan(next, n));
      next += n;
    }
    auto snapshot = sender->SnapshotRawSketch();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_EQ(*snapshot, direct.Serialize()) << "burst " << burst;
  }
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
  const NetMetrics metrics = server.metrics();
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
  EXPECT_EQ(metrics.reports_ingested, next);
  EXPECT_GE(metrics.queue_high_water, 1u);  // the pump path really ran
}

// A corrupt small frame is rejected on the reader, synchronously: ERROR,
// the connection closed, the frame counted, and no lane touched — the good
// frames before it are all that lands.
TEST(NetMultipumpTest, CorruptInlineFrameClosesTheConnection) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> good = PerturbColumn(client, 5 * 64, 12);
  std::vector<LdpReport> bad = PerturbColumn(client, kInlineReports, 13);
  bad[kInlineReports / 2].j = static_cast<uint16_t>(params.k);  // row >= k

  FrameServerOptions options;
  options.num_shards = 4;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  auto socket = Socket::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  socket->SetRecvTimeout(5);  // a socket left open fails, never hangs
  SessionHello hello;
  hello.k = static_cast<uint32_t>(params.k);
  hello.m = static_cast<uint32_t>(params.m);
  hello.seed = params.seed;
  hello.epsilon = epsilon;
  ASSERT_TRUE(
      WriteNetFrame(*socket, NetFrameType::kHello, EncodeHello(hello)).ok());
  auto hello_ok = ReadNetFrame(*socket, kMaxControlFramePayload);
  ASSERT_TRUE(hello_ok.ok());
  ASSERT_EQ(hello_ok->type, NetFrameType::kHelloOk);
  const std::span<const LdpReport> good_span(good);
  for (size_t first = 0; first < good.size(); first += kInlineReports) {
    ASSERT_TRUE(WriteNetFrame(*socket, NetFrameType::kData,
                              EncodedFrame(good_span.subspan(
                                  first, kInlineReports)))
                    .ok());
  }
  ASSERT_TRUE(
      WriteNetFrame(*socket, NetFrameType::kData, EncodedFrame(bad)).ok());
  auto reply = ReadNetFrame(*socket, kMaxControlFramePayload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, NetFrameType::kError);
  EXPECT_EQ(DecodeErrorPayload(reply->payload).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ReadNetFrame(*socket, kMaxControlFramePayload).status().code(),
            StatusCode::kNotFound);

  server.Stop();
  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.corrupt_frames_rejected, 1u);
  EXPECT_EQ(metrics.reports_ingested, good.size());
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(good);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

// Shed backpressure only ever refuses a queued frame: small frames are
// absorbed on the reader, so even one-slot queues under concurrent senders
// shed nothing, and every frame's first ack is kAbsorbed.
TEST(NetMultipumpTest, ShedNeverShedsInlineFrames) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  constexpr size_t kSenders = 4;
  constexpr size_t kFrames = 100;
  std::vector<std::vector<LdpReport>> partitions;
  for (size_t s = 0; s < kSenders; ++s) {
    partitions.push_back(
        PerturbColumn(client, kFrames * kInlineReports, 70 + s));
  }

  FrameServerOptions options;
  options.num_shards = 3;
  options.queue_capacity = 1;
  options.backpressure = BackpressurePolicy::kShed;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      ASSERT_TRUE(sender.ok());
      ASSERT_TRUE(sender->acked_data());
      const std::span<const LdpReport> mine(partitions[s]);
      for (size_t f = 0; f < kFrames; ++f) {
        ASSERT_TRUE(
            sender->SendReports(mine.subspan(f * kInlineReports,
                                             kInlineReports))
                .ok());
      }
      EXPECT_EQ(sender->busy_retries(), 0u);
      EXPECT_EQ(sender->frames_sent(), kFrames);
      ASSERT_TRUE(sender->Finish().ok());
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.frames_shed, 0u);
  EXPECT_EQ(metrics.reports_ingested, kSenders * kFrames * kInlineReports);
  LdpJoinSketchServer direct(params, epsilon);
  for (const auto& partition : partitions) direct.AbsorbBatch(partition);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

// A session of small frames has no queue stage: every frame is absorbed
// and timed on its round-robin shard, none waits in a queue, and no queue
// ever holds a frame.
TEST(NetMultipumpTest, SmallFrameSessionRecordsNoQueueStage) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  constexpr size_t kShards = 4;
  constexpr size_t kFramesPerShard = 8;
  const std::vector<LdpReport> reports =
      PerturbColumn(client, kShards * kFramesPerShard * kInlineReports, 21);

  FrameServerOptions options;
  options.num_shards = kShards;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  const std::span<const LdpReport> all(reports);
  for (size_t first = 0; first < all.size(); first += kInlineReports) {
    ASSERT_TRUE(sender->SendReports(all.subspan(first, kInlineReports)).ok());
  }
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();

  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.queue_high_water, 0u);
  ASSERT_EQ(metrics.shards.size(), kShards);
  for (size_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const std::string prefix = "shard" + std::to_string(s);
    EXPECT_EQ(metrics.shards[s].frames, kFramesPerShard);
    EXPECT_EQ(metrics.shards[s].reports, kFramesPerShard * kInlineReports);
    EXPECT_EQ(metrics.shards[s].queue_high_water, 0u);
    EXPECT_EQ(server.registry().HistogramByName(prefix + "_absorb_ns").count,
              kFramesPerShard);
    EXPECT_EQ(
        server.registry().HistogramByName(prefix + "_queue_wait_ns").count,
        0u);
  }
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(server.Finalize().Serialize(), direct.Serialize());
}

}  // namespace
}  // namespace ldpjs
