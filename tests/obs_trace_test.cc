// Trace propagation end-to-end. The acceptance bar: a traced batch sent
// over a real loopback LJSP session leaves exactly one span per tier it
// crossed — client_send → server_queue → shard_absorb → view_publish on the
// serve tier (a small batch, absorbed on the reader, has no server_queue),
// plus epoch_cut → regional_ship → central_merge on the federated path —
// with timestamps that never run backwards, and its origin-to-publish
// latency lands in the registry's ingest_to_queryable_ns histogram.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/ldp_join_sketch.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 21) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

std::vector<uint8_t> EncodedBatch(const SketchParams& params, double epsilon,
                                  size_t n, uint64_t seed) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (i * 2654435761u) % 1000;
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  LdpJoinSketchClient client(params, epsilon);
  client.PerturbBatch(values, reports, rng);
  BinaryWriter writer;
  EncodeReportBatch(reports, writer);
  return std::vector<uint8_t>(writer.buffer().begin(),
                              writer.buffer().end());
}

/// First span of `stage` for `trace_id`, asserting it exists.
TraceSpan SpanFor(const std::vector<TraceSpan>& spans,
                  const std::string& stage) {
  for (const TraceSpan& span : spans) {
    if (span.stage == stage) return span;
  }
  ADD_FAILURE() << "no span for stage " << stage;
  return TraceSpan{};
}

bool HasStage(const std::vector<TraceSpan>& spans, const std::string& stage) {
  return std::any_of(spans.begin(), spans.end(), [&](const TraceSpan& s) {
    return s.stage == stage;
  });
}

/// A trace context whose id no earlier run in this process used: spans
/// outlive a test in the process-wide TraceLog, so a fixed id would also
/// collect an earlier --gtest_repeat iteration's spans.
TraceContext FreshTrace() {
  static uint64_t draws = 0;
  TraceContext trace;
  trace.trace_id = Mix64(NowNanos() + (++draws << 32)) | 1;  // never 0
  trace.origin_ns = NowNanos();
  return trace;
}

TEST(ObsTraceTest, ServeTierSpansMonotone) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 2;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  const uint64_t i2q_before =
      server.registry().HistogramByName("ingest_to_queryable_ns").count;
  const TraceContext trace = FreshTrace();
  // 500 reports: above the inline limit, so the frame goes through a pump.
  const std::vector<uint8_t> batch = EncodedBatch(params, epsilon, 500, 9);
  ASSERT_TRUE(sender->SendTracedBatch(batch, trace).ok());
  // The PING barrier absorbs the traced frame and republishes the view —
  // after it the full serve-tier span chain must exist.
  ASSERT_TRUE(sender->Ping().ok());

  const std::vector<TraceSpan> spans =
      TraceLog::Global().Collect(trace.trace_id);
  const TraceSpan client_send = SpanFor(spans, "client_send");
  const TraceSpan server_queue = SpanFor(spans, "server_queue");
  const TraceSpan shard_absorb = SpanFor(spans, "shard_absorb");
  const TraceSpan view_publish = SpanFor(spans, "view_publish");

  // Within each span time flows forward; across tiers each stage starts at
  // or after the client's origin and the publish ends last. (All stamps are
  // one host's CLOCK_REALTIME here, so strict ordering is assertable.)
  for (const TraceSpan& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns) << span.stage;
    EXPECT_GE(span.start_ns, trace.origin_ns) << span.stage;
  }
  EXPECT_EQ(client_send.start_ns, trace.origin_ns);
  EXPECT_LE(server_queue.start_ns, shard_absorb.start_ns);
  EXPECT_LE(shard_absorb.end_ns, view_publish.end_ns);

  // The origin-to-publish latency landed in the SLO histogram.
  const HistogramSnapshot i2q =
      server.registry().HistogramByName("ingest_to_queryable_ns");
  EXPECT_GE(i2q.count, i2q_before + 1);

  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
}

// A small batch runs to completion on the connection's reader: the chain
// is client_send → shard_absorb → view_publish, with no queue stage.
TEST(ObsTraceTest, InlineFrameSpansHaveNoQueueStage) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 2;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  const TraceContext trace = FreshTrace();
  const std::vector<uint8_t> batch = EncodedBatch(params, epsilon, 64, 5);
  ASSERT_TRUE(sender->SendTracedBatch(batch, trace).ok());
  ASSERT_TRUE(sender->Ping().ok());

  const std::vector<TraceSpan> spans =
      TraceLog::Global().Collect(trace.trace_id);
  EXPECT_FALSE(HasStage(spans, "server_queue"));
  const TraceSpan client_send = SpanFor(spans, "client_send");
  const TraceSpan shard_absorb = SpanFor(spans, "shard_absorb");
  const TraceSpan view_publish = SpanFor(spans, "view_publish");
  for (const TraceSpan& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns) << span.stage;
    EXPECT_GE(span.start_ns, trace.origin_ns) << span.stage;
  }
  EXPECT_EQ(client_send.start_ns, trace.origin_ns);
  EXPECT_LE(shard_absorb.end_ns, view_publish.end_ns);
  EXPECT_EQ(server.registry().HistogramByName("shard0_queue_wait_ns").count,
            0u);

  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
}

TEST(ObsTraceTest, SampledSendsTraceEveryNth) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServer server(params, epsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  FrameSender::Options sender_options;
  sender_options.trace_every = 4;
  auto sender = FrameSender::Connect("127.0.0.1", server.port(), params,
                                     epsilon, sender_options);
  ASSERT_TRUE(sender.ok());
  const size_t log_before = TraceLog::Global().size();
  const std::vector<uint8_t> batch = EncodedBatch(params, epsilon, 100, 3);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sender->SendEncodedBatch(batch).ok());
  }
  ASSERT_TRUE(sender->Ping().ok());
  // Batches 0 and 4 were sampled: two client_send spans (plus their
  // server-side spans) joined the log.
  EXPECT_GE(TraceLog::Global().size(), log_before + 2);
  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
}

// The federated leg: the trace claimed at the regional epoch cut rides the
// EPOCH_PUSH upstream with its client origin intact, so the central's
// publish closes the full client → regional → central chain.
TEST(ObsTraceTest, FederatedSpansCrossTiers) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;

  CentralNodeOptions central_options;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  RegionalNodeOptions region_options;
  region_options.region_id = 3;
  region_options.central_port = central.port();
  RegionalNode region(params, epsilon, region_options);
  ASSERT_TRUE(region.Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", region.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  const TraceContext trace = FreshTrace();
  const std::vector<uint8_t> batch = EncodedBatch(params, epsilon, 300, 11);
  ASSERT_TRUE(sender->SendTracedBatch(batch, trace).ok());
  ASSERT_TRUE(sender->Ping().ok());  // absorbed before the cut below
  ASSERT_TRUE(region.CutAndShip().ok());

  const std::vector<TraceSpan> spans =
      TraceLog::Global().Collect(trace.trace_id);
  EXPECT_TRUE(HasStage(spans, "client_send"));
  EXPECT_TRUE(HasStage(spans, "shard_absorb"));
  EXPECT_TRUE(HasStage(spans, "epoch_cut"));
  EXPECT_TRUE(HasStage(spans, "regional_ship"));
  EXPECT_TRUE(HasStage(spans, "central_merge"));
  const TraceSpan merge = SpanFor(spans, "central_merge");
  EXPECT_GE(merge.start_ns, trace.origin_ns);
  EXPECT_LE(merge.start_ns, merge.end_ns);

  // The region's ship RTT series exists and saw this push.
  EXPECT_GE(region.server().registry().HistogramByName("ship_rtt_ns").count,
            1u);

  ASSERT_TRUE(sender->Finish().ok());
  ASSERT_TRUE(region.FlushAndStop().ok());
  central.Stop();
}

}  // namespace
}  // namespace ldpjs
