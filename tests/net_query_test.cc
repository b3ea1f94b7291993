// Query serving tier end-to-end. The acceptance bar has three parts:
//
//  1. Bit identity: every QUERY kind served over a real loopback LJSP
//     session must equal AnswerQuery evaluated in-process on the very view
//     the server answered from — bit for bit, doubles included — for shard
//     counts {1, 4}, both join methods' report streams (plain LdpJoinSketch
//     and FAP perturbation), and both view sources (the lifetime
//     FrameServer view and a windowed CentralNode).
//  2. No torn views: hammering Published()/QUERY concurrently with
//     OnEpochApplied / ingest / republish must always observe internally
//     consistent snapshots — every answer corresponds to exactly one
//     published epoch (these tests run under the CI TSan job).
//  3. Hostile traffic: garbage payloads, oversized frames, and unbounded
//     scans all degrade to clean ERRORs — never a crash, and never a
//     stalled finalize barrier (CI ASan/UBSan job).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "core/fap.h"
#include "core/ldp_join_sketch.h"
#include "core/multiway.h"
#include "federation/central_node.h"
#include "federation/windowed_view.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "net/protocol.h"
#include "service/published_view.h"
#include "service/query_engine.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 21) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Served == in-process, field by field, doubles compared as raw bits.
void ExpectBitIdentical(const QueryResponse& served,
                        const QueryResponse& local) {
  EXPECT_EQ(served.kind, local.kind);
  EXPECT_EQ(served.view_sequence, local.view_sequence);
  EXPECT_EQ(served.view_aligned, local.view_aligned);
  EXPECT_EQ(served.view_epoch, local.view_epoch);
  EXPECT_EQ(served.view_reports, local.view_reports);
  EXPECT_EQ(Bits(served.value), Bits(local.value));
  EXPECT_EQ(served.items, local.items);
}

std::vector<uint64_t> TestValues(size_t n) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (i * 2654435761u) % 1000;
  return values;
}

/// One table's report stream under either join method's client-side
/// perturbation (the server lanes are method-agnostic).
std::vector<LdpReport> MethodReports(const SketchParams& params,
                                     double epsilon, bool fap, size_t n,
                                     uint64_t seed) {
  const std::vector<uint64_t> values = TestValues(n);
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  if (fap) {
    FapClient client(params, epsilon, FapMode::kHigh, {});
    for (size_t i = 0; i < n; ++i) reports[i] = client.Perturb(values[i], rng);
  } else {
    LdpJoinSketchClient client(params, epsilon);
    client.PerturbBatch(values, reports, rng);
  }
  return reports;
}

/// A serialized raw-lane probe sketch (the server finalizes its own copy).
std::vector<uint8_t> RawProbeBytes(const SketchParams& params, double epsilon,
                                   size_t n, uint64_t seed) {
  LdpJoinSketchServer probe(params, epsilon);
  probe.AbsorbBatch(MethodReports(params, epsilon, /*fap=*/false, n, seed));
  return probe.Serialize();
}

/// One request of every QueryKind, sharing the view's params on the left
/// and exercising a distinct right-end shape for the multiway chain.
std::vector<QueryRequest> AllKindRequests(const SketchParams& params,
                                          double epsilon) {
  std::vector<QueryRequest> requests;
  {
    QueryRequest join;
    join.kind = QueryKind::kJoinSize;
    join.probe_sketch = RawProbeBytes(params, epsilon, 4000, 33);
    requests.push_back(std::move(join));
  }
  {
    QueryRequest freq;
    freq.kind = QueryKind::kFrequency;
    freq.key = 7;
    requests.push_back(freq);
  }
  {
    QueryRequest topk;
    topk.kind = QueryKind::kFrequentItems;
    topk.domain = 1000;
    topk.threshold = 5.0;
    requests.push_back(topk);
  }
  {
    // view (m) -> middle (m x 64) -> probe (64).
    MultiwayParams mid;
    mid.k = params.k;
    mid.m_left = params.m;
    mid.m_right = 64;
    mid.left_seed = params.seed;
    mid.right_seed = params.seed + 100;
    LdpMultiwayClient mid_client(mid, epsilon);
    LdpMultiwayServer middle(mid, epsilon);
    Xoshiro256 rng(55);
    for (uint64_t i = 0; i < 3000; ++i) {
      middle.Absorb(mid_client.Perturb(i % 1000, (i * 7) % 500, rng));
    }
    middle.Finalize();  // the wire ships finalized middles
    SketchParams right = params;
    right.m = mid.m_right;
    right.seed = mid.right_seed;
    QueryRequest chain;
    chain.kind = QueryKind::kMultiwayChain;
    chain.middles.push_back(middle.Serialize());
    chain.probe_sketch = RawProbeBytes(right, epsilon, 2000, 44);
    requests.push_back(std::move(chain));
  }
  {
    QueryRequest range;
    range.kind = QueryKind::kRangeCount;
    range.range_lo = 10;
    range.range_hi = 200;
    requests.push_back(range);
  }
  {
    QueryRequest pred;
    pred.kind = QueryKind::kPredicateJoin;
    pred.range_lo = 10;
    pred.range_hi = 200;
    pred.probe_sketch = RawProbeBytes(params, epsilon, 4000, 33);
    requests.push_back(std::move(pred));
  }
  return requests;
}

TEST(NetQueryTest, LifetimeServedAnswersBitIdenticalToInProcess) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  const std::vector<QueryRequest> requests = AllKindRequests(params, epsilon);
  for (const bool fap : {false, true}) {
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "fap=" << fap << " shards=" << shards);
      FrameServerOptions options;
      options.num_shards = shards;
      FrameServer server(params, epsilon, options);
      ASSERT_TRUE(server.Start().ok());
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      ASSERT_TRUE(sender.ok()) << sender.status().ToString();
      ASSERT_TRUE(
          sender->SendReports(MethodReports(params, epsilon, fap, 20000, 17))
              .ok());
      // PING is the barrier AND the republish point: the view the next
      // query answers from contains everything this connection sent.
      ASSERT_TRUE(sender->Ping().ok());
      const std::shared_ptr<const PublishedView> view =
          server.CurrentPublishedView();
      EXPECT_EQ(view->reports(), 20000u);
      for (size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "kind=" << i);
        auto served = sender->Query(requests[i]);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        auto local = AnswerQuery(*view, requests[i]);
        ASSERT_TRUE(local.ok()) << local.status().ToString();
        ExpectBitIdentical(*served, *local);
      }
      ASSERT_TRUE(sender->Finish().ok());
      server.Stop();
      const NetMetrics metrics = server.metrics();
      EXPECT_EQ(metrics.query_frames, requests.size());
      EXPECT_EQ(metrics.queries_rejected, 0u);
      EXPECT_GE(metrics.views_published, 2u);  // Start + PING at least
    }
  }
}

TEST(NetQueryTest, WindowedCentralServedAnswersBitIdenticalToInProcess) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  const std::vector<QueryRequest> requests = AllKindRequests(params, epsilon);
  CentralNodeOptions central_options;
  central_options.server.num_shards = 2;
  central_options.finalize_after = 1;
  central_options.window_epochs = 3;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(
      MethodReports(params, epsilon, /*fap=*/false, 5000, 23));
  const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();
  for (uint64_t epoch = 0; epoch < 5; ++epoch) {  // 2 epochs slide out
    auto ack = sender->PushEpochSnapshot(0, epoch, snapshot);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_EQ(ack->code, EpochPushAckCode::kApplied);
  }

  // On a windowed central, QUERY answers come from the sliding window's
  // published view, not the lifetime lanes.
  const std::shared_ptr<const PublishedView> view =
      central.WindowedPublishedView();
  EXPECT_TRUE(view->aligned);
  EXPECT_EQ(view->epoch, 4u);
  EXPECT_EQ(view->reports(), 3u * 5000u);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "kind=" << i);
    auto served = sender->Query(requests[i]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(served->view_aligned);
    EXPECT_EQ(served->view_epoch, 4u);
    auto local = AnswerQuery(*view, requests[i]);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ExpectBitIdentical(*served, *local);
  }
  ASSERT_TRUE(sender->Finish().ok());
  central.Stop();
}

// Satellite regression (TSan): readers racing the writer's epoch cuts must
// only ever observe fully consistent snapshots. With one region pushing a
// constant number of reports per epoch into a W-epoch window, EVERY
// published view must satisfy reports == min(frontier+1, W) * per-epoch —
// any torn combination of (epoch, sketch) breaks the equation. Sequence
// numbers must be monotone per reader, and an AnswerQuery on a held view
// must echo exactly that view's identity.
TEST(NetQueryTest, ConcurrentEpochCutsNeverTearThePublishedView) {
  const SketchParams params = TestParams(4, 64, 9);
  const double epsilon = 2.0;
  constexpr uint64_t kWindow = 4;
  constexpr uint64_t kEpochs = 120;
  constexpr uint64_t kReportsPerEpoch = 256;
  WindowedView window(params, epsilon, kWindow, /*expected_regions=*/1);

  const std::vector<LdpReport> epoch_reports = MethodReports(
      params, epsilon, /*fap=*/false, kReportsPerEpoch, /*seed=*/31);

  std::atomic<bool> done{false};
  auto reader = [&] {
    uint64_t last_sequence = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::shared_ptr<const PublishedView> view = window.Published();
      ASSERT_NE(view, nullptr);
      EXPECT_GE(view->sequence, last_sequence);
      last_sequence = view->sequence;
      if (!view->aligned) {
        EXPECT_EQ(view->reports(), 0u);
        continue;
      }
      const uint64_t expected =
          std::min(view->epoch + 1, kWindow) * kReportsPerEpoch;
      EXPECT_EQ(view->reports(), expected)
          << "torn view at frontier " << view->epoch;
      QueryRequest request;
      request.kind = QueryKind::kFrequency;
      request.key = 3;
      auto answer = AnswerQuery(*view, request);
      ASSERT_TRUE(answer.ok());
      EXPECT_EQ(answer->view_sequence, view->sequence);
      EXPECT_EQ(answer->view_epoch, view->epoch);
      EXPECT_EQ(answer->view_reports, expected);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    LdpJoinSketchServer snapshot(params, epsilon);
    snapshot.AbsorbBatch(epoch_reports);
    window.OnEpochApplied(0, epoch, &snapshot);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  const std::shared_ptr<const PublishedView> final_view = window.Published();
  EXPECT_EQ(final_view->epoch, kEpochs - 1);
  EXPECT_EQ(final_view->reports(), kWindow * kReportsPerEpoch);
}

// Same property at the server level: QUERY answered while a DATA session
// streams and a second connection forces republish churn via PING. Every
// answer must reflect a whole number of ingested envelopes (one shard ⇒
// the merge snapshot is envelope-atomic) and sequences stay monotone.
TEST(NetQueryTest, QueriesUnderSustainedIngestSeeOnlyWholeBatches) {
  const SketchParams params = TestParams(4, 64, 13);
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 1;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kBatch = 500;
  BinaryWriter writer;
  EncodeReportBatch(
      MethodReports(params, epsilon, /*fap=*/false, kBatch, 41), writer);
  const std::vector<uint8_t> envelope = writer.buffer();

  std::atomic<bool> stop{false};
  std::thread ingest([&] {
    auto sender =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(sender->SendEncodedBatch(envelope).ok());
      ASSERT_TRUE(sender->Ping().ok());  // republish under the queries
    }
    ASSERT_TRUE(sender->Finish().ok());
  });

  auto querier =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(querier.ok());
  QueryRequest request;
  request.kind = QueryKind::kFrequency;
  request.key = 11;
  uint64_t last_sequence = 0;
  for (int i = 0; i < 200; ++i) {
    auto response = querier->Query(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->view_reports % kBatch, 0u)
        << "answer from a torn mid-envelope snapshot";
    EXPECT_GE(response->view_sequence, last_sequence);
    last_sequence = response->view_sequence;
  }
  stop.store(true, std::memory_order_release);
  ingest.join();
  ASSERT_TRUE(querier->Finish().ok());
  server.Stop();
}

TEST(NetQueryTest, HostileQueryPayloadsDegradeCleanlyAndNeverStallFinalize) {
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

  {  // Garbage QUERY payload: decode Corruption ⇒ ERROR + close.
    Socket socket = open_session();
    const std::vector<uint8_t> garbage(32, 0xFF);
    ASSERT_TRUE(WriteNetFrame(socket, NetFrameType::kQuery, garbage).ok());
    auto reply = ReadNetFrame(socket, kMaxControlFramePayload);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, NetFrameType::kError);
    EXPECT_FALSE(ReadNetFrame(socket, kMaxControlFramePayload).ok());
  }
  {  // Oversized declared QUERY length: rejected on the header alone.
    Socket socket = open_session();
    const uint32_t huge = 0x7FFFFFFFu;
    const uint8_t header[5] = {static_cast<uint8_t>(huge),
                               static_cast<uint8_t>(huge >> 8),
                               static_cast<uint8_t>(huge >> 16),
                               static_cast<uint8_t>(huge >> 24),
                               static_cast<uint8_t>(NetFrameType::kQuery)};
    ASSERT_TRUE(socket.SendAll(header).ok());
    auto reply = ReadNetFrame(socket, kMaxControlFramePayload);
    if (reply.ok()) {
      EXPECT_EQ(reply->type, NetFrameType::kError);
    }
    // The server must also CLOSE: an open fd would park a peer that is
    // still mid-send on the oversized payload (see the MidSend test).
    EXPECT_FALSE(ReadNetFrame(socket, kMaxControlFramePayload).ok());
  }

  // Semantically invalid requests get ERROR but keep the session: an
  // unbounded frequent-items scan, then a probe with mismatched params.
  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  {
    QueryRequest scan;
    scan.kind = QueryKind::kFrequentItems;
    scan.domain = kMaxQueryDomain + 1;
    auto rejected = sender->Query(scan);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  {
    SketchParams wrong = params;
    wrong.seed = params.seed + 1;
    QueryRequest join;
    join.kind = QueryKind::kJoinSize;
    join.probe_sketch = RawProbeBytes(wrong, epsilon, 100, 3);
    auto rejected = sender->Query(join);
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  // Ranges that end at the top of the key space are answered: a range walk
  // that tested d <= hi wrapped past UINT64_MAX to 0 and never returned,
  // pinning this reader and stalling the finalize barrier below.
  {
    QueryRequest range;
    range.kind = QueryKind::kRangeCount;
    range.range_lo = UINT64_MAX - 3;
    range.range_hi = UINT64_MAX;
    auto range_answer = sender->Query(range);
    ASSERT_TRUE(range_answer.ok()) << range_answer.status().ToString();
    QueryRequest predjoin = range;
    predjoin.kind = QueryKind::kPredicateJoin;
    predjoin.probe_sketch = RawProbeBytes(params, epsilon, 100, 5);
    auto predjoin_answer = sender->Query(predjoin);
    ASSERT_TRUE(predjoin_answer.ok()) << predjoin_answer.status().ToString();
  }
  // Same session still answers valid queries and — the regression this
  // guards — the finalize barrier still completes promptly.
  QueryRequest valid;
  valid.kind = QueryKind::kFrequency;
  valid.key = 1;
  auto answered = sender->Query(valid);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  ASSERT_TRUE(sender->RequestFinalize().ok());
  server.Stop();
  const NetMetrics metrics = server.metrics();
  // Garbage payload + unbounded scan + mismatched probe all rejected; only
  // the two top-of-key-space range queries and the one frequency query
  // were served.
  EXPECT_GE(metrics.queries_rejected, 3u);
  EXPECT_EQ(metrics.query_frames, 3u);
}

// A join probe decodes against the view's shape, and only its shape must
// match: a probe collected under another ε is answered, exactly as
// JoinEstimate answers it in process on its raw lanes.
TEST(NetQueryTest, JoinProbeOfAnotherBudgetIsAnswered) {
  const SketchParams params = TestParams();
  LdpJoinSketchServer sketch(params, 2.0);
  sketch.AbsorbBatch(MethodReports(params, 2.0, /*fap=*/false, 3000, 8));
  sketch.Finalize();
  const PublishedView view(1, /*aligned=*/false, /*epoch=*/0, sketch);
  QueryRequest join;
  join.kind = QueryKind::kJoinSize;
  join.probe_sketch = RawProbeBytes(params, 3.0, 2000, 9);
  auto answer = AnswerQuery(view, join);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto probe = LdpJoinSketchServer::Deserialize(join.probe_sketch);
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe->finalized());
  EXPECT_EQ(Bits(answer->value), Bits(sketch.JoinEstimate(*probe)));
}

// A join reads the probe's lanes, and the finalized encoding carries only
// cells, so such a probe is a bad request, answered InvalidArgument; a
// predicate join, which needs cells, still takes it.
TEST(NetQueryTest, FinalizedJoinProbeIsInvalidArgument) {
  const SketchParams params = TestParams();
  LdpJoinSketchServer sketch(params, 2.0);
  sketch.AbsorbBatch(MethodReports(params, 2.0, /*fap=*/false, 3000, 8));
  sketch.Finalize();
  const PublishedView view(1, /*aligned=*/false, /*epoch=*/0, sketch);
  LdpJoinSketchServer probe(params, 2.0);
  probe.AbsorbBatch(MethodReports(params, 2.0, /*fap=*/false, 2000, 9));
  probe.Finalize();
  QueryRequest join;
  join.kind = QueryKind::kJoinSize;
  join.probe_sketch = probe.Serialize();
  auto answer = AnswerQuery(view, join);
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(answer.status().ToString().find("raw lanes"), std::string::npos)
      << answer.status().ToString();
  QueryRequest predjoin = join;
  predjoin.kind = QueryKind::kPredicateJoin;
  predjoin.range_lo = 0;
  predjoin.range_hi = 100;
  EXPECT_TRUE(AnswerQuery(view, predjoin).ok());
  // The same probe's raw lanes are answered.
  join.probe_sketch = probe.SerializeRaw();
  auto raw_answer = AnswerQuery(view, join);
  ASSERT_TRUE(raw_answer.ok()) << raw_answer.status().ToString();
  EXPECT_EQ(Bits(raw_answer->value), Bits(sketch.JoinEstimate(probe)));
}

// A multiway probe's LJS2 header is checked against the chain before the
// decoder builds its hash tables: this 1 MB body declares k = 65535 and
// m = 2, and decoding it first used to build 540 MB of tables.
TEST(NetQueryTest, MultiwayProbeHeaderIsCheckedBeforeAnyTableIsBuilt) {
  const SketchParams params = TestParams();
  LdpJoinSketchServer sketch(params, 2.0);
  sketch.AbsorbBatch(MethodReports(params, 2.0, /*fap=*/false, 3000, 8));
  sketch.Finalize();
  const PublishedView view(1, /*aligned=*/false, /*epoch=*/0, sketch);
  MultiwayParams mid;
  mid.k = params.k;
  mid.m_left = params.m;
  mid.m_right = 2;
  mid.left_seed = params.seed;
  mid.right_seed = 99;
  LdpMultiwayServer middle(mid, 2.0);
  middle.Finalize();
  // The header of a k = 1, m = 2 sketch of the chain's last attribute,
  // declaring 65535 finalized rows instead.
  SketchParams last = params;
  last.k = 1;
  last.m = 2;
  last.seed = mid.right_seed;
  const std::vector<uint8_t> small = LdpJoinSketchServer(last, 2.0).Serialize();
  BinaryWriter writer;
  writer.PutU32(0x32534A4CU);  // "LJS2"
  writer.PutU8(small[4]);      // version
  writer.PutU32(static_cast<uint32_t>(kMaxSketchRows));
  for (size_t i = 9; i < 4 + 1 + 4 + 4 + 8 + 8 + 8; ++i) {
    writer.PutU8(small[i]);  // m, seed, epsilon, total
  }
  writer.PutU8(1);  // finalized
  writer.PutDoubleVector(std::vector<double>(2 * size_t{kMaxSketchRows}));
  QueryRequest chain;
  chain.kind = QueryKind::kMultiwayChain;
  chain.middles.push_back(middle.Serialize());
  chain.probe_sketch = writer.TakeBuffer();
  ASSERT_EQ(chain.probe_sketch.size(), 1048606u);
  ASSERT_TRUE(LdpJoinSketchServer::ReadHeader(chain.probe_sketch).ok());

  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  auto answer = AnswerQuery(view, chain);
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  // Peak RSS in KiB: far below the tables' 540 MB.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);
}

// The ROADMAP case A(a) ⋈ B(a, c) ⋈ C(c), 2e5 rows each, one key per
// attribute, so the chain size is 8e15. A link whose attribute seed
// differs from its neighbour's is InvalidArgument, not a silent −2.44e13.
TEST(NetQueryTest, MultiwayChainSeedMismatchIsInvalidArgument) {
  const size_t rows = 200000;
  const auto one_key = [&](const SketchParams& params, uint64_t key,
                           uint64_t seed) {
    const LdpJoinSketchClient client(params, 4.0);
    LdpJoinSketchServer sketch(client.shape(), 4.0);
    std::vector<LdpReport> reports(rows);
    Xoshiro256 rng(seed);
    client.PerturbBatch(std::vector<uint64_t>(rows, key), reports, rng);
    sketch.AbsorbBatch(reports);
    return sketch;
  };
  const SketchParams params = TestParams(18, 256, 1);
  LdpJoinSketchServer view_sketch = one_key(params, 3, 71);
  view_sketch.Finalize();
  const PublishedView view(1, /*aligned=*/false, /*epoch=*/0, view_sketch);
  SketchParams right = params;
  right.seed = 2;
  const LdpJoinSketchServer probe = one_key(right, 9, 72);
  PairColumn pairs;
  pairs.left.assign(rows, 3);
  pairs.right.assign(rows, 9);
  pairs.left_domain = pairs.right_domain = 100;
  const auto chain_with = [&](uint64_t left_seed, uint64_t right_seed) {
    MultiwayParams mid;
    mid.k = params.k;
    mid.m_left = params.m;
    mid.m_right = right.m;
    mid.left_seed = left_seed;
    mid.right_seed = right_seed;
    QueryRequest chain;
    chain.kind = QueryKind::kMultiwayChain;
    chain.middles.push_back(
        BuildLdpMultiwaySketch(pairs, mid, 4.0, 73).Serialize());
    chain.probe_sketch = probe.Serialize();
    return chain;
  };
  auto matched = AnswerQuery(view, chain_with(params.seed, right.seed));
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  EXPECT_NEAR(matched->value / 8e15, 1.0, 0.1);
  for (const auto& [left_seed, right_seed] :
       {std::pair<uint64_t, uint64_t>{77, right.seed},
        std::pair<uint64_t, uint64_t>{params.seed, 3}}) {
    auto answer = AnswerQuery(view, chain_with(left_seed, right_seed));
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument)
        << left_seed << " " << right_seed;
  }
  // Between two middles.
  QueryRequest two = chain_with(params.seed, right.seed);
  two.middles.push_back(two.middles.front());
  EXPECT_EQ(AnswerQuery(view, two).status().code(),
            StatusCode::kInvalidArgument);
}

// Regression: a peer caught mid-send on an oversized QUERY frame used to
// park forever — the server sent ERROR and left the reader loop, but only
// marked the connection for reaping (which needs a later accept or reader
// exit to happen), so the fd stayed open and the peer stayed blocked in
// send() against a full socket buffer. The server must shut the socket
// down immediately so the peer's send fails with a reset instead.
TEST(NetQueryTest, OversizedQueryFrameMidSendIsCutNotParked) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  auto socket = Socket::ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(socket.ok());
  // Backstops only: on a correct server the send fails within milliseconds
  // of the header arriving. These keep a regression from hanging the suite.
  socket->SetSendTimeout(30);
  socket->SetRecvTimeout(30);
  SessionHello hello_fields;
  hello_fields.k = static_cast<uint32_t>(params.k);
  hello_fields.m = static_cast<uint32_t>(params.m);
  hello_fields.seed = params.seed;
  hello_fields.epsilon = epsilon;
  ASSERT_TRUE(
      WriteNetFrame(*socket, NetFrameType::kHello, EncodeHello(hello_fields))
          .ok());
  auto hello_ok = ReadNetFrame(*socket, kMaxControlFramePayload);
  ASSERT_TRUE(hello_ok.ok() && hello_ok->type == NetFrameType::kHelloOk);

  // Declare one byte past the server's session cap, then stream the payload
  // the way a real sender blocked mid-frame would.
  const uint64_t declared = kMaxQueryFramePayload + 65;
  const uint8_t header[5] = {static_cast<uint8_t>(declared),
                             static_cast<uint8_t>(declared >> 8),
                             static_cast<uint8_t>(declared >> 16),
                             static_cast<uint8_t>(declared >> 24),
                             static_cast<uint8_t>(NetFrameType::kQuery)};
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(socket->SendAll(header).ok());
  const std::vector<uint8_t> chunk(256 * 1024, 0);
  uint64_t streamed = 0;
  bool send_failed = false;
  while (streamed < declared) {
    const size_t n =
        std::min<uint64_t>(chunk.size(), declared - streamed);
    if (!socket->SendAll(std::span<const uint8_t>(chunk.data(), n)).ok()) {
      send_failed = true;
      break;
    }
    streamed += n;
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The reset must arrive long before the payload is through (loopback
  // buffers a few hundred KB at most) and long before the 30 s backstop —
  // a parked sender fails both of these.
  EXPECT_TRUE(send_failed) << "streamed all " << streamed << " bytes";
  EXPECT_LT(streamed, declared);
  EXPECT_LT(elapsed_s, 10.0);

  server.Stop();
  EXPECT_GE(server.metrics().corrupt_frames_rejected, 1u);
}

// The sender refuses to ship a request the server is guaranteed to refuse
// from the length prefix alone: the caller gets InvalidArgument without a
// single byte hitting the wire, and the session stays usable.
TEST(NetQueryTest, OversizedQueryRequestsFailFastClientSide) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  QueryRequest big;
  big.kind = QueryKind::kJoinSize;
  big.probe_sketch.assign(kMaxQueryFramePayload + 1, 0);
  auto rejected = sender->Query(big);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  QueryRequest valid;
  valid.kind = QueryKind::kFrequency;
  valid.key = 9;
  auto answered = sender->Query(valid);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();

  server.Stop();
  const NetMetrics metrics = server.metrics();
  // The oversized request never left the client: the server saw exactly one
  // (valid) query and nothing corrupt.
  EXPECT_EQ(metrics.query_frames, 1u);
  EXPECT_EQ(metrics.corrupt_frames_rejected, 0u);
}

}  // namespace
}  // namespace ldpjs
