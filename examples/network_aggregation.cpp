// Network aggregation: the deployment the paper implies — many untrusted
// clients streaming privatized reports to an aggregation service over TCP —
// run for real on 127.0.0.1:
//
//   FrameSender x2 ──LJSP/TCP──► FrameServer ──queues──► ShardedAggregator
//        (HELLO, DATA*, BYE)        (4 shards, 8-frame queues)
//
// Two sender connections stream disjoint halves of table A concurrently
// (with a mid-stream raw-lane snapshot), table B is built in process, and
// the final estimate is compared bit-for-bit against a single-node absorb
// of the same reports — the service exactness invariant, now surviving a
// real socket, bounded queues, and TCP flow control: a reader whose shard
// queue is full stops reading until there is room, and the sender waits.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/ldp_join_sketch.h"
#include "data/datasets.h"
#include "data/join.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"

int main() {
  using namespace ldpjs;

  const JoinWorkload workload =
      MakeZipfWorkload(1.4, 20'000, 200'000, /*seed=*/9);
  const double truth = ExactJoinSize(workload.table_a, workload.table_b);

  SketchParams params;
  params.k = 18;
  params.m = 1024;
  params.seed = 12;
  const double epsilon = 3.0;
  LdpJoinSketchClient client(params, epsilon);

  // Perturb table A once; the same reports go over TCP and (for the
  // reference) straight into a single-node sketch.
  const size_t rows = workload.table_a.size();
  std::vector<LdpReport> reports(rows);
  Xoshiro256 rng(1);
  client.PerturbBatch(workload.table_a.values(), reports, rng);

  // --- Aggregation service: 4 shards, tiny queues so the flow control
  // actually engages.
  FrameServerOptions options;
  options.port = 0;  // ephemeral
  options.num_shards = 4;
  options.queue_capacity = 8;
  FrameServer server(params, epsilon, options);
  if (!server.Start().ok()) {
    std::printf("cannot start server\n");
    return 1;
  }
  std::printf("FrameServer on 127.0.0.1:%u (4 shards, queue=8)\n",
              server.port());

  // --- Two concurrent clients, each streaming half the reports.
  auto stream_half = [&](size_t begin, size_t end, bool snapshot) {
    auto sender =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    if (!sender.ok()) {
      std::printf("connect failed: %s\n", sender.status().ToString().c_str());
      return;
    }
    const std::span<const LdpReport> slice(reports.data() + begin,
                                           end - begin);
    if (!sender->SendReports(slice).ok()) return;
    if (snapshot) {
      // Mid-collection raw-lane snapshot — what a periodic epoch checkpoint
      // would persist. It is un-finalized and mergeable.
      auto bytes = sender->SnapshotRawSketch();
      if (bytes.ok()) {
        auto sketch = LdpJoinSketchServer::Deserialize(*bytes);
        if (sketch.ok()) {
          std::printf("  snapshot after this connection's stream: %llu "
                      "reports in raw lanes (%zu bytes)\n",
                      static_cast<unsigned long long>(
                          sketch->total_reports()),
                      bytes->size());
        }
      }
    }
    if (!sender->Finish().ok()) return;
    std::printf("  connection done: %llu frames, %llu bytes\n",
                static_cast<unsigned long long>(sender->frames_sent()),
                static_cast<unsigned long long>(sender->bytes_sent()));
  };
  std::thread first(stream_half, 0, rows / 2, true);
  std::thread second(stream_half, rows / 2, rows, false);
  first.join();
  second.join();

  server.Stop();
  const NetMetrics metrics = server.metrics();
  std::printf("server: %llu connections, %llu frames, %llu reports, "
              "queue high-water %llu\n",
              static_cast<unsigned long long>(metrics.connections_accepted),
              static_cast<unsigned long long>(metrics.frames_received),
              static_cast<unsigned long long>(metrics.reports_ingested),
              static_cast<unsigned long long>(metrics.queue_high_water));
  for (size_t s = 0; s < metrics.shards.size(); ++s) {
    std::printf("  shard %zu: %llu frames, %llu reports\n", s,
                static_cast<unsigned long long>(metrics.shards[s].frames),
                static_cast<unsigned long long>(metrics.shards[s].reports));
  }

  // --- Reference: single node absorbing the identical reports.
  LdpJoinSketchServer reference(params, epsilon);
  reference.AbsorbBatch(reports);
  reference.Finalize();
  LdpJoinSketchServer over_tcp = server.Finalize();

  // Table B in process (any path gives the same bits).
  LdpJoinSketchServer sketch_b(params, epsilon);
  std::vector<LdpReport> reports_b(workload.table_b.size());
  Xoshiro256 rng_b(2);
  client.PerturbBatch(workload.table_b.values(), reports_b, rng_b);
  sketch_b.AbsorbBatch(reports_b);
  sketch_b.Finalize();

  const double est_tcp = over_tcp.JoinEstimate(sketch_b);
  const double est_ref = reference.JoinEstimate(sketch_b);
  std::printf("true join size   : %.0f\n", truth);
  std::printf("estimate (TCP)   : %.0f (RE %.3f)\n", est_tcp,
              std::abs(est_tcp - truth) / truth);
  std::printf("TCP == single-node: %s\n", est_tcp == est_ref ? "yes" : "NO");
  std::printf("\nthe network tier adds transport, flow control, and "
              "observability — and changes no bits: a full queue only slows "
              "the sender, queues drain before finalize, and raw integer "
              "lanes make the merge exact for any interleaving.\n");
  return est_tcp == est_ref ? 0 : 1;
}
