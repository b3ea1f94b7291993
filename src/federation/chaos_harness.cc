#include "federation/chaos_harness.h"

#include <memory>
#include <optional>
#include <utility>

#include "common/fault_injector.h"
#include "common/random.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "net/frame_sender.h"

namespace ldpjs {

namespace {

/// Deterministic per-(region, epoch) report stream: the same scenario
/// always perturbs the same values with the same randomness, so the
/// direct single-node reference is exactly reproducible.
std::vector<LdpReport> ScenarioReports(const LdpJoinSketchClient& client,
                                       const ChaosScenarioOptions& options,
                                       size_t region, size_t epoch) {
  std::vector<uint64_t> values(options.reports_per_epoch);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (i * 2654435761u + region * 7919 + epoch * 104729) % 1000;
  }
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(Mix64(options.data_seed ^ (region * 1000003 + epoch)));
  client.PerturbBatch(values, reports, rng);
  return reports;
}

}  // namespace

Result<ChaosScenarioResult> RunChaosScenario(
    const ChaosScenarioOptions& options) {
  // The injector is installed for the whole run and must outlive every
  // labeled socket operation — declared before the nodes so it is
  // destroyed after them.
  FaultInjector injector(options.fault_seed, options.fault_rate,
                         options.max_faults);
  ScopedFaultInjection scope(&injector);

  CentralNodeOptions central_options;
  central_options.finalize_after = options.num_regions;
  // A window wider than the run: the sliding view must end up holding
  // every epoch, making it a second full-history path to compare against
  // the direct reference (and exercising the frontier bookkeeping under
  // out-of-order, retried pushes).
  central_options.window_epochs = options.epochs + 8;
  central_options.window_expected_regions = options.num_regions;
  CentralNode central(options.params, options.epsilon, central_options);
  LDPJS_RETURN_IF_ERROR(central.Start());

  std::vector<std::unique_ptr<RegionalNode>> regions;
  for (size_t i = 0; i < options.num_regions; ++i) {
    RegionalNodeOptions region_options;
    region_options.region_id = static_cast<uint32_t>(i);
    region_options.central_port = central.port();
    region_options.max_ship_attempts = options.max_ship_attempts;
    region_options.upstream_recv_timeout_seconds =
        options.upstream_recv_timeout_seconds;
    // Faults fire only on the upstream EPOCH_PUSH path — the one with the
    // (region, epoch) dedup that makes every schedule recoverable.
    region_options.upstream_fault_site =
        "region" + std::to_string(i) + ".up";
    region_options.spool_dir = options.spool_dir;
    regions.push_back(std::make_unique<RegionalNode>(
        options.params, options.epsilon, region_options));
    LDPJS_RETURN_IF_ERROR(regions.back()->Start());
  }

  LdpJoinSketchClient client(options.params, options.epsilon);
  LdpJoinSketchServer direct(options.params, options.epsilon);
  std::vector<std::optional<FrameSender>> clients(options.num_regions);
  for (size_t i = 0; i < options.num_regions; ++i) {
    auto sender = FrameSender::Connect("127.0.0.1", regions[i]->port(),
                                       options.params, options.epsilon);
    if (!sender.ok()) return sender.status();
    clients[i].emplace(std::move(*sender));
  }

  ChaosScenarioResult result;

  // Drive the run strictly synchronously, one region at a time: every
  // operation on a fault site then happens in a deterministic order, so
  // the seeded schedule replays bit-exactly (see FaultInjector).
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    for (size_t i = 0; i < options.num_regions; ++i) {
      const std::vector<LdpReport> reports =
          ScenarioReports(client, options, i, epoch);
      LDPJS_RETURN_IF_ERROR(clients[i]->SendReports(reports));
      // Ingest barrier: the cut below must hold exactly this epoch's
      // reports, not race the region's shard queues.
      LDPJS_RETURN_IF_ERROR(clients[i]->Ping());
      LDPJS_RETURN_IF_ERROR(regions[i]->CutAndShip());
      direct.AbsorbBatch(reports);
      result.total_reports += reports.size();
    }
  }

  for (size_t i = 0; i < options.num_regions; ++i) {
    LDPJS_RETURN_IF_ERROR(clients[i]->Finish());
    LDPJS_RETURN_IF_ERROR(regions[i]->FlushAndStop());
  }

  // Every region has shipped every epoch, so the frontier covers the run
  // and the windowed view is a full-history sketch.
  if (central.window()->aligned()) {
    result.frontier = central.window()->frontier();
  }
  result.epochs_expired = central.window()->epochs_expired();
  result.windowed = central.WindowedPublishedView()->sketch.Serialize();

  for (const auto& region : regions) {
    const NetMetrics m = region->metrics();
    result.ship_retries += region->ship_retries();
    result.duplicate_acks += region->duplicate_acks();
    result.backoff_millis += m.backoff_millis;
    result.spool_bytes_written += m.spool_bytes_written;
    result.spool_errors += region->spool_errors();
  }

  central.Stop();
  result.central_metrics = central.metrics();
  result.federated = central.Finalize().Serialize();

  direct.Finalize();
  result.direct = direct.Serialize();

  result.fault_hits = injector.total_hits();
  result.faults_injected = injector.total_injected();
  result.fault_stats = injector.StatsString();
  return result;
}

}  // namespace ldpjs
