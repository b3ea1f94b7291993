#include "core/join_methods.h"

#include <chrono>

#include "data/join.h"
#include "ldp/frequency_oracle.h"
#include "ldp/hcms.h"
#include "ldp/krr.h"
#include "sketch/fast_agms.h"

namespace ldpjs {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

JoinMethodResult RunFagms(const Column& a, const Column& b,
                          const JoinMethodConfig& config) {
  JoinMethodResult result;
  const auto offline_start = Clock::now();
  FastAgmsSketch sketch_a(config.sketch.seed, config.sketch.k, config.sketch.m);
  FastAgmsSketch sketch_b(config.sketch.seed, config.sketch.k, config.sketch.m);
  sketch_a.UpdateColumn(a);
  sketch_b.UpdateColumn(b);
  result.offline_seconds = SecondsSince(offline_start);

  const auto online_start = Clock::now();
  result.estimate = sketch_a.JoinEstimate(sketch_b);
  result.online_seconds = SecondsSince(online_start);
  // Non-private clients ship the raw value.
  result.comm_bits = CommCostModel::KrrBitsPerUser(a.domain()) *
                     static_cast<double>(a.size() + b.size());
  return result;
}

JoinMethodResult RunKrr(const Column& a, const Column& b,
                        const JoinMethodConfig& config) {
  JoinMethodResult result;
  const auto offline_start = Clock::now();
  KrrClient client(a.domain(), config.epsilon);
  KrrServer server_a(a.domain(), config.epsilon);
  KrrServer server_b(b.domain(), config.epsilon);
  Xoshiro256 rng_a(Mix64(config.run_seed ^ 0xA0ULL));
  for (uint64_t v : a.values()) server_a.Absorb(client.Perturb(v, rng_a));
  Xoshiro256 rng_b(Mix64(config.run_seed ^ 0xB0ULL));
  for (uint64_t v : b.values()) server_b.Absorb(client.Perturb(v, rng_b));
  result.offline_seconds = SecondsSince(offline_start);

  const auto online_start = Clock::now();
  const std::vector<double> freq_a = server_a.EstimateAllFrequencies();
  const std::vector<double> freq_b = server_b.EstimateAllFrequencies();
  result.estimate = JoinSizeFromFrequencies(freq_a, freq_b);
  result.online_seconds = SecondsSince(online_start);
  result.comm_bits = CommCostModel::KrrBitsPerUser(a.domain()) *
                     static_cast<double>(a.size() + b.size());
  return result;
}

JoinMethodResult RunHcms(const Column& a, const Column& b,
                         const JoinMethodConfig& config) {
  JoinMethodResult result;
  HcmsParams params;
  params.epsilon = config.epsilon;
  params.k = config.sketch.k;
  params.m = config.sketch.m;
  params.seed = config.sketch.seed;

  const auto offline_start = Clock::now();
  HcmsClient client(params);
  HcmsServer server_a(params);
  HcmsServer server_b(params);
  Xoshiro256 rng_a(Mix64(config.run_seed ^ 0xA1ULL));
  for (uint64_t v : a.values()) server_a.Absorb(client.Perturb(v, rng_a));
  Xoshiro256 rng_b(Mix64(config.run_seed ^ 0xB1ULL));
  for (uint64_t v : b.values()) server_b.Absorb(client.Perturb(v, rng_b));
  server_a.Finalize();
  server_b.Finalize();
  result.offline_seconds = SecondsSince(offline_start);

  const auto online_start = Clock::now();
  const std::vector<double> freq_a = server_a.EstimateAllFrequencies(a.domain());
  const std::vector<double> freq_b = server_b.EstimateAllFrequencies(b.domain());
  result.estimate = JoinSizeFromFrequencies(freq_a, freq_b);
  result.online_seconds = SecondsSince(online_start);
  result.comm_bits =
      CommCostModel::HadamardSketchBitsPerUser(params.k, params.m) *
      static_cast<double>(a.size() + b.size());
  return result;
}

JoinMethodResult RunFlh(const Column& a, const Column& b,
                        const JoinMethodConfig& config) {
  JoinMethodResult result;
  FlhParams params;
  params.epsilon = config.epsilon;
  params.pool_size = config.flh_pool_size;
  params.seed = config.sketch.seed;

  const auto offline_start = Clock::now();
  FlhClient client(params);
  FlhServer server_a(params);
  FlhServer server_b(params);
  Xoshiro256 rng_a(Mix64(config.run_seed ^ 0xA2ULL));
  for (uint64_t v : a.values()) server_a.Absorb(client.Perturb(v, rng_a));
  Xoshiro256 rng_b(Mix64(config.run_seed ^ 0xB2ULL));
  for (uint64_t v : b.values()) server_b.Absorb(client.Perturb(v, rng_b));
  result.offline_seconds = SecondsSince(offline_start);

  const auto online_start = Clock::now();
  const std::vector<double> freq_a = server_a.EstimateAllFrequencies(a.domain());
  const std::vector<double> freq_b = server_b.EstimateAllFrequencies(b.domain());
  result.estimate = JoinSizeFromFrequencies(freq_a, freq_b);
  result.online_seconds = SecondsSince(online_start);
  result.comm_bits =
      CommCostModel::FlhBitsPerUser(params.pool_size, client.g()) *
      static_cast<double>(a.size() + b.size());
  return result;
}

JoinMethodResult RunLdpJoinSketch(const Column& a, const Column& b,
                                  const JoinMethodConfig& config) {
  JoinMethodResult result;
  SimulationOptions sim;
  sim.num_threads = config.num_threads;

  const auto offline_start = Clock::now();
  sim.run_seed = TableRunSeed(config.run_seed, 'a');
  const LdpJoinSketchServer sketch_a =
      BuildLdpJoinSketch(a, config.sketch, config.epsilon, sim);
  sim.run_seed = TableRunSeed(config.run_seed, 'b');
  const LdpJoinSketchServer sketch_b =
      BuildLdpJoinSketch(b, config.sketch, config.epsilon, sim);
  result.offline_seconds = SecondsSince(offline_start);

  const auto online_start = Clock::now();
  result.estimate = sketch_a.JoinEstimate(sketch_b);
  result.online_seconds = SecondsSince(online_start);
  result.comm_bits = CommCostModel::HadamardSketchBitsPerUser(
                         config.sketch.k, config.sketch.m) *
                     static_cast<double>(a.size() + b.size());
  return result;
}

JoinMethodResult RunLdpJoinSketchPlus(const Column& a, const Column& b,
                                      const JoinMethodConfig& config) {
  LdpJoinSketchPlusParams params;
  params.sketch = config.sketch;
  params.epsilon = config.epsilon;
  params.sample_rate = config.plus_sample_rate;
  params.threshold = config.plus_threshold;
  params.join_est = config.plus_join_est;
  params.simulation.run_seed = config.run_seed;
  params.simulation.num_threads = config.num_threads;

  const LdpJoinSketchPlusResult plus = EstimateJoinSizePlus(a, b, params);
  JoinMethodResult result;
  result.estimate = plus.estimate;
  result.offline_seconds = plus.offline_seconds;
  result.online_seconds = plus.online_seconds;
  // Every user still sends exactly one (y, j, l) report; the FI broadcast is
  // server→client and not counted in the paper's client→server figure.
  result.comm_bits = CommCostModel::HadamardSketchBitsPerUser(
                         config.sketch.k, config.sketch.m) *
                     static_cast<double>(a.size() + b.size());
  return result;
}

}  // namespace

std::string_view JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kFagms: return "FAGMS";
    case JoinMethod::kKrr: return "k-RR";
    case JoinMethod::kAppleHcms: return "Apple-HCMS";
    case JoinMethod::kFlh: return "FLH";
    case JoinMethod::kLdpJoinSketch: return "LDPJoinSketch";
    case JoinMethod::kLdpJoinSketchPlus: return "LDPJoinSketch+";
  }
  return "unknown";
}

uint64_t TrialRunSeed(uint64_t seed, uint64_t trial) {
  return Mix64(seed ^ (0xF1A6ULL + trial));
}

uint64_t TableRunSeed(uint64_t run_seed, char table) {
  LDPJS_CHECK(table == 'a' || table == 'b');
  return Mix64(run_seed ^ (table == 'a' ? 0xA3ULL : 0xB3ULL));
}

JoinMethodResult EstimateJoin(JoinMethod method, const Column& table_a,
                              const Column& table_b,
                              const JoinMethodConfig& config) {
  LDPJS_CHECK(table_a.domain() == table_b.domain());
  switch (method) {
    case JoinMethod::kFagms: return RunFagms(table_a, table_b, config);
    case JoinMethod::kKrr: return RunKrr(table_a, table_b, config);
    case JoinMethod::kAppleHcms: return RunHcms(table_a, table_b, config);
    case JoinMethod::kFlh: return RunFlh(table_a, table_b, config);
    case JoinMethod::kLdpJoinSketch:
      return RunLdpJoinSketch(table_a, table_b, config);
    case JoinMethod::kLdpJoinSketchPlus:
      return RunLdpJoinSketchPlus(table_a, table_b, config);
  }
  LDPJS_CHECK(false);
  return JoinMethodResult{};
}

}  // namespace ldpjs
