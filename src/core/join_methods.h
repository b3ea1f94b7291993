// Uniform facade over every join-size estimator evaluated in §VII: the
// non-private Fast-AGMS reference, the three LDP frequency-oracle baselines
// (k-RR, Apple-HCMS, FLH) accumulated over the domain, and the paper's
// LDPJoinSketch / LDPJoinSketch+. Each run reports the estimate, the
// offline (collection + construction) and online (estimation) time split of
// Fig. 13, and the total client→server communication bits of Fig. 7.
#ifndef LDPJS_CORE_JOIN_METHODS_H_
#define LDPJS_CORE_JOIN_METHODS_H_

#include <cstdint>
#include <string_view>

#include "core/ldp_join_sketch_plus.h"
#include "core/params.h"
#include "data/column.h"
#include "ldp/olh.h"

namespace ldpjs {

enum class JoinMethod {
  kFagms,             ///< Fast-AGMS, non-private reference
  kKrr,               ///< k-ary randomized response + frequency accumulation
  kAppleHcms,         ///< Hadamard count-mean sketch + frequency accumulation
  kFlh,               ///< fast local hashing + frequency accumulation
  kLdpJoinSketch,     ///< paper §IV
  kLdpJoinSketchPlus, ///< paper §V
};

std::string_view JoinMethodName(JoinMethod method);

struct JoinMethodConfig {
  double epsilon = 4.0;
  SketchParams sketch;            ///< used by FAGMS / HCMS / LDPJoinSketch(+)
  uint32_t flh_pool_size = 256;   ///< FLH hash-pool size
  double plus_sample_rate = 0.1;  ///< LDPJoinSketch+ r
  double plus_threshold = 0.001;  ///< LDPJoinSketch+ θ
  JoinEstOptions plus_join_est;   ///< LDPJoinSketch+ subtraction variant
  uint64_t run_seed = 42;
  size_t num_threads = 0;
};

struct JoinMethodResult {
  double estimate = 0.0;
  double offline_seconds = 0.0;  ///< perturb + aggregate (+ finalize)
  double online_seconds = 0.0;   ///< estimate from aggregated state
  double comm_bits = 0.0;        ///< total client→server bits (model)
};

/// Runs `method` end-to-end on the two private join columns. Ingestion is
/// in process (core/simulation.h); no deployment topology can change an
/// LDPJoinSketch estimate, so none is selectable here.
JoinMethodResult EstimateJoin(JoinMethod method, const Column& table_a,
                              const Column& table_b,
                              const JoinMethodConfig& config);

/// The experiment seed chain. Trial `trial` of an experiment seeded `seed`
/// runs EstimateJoin with run_seed = TrialRunSeed(seed, trial), and
/// LDPJoinSketch perturbs table 'a' or 'b' with TableRunSeed(run_seed,
/// table) through the simulation's per-block streams. `ldpjs_cli send` and
/// the query probe derive their reports through the same two functions, so
/// a deployment reproduces the in-process sketches bit for bit.
uint64_t TrialRunSeed(uint64_t seed, uint64_t trial);
uint64_t TableRunSeed(uint64_t run_seed, char table);

}  // namespace ldpjs

#endif  // LDPJS_CORE_JOIN_METHODS_H_
