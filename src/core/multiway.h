// Multi-way chain join support under LDP (paper §VI, after COMPASS).
//
// End tables (one join attribute) use plain LDPJoinSketch. A middle table
// T(A, B) with two join attributes is summarized by k replicas of an
// (m1 x m2) matrix sketch: the client samples a replica and coordinates
// (l1, l2), encodes its tuple as
//   y = b · H_m1[h_A(a), l1] · ξ_A(a)·ξ_B(b) · H_m2[l2, h_B(b)],
// and the server accumulates k·c_ε·y at [l1, l2], rotating each replica
// back with M ← H_m1 · M · H_m2 on Finalize. The chain size follows Eq. 27:
//   Est = median_j  v_L[j]^T · M_1[j] · ... · M_p[j] · v_R[j].
//
// Hash coordination: every sketch touching attribute X must be constructed
// from the same attribute seed for X (the end sketches' SketchParams::seed
// and the matrix sketches' left/right seeds).
#ifndef LDPJS_CORE_MULTIWAY_H_
#define LDPJS_CORE_MULTIWAY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "core/ldp_join_sketch.h"
#include "data/join.h"

namespace ldpjs {

/// Shape of one middle-table sketch. m_left/m_right must be powers of two.
struct MultiwayParams {
  int k = 18;
  int m_left = 1024;
  int m_right = 1024;
  uint64_t left_seed = 1;   ///< seed of the left join attribute
  uint64_t right_seed = 2;  ///< seed of the right join attribute

  void Validate() const;
};

/// One perturbed middle-table report.
struct MultiwayReport {
  int8_t y;          ///< ±1
  uint16_t replica;  ///< sampled replica in [0, k)
  uint32_t l1;       ///< sampled row coordinate in [0, m_left)
  uint32_t l2;       ///< sampled column coordinate in [0, m_right)
};

class LdpMultiwayClient {
 public:
  LdpMultiwayClient(const MultiwayParams& params, double epsilon);

  /// Perturbs one tuple (a, b). O(1).
  MultiwayReport Perturb(uint64_t a, uint64_t b, Xoshiro256& rng) const;

  const MultiwayParams& params() const { return params_; }

 private:
  MultiwayParams params_;
  double flip_prob_;
  std::vector<RowHashes> left_rows_;
  std::vector<RowHashes> right_rows_;
};

class LdpMultiwayServer {
 public:
  LdpMultiwayServer(const MultiwayParams& params, double epsilon);

  void Absorb(const MultiwayReport& report);
  void Merge(const LdpMultiwayServer& other);

  /// Rotates every replica back: M ← H_m1 · M · H_m2, then applies the
  /// replica/debias scale (already folded into Absorb).
  void Finalize();

  const MultiwayParams& params() const { return params_; }
  bool finalized() const { return finalized_; }
  uint64_t total_reports() const { return total_; }

  /// Replica r as a row-major (m_left x m_right) matrix.
  const double* replica_data(int replica) const;

  /// Versioned "LJM1" byte format (shape, seeds, epsilon, total, cells).
  /// Both raw and finalized states round-trip — the wire query path ships
  /// finalized middles, tests round-trip both.
  std::vector<uint8_t> Serialize() const;
  static Result<LdpMultiwayServer> Deserialize(std::span<const uint8_t> bytes);

 private:
  MultiwayParams params_;
  double epsilon_ = 0.0;
  double c_eps_;
  uint64_t total_ = 0;
  bool finalized_ = false;
  std::vector<double> cells_;  // [k][m_left][m_right]
};

/// Eq. 27 generalized to any chain length: end vector sketches around zero
/// or more middle matrix sketches. Replica j of every sketch is multiplied
/// through; the median over the k replicas is returned. Adjacent dimensions,
/// attribute seeds and k must match (checked). With no middle the chain is
/// a join, and the answer is end_left.JoinEstimate(end_right).
double LdpChainJoinEstimate(
    const LdpJoinSketchServer& end_left,
    const std::vector<const LdpMultiwayServer*>& middles,
    const LdpJoinSketchServer& end_right);

/// Cyclic join estimate (paper §VI discussion), e.g.
/// T1(A,B) ⋈ T2(B,C) ⋈ T3(C,A): per replica, the trace of the product of
/// the cycle's matrix sketches; median over replicas. Attribute seeds must
/// form a ring (each sketch's right seed = next sketch's left seed) and
/// adjacent dimensions must match. Cost O(k · p · m^3) — use moderate m.
double LdpCyclicJoinEstimate(
    const std::vector<const LdpMultiwayServer*>& cycle);

/// Convenience driver: runs the LDP protocol for a whole middle table.
LdpMultiwayServer BuildLdpMultiwaySketch(const PairColumn& pairs,
                                         const MultiwayParams& params,
                                         double epsilon, uint64_t run_seed);

}  // namespace ldpjs

#endif  // LDPJS_CORE_MULTIWAY_H_
