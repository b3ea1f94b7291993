// LDPJoinSketch (paper §IV): a locally differentially private Fast-AGMS
// sketch for join size estimation.
//
// Client (Algorithm 1): sample a row j ~ U[k] and a Hadamard coordinate
// l ~ U[m]; encode the private value d as v[h_j(d)] = ξ_j(d); transform
// w = v·H_m; release y = b·w[l] with b = −1 w.p. 1/(e^ε+1). Because v is
// one-hot, w[l] = ξ_j(d)·H_m[h_j(d), l] and the client runs in O(1)
// (`Perturb`); the literal O(m log m) pipeline is kept as
// `PerturbReference` and produces identical output for identical RNG state.
//
// Server (Algorithm 2, "PriSk"): accumulate reports, then rotate every row
// back with H_m (Finalize). The finalized sketch behaves like a Fast-AGMS
// sketch in expectation (Theorem 2), so the join size is the median row
// inner product (Eq. 5) and frequencies follow Theorem 7.
//
// Joins read the lanes, not the cells. A finalized row is
// M[j] = k·c_ε·lanes[j]·H_m, and the Sylvester H_m is symmetric with
// H_m·H_m = m·I, so ⟨M_a[j], M_b[j]⟩ = (k·c_a)(k·c_b)·m·⟨lanes_a[j],
// lanes_b[j]⟩ exactly: an integer dot that needs no transform.
//
// Domain-wide f̂ (Theorem 7 at every key of a range or of the whole domain)
// goes through one kernel, FrequencyEstimateRun: rows outside, the run's
// keys inside, each row hashed once per run with RowHashes::ForEachInRun,
// and each key's rows added in FrequencyEstimate's order, so every f̂ is
// bit-identical to a point query's.
//
// Shape: (k, m, seed) and the k hash pairs (h_j, ξ_j) they fix are public
// and the same for every sketch of one family, so they live in one immutable
// SketchShape held by shared_ptr. A client and a server built from params
// each build one; a copy, a merge result, and a sketch decoded against an
// existing sketch (DeserializeLike) take the shape of the sketch they come
// from, so a sketch's own state is its ε, its report count and its k·m
// lanes or cells. Which sketches may be joined or merged is the rule in
// core/params.h (SameShape, Mergeable).
//
// Deferred-debias invariant: Algorithm 2 writes k·c_ε·y into cell (j, l)
// per report, but k·c_ε is a constant, so ingestion stores only the raw
// ±1 vote balance per cell as an int64_t "lane". Absorb/AbsorbBatch/Merge
// are pure integer adds (memory-bound, exact, order-independent), and the
// k·c_ε scale is applied exactly once in Finalize, right before the row
// transforms. Every pre-finalize representation — in memory, merged, or
// serialized — is raw lanes. Finalize keeps the lanes, for joins, and adds
// the debias-scaled double cells the paper's pseudo-code produces, which
// frequency, range and predicate queries read.
#ifndef LDPJS_CORE_LDP_JOIN_SKETCH_H_
#define LDPJS_CORE_LDP_JOIN_SKETCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/serialize.h"
#include "core/params.h"

namespace ldpjs {

/// One perturbed user report: a ±1 plus the sketch coordinates it targets.
/// This is all a user ever releases: 1 + log2(k) + log2(m) bits.
struct LdpReport {
  int8_t y;    ///< ±1
  uint16_t j;  ///< sampled row in [0, k)
  uint32_t l;  ///< sampled Hadamard coordinate in [0, m)
};

/// Serializes a report into `writer` (wire format for client → server).
/// `report.y` must be a strict ±1 (contract check).
void EncodeReport(const LdpReport& report, BinaryWriter& writer);

/// Parses one report; fails with Corruption on truncated input, an
/// out-of-range row index, or a sign byte that is not a strict ±1 encoding.
Result<LdpReport> DecodeReport(BinaryReader& reader);

/// Bytes one encoded report occupies on the wire (sign u8 + j u32 + l u32).
inline constexpr size_t kWireReportBytes = 9;

/// Most reports a single batch-envelope record may carry. Matches the
/// ingestion block size, so one client block encodes as one wire batch and
/// an aggregator shard can decode any valid batch into one fixed buffer.
inline constexpr size_t kMaxWireBatchReports = 4096;

/// Writes a batch-envelope record — the LJS2 framing family's record for a
/// block of reports: "LJSB" magic, version byte, u32 count, then `count`
/// packed reports in EncodeReport's exact byte layout. At most
/// kMaxWireBatchReports per record (contract check).
void EncodeReportBatch(std::span<const LdpReport> reports,
                       BinaryWriter& writer);

/// Decodes one batch-envelope record into `out`, returning the report
/// count. The wire hot path: one bounds check for the whole record, then a
/// tight loop over the packed bytes — no per-field Result round trips.
/// Decodes exactly the reports a per-report DecodeReport loop would, and
/// fails with Corruption (never reading out of bounds) on a bad magic or
/// version, a count above kMaxWireBatchReports or out.size(), truncation,
/// or any report a DecodeReport call would reject.
Result<size_t> DecodeReportBatch(BinaryReader& reader,
                                 std::span<LdpReport> out);

/// What every sketch of one family shares: its params and the k row hash
/// pairs they fix (8 KiB of tables a row). Immutable, so copies, merge
/// results and decoded sketches share one by shared_ptr<const SketchShape>.
struct SketchShape {
  SketchParams params;
  std::vector<RowHashes> rows;  ///< (h_j, ξ_j) for j in [0, k)
};

class LdpJoinSketchClient {
 public:
  /// `params.seed` must match the server's; epsilon is the LDP budget, in
  /// (0, kMaxEpsilon].
  LdpJoinSketchClient(const SketchParams& params, double epsilon);

  /// The three randomized decisions of Algorithm 1: row j ~ U[k],
  /// coordinate l ~ U[m], and the sign flip b (true w.p. 1/(e^ε+1)).
  struct ReportDraws {
    uint16_t j;
    uint32_t l;
    bool flip;
  };

  /// Draws (j, l, flip) from `rng`. j comes from one unbiased bounded draw.
  /// When m ≤ 2^11, l (the top log2(m) bits) and the flip (the next 53 bits
  /// against flip_threshold()) share one draw — disjoint bit ranges, so both
  /// stay exactly uniform / exactly Bernoulli(1/(e^ε+1)) — two engine draws
  /// per report instead of three. Larger m falls back to separate draws to
  /// keep the flip's full 53-bit resolution. NOTE: this two-draw scheme
  /// replaced three sequential NextBounded/NextBernoulli draws, so
  /// fixed-seed outputs (golden values) differ from earlier versions.
  ReportDraws SampleReportDraws(Xoshiro256& rng) const {
    ReportDraws d;
    d.j = static_cast<uint16_t>(
        rng.NextBounded(static_cast<uint64_t>(params().k)));
    if (m_log2_ <= 11) {
      const uint64_t w = rng();
      d.l = static_cast<uint32_t>(w >> (64 - m_log2_));
      d.flip = ((w << m_log2_) >> 11) < flip_threshold_;
    } else {
      d.l = static_cast<uint32_t>(
          rng.NextBounded(static_cast<uint64_t>(params().m)));
      d.flip = (rng() >> 11) < flip_threshold_;
    }
    return d;
  }

  /// Algorithm 1 in O(1) via the closed-form Hadamard entry.
  LdpReport Perturb(uint64_t value, Xoshiro256& rng) const;

  /// Perturbs `values[i]` into `out[i]` drawing from `rng` sequentially:
  /// identical output to calling Perturb in a loop with the same engine.
  /// Batching exists so one engine (seeded once per block) can serve many
  /// users — the per-user seeding is what dominates the scalar client path.
  void PerturbBatch(std::span<const uint64_t> values, std::span<LdpReport> out,
                    Xoshiro256& rng) const;

  /// Algorithm 1 exactly as written (materializes v, transforms, samples).
  /// Identical output to Perturb for identical RNG state; used by tests.
  LdpReport PerturbReference(uint64_t value, Xoshiro256& rng) const;

  const SketchParams& params() const { return shape_->params; }
  const std::shared_ptr<const SketchShape>& shape() const { return shape_; }
  double epsilon() const { return epsilon_; }
  /// Pr[b = −1] = 1/(e^ε + 1).
  double flip_probability() const { return flip_prob_; }
  /// Integer form of flip_probability() for hot loops: a fresh draw x flips
  /// iff (x >> 11) < flip_threshold(), the same event as
  /// NextBernoulli(flip_probability()) on the same draw.
  uint64_t flip_threshold() const { return flip_threshold_; }
  const std::vector<RowHashes>& row_hashes() const { return shape_->rows; }

 private:
  std::shared_ptr<const SketchShape> shape_;
  double epsilon_;
  double flip_prob_;
  uint64_t flip_threshold_;
  int m_log2_;
};

/// The most reports one sketch may count. Each report moves one lane by ±1,
/// so a lane vector's L1 norm is at most its report count, and under this
/// bound no lane can overflow int64: the decoder refuses a larger declared
/// count and Merge a larger sum.
inline constexpr uint64_t kMaxSketchReports = INT64_MAX;

class LdpJoinSketchServer {
 public:
  /// Must be constructed with the clients' params and epsilon, which must be
  /// in (0, kMaxEpsilon]. Builds the family's shape.
  LdpJoinSketchServer(const SketchParams& params, double epsilon);

  /// An empty sketch on an existing shape (non-null); builds no tables.
  LdpJoinSketchServer(std::shared_ptr<const SketchShape> shape,
                      double epsilon);

  LdpJoinSketchServer(const LdpJoinSketchServer&) = default;
  LdpJoinSketchServer& operator=(const LdpJoinSketchServer&) = default;
  /// A move takes the lanes and cells but shares the shape, so a moved-from
  /// sketch still answers params().
  LdpJoinSketchServer(LdpJoinSketchServer&& other) noexcept;
  LdpJoinSketchServer& operator=(LdpJoinSketchServer&& other) noexcept;

  /// Adds one client report: lane[j, l] += y. Invalid after Finalize.
  void Absorb(const LdpReport& report);

  /// Absorbs a batch in one validated pass over the integer lanes. Exactly
  /// equivalent to calling Absorb per report; a report with out-of-range
  /// coordinates or a non-±1 sign aborts (contract check) before it can
  /// touch a lane.
  void AbsorbBatch(std::span<const LdpReport> reports);

  /// Adds another server's raw lanes (distributed aggregation). Both must
  /// be Mergeable (same shape, bit-equal ε) and un-finalized, and their
  /// report counts together must not pass kMaxSketchReports. Integer
  /// addition, so merge order never changes the result.
  void Merge(const LdpJoinSketchServer& other);

  /// Exact inverse of Merge: subtracts another server's raw lanes. Because
  /// the lanes are plain int64 vote balances, Merge(S) followed by
  /// SubtractRaw(S) restores every lane bit for bit — the linearity that
  /// makes sliding-window aggregation an O(lanes) incremental update
  /// (retract an expired epoch snapshot) instead of a recompute. `other`
  /// must previously have been merged in (contract: total_reports() never
  /// goes negative); both must be Mergeable and un-finalized.
  void SubtractRaw(const LdpJoinSketchServer& other);

  /// Zeroes every raw lane and the report count, starting a fresh epoch in
  /// place (the multi-epoch cut: serialize the lanes, ship them, reset).
  /// Cheaper than reconstructing the sketch — the hash tables are reused.
  /// Only valid before Finalize (the cells would no longer match the lanes).
  void ResetLanes();

  /// Applies the deferred k·c_ε debias scale, then rotates every row back
  /// by H_m (Algorithm 2 line 6) into the cells. Rows transform in
  /// parallel. The lanes stay: joins read them. Frequency, range and
  /// predicate queries need the cells, so only after this.
  void Finalize();

  /// Eq. 5 on the lanes: the median over rows j of s·s'·m·dot_j, with
  /// s = k·c_ε and dot_j = ⟨lanes[j], lanes'[j]⟩ (see the file comment).
  /// Both sketches must hold lanes and have the same shape; their ε may
  /// differ, and neither needs to be finalized. A sketch decoded from the
  /// finalized encoding holds only cells, so it cannot be joined.
  ///
  /// `shift` (u) and `other_shift` (u') first lower every cell of this
  /// sketch and of `other`: Theorem 8's uniform subtraction (JoinEst).
  /// H_m's first column is all ones, so M[j] − u·1 = H_m·(s·lanes[j] −
  /// u·e_0), and row j is
  ///   m·(s·s'·dot_j − s·u'·lanes[j, 0] − s'·u·lanes'[j, 0] + u·u').
  /// dot_j is exact: it runs in __int128 on the calling thread. Each report
  /// moves one lane by ±1, so a lane vector's L1 norm is at most its report
  /// count n <= kMaxSketchReports (the decoder refuses one that is not),
  /// and every partial sum is bounded by n·n' < 2^126.
  double JoinEstimate(const LdpJoinSketchServer& other, double shift = 0.0,
                      double other_shift = 0.0) const;

  /// Theorem 5: with probability >= 1 - exp(-k/4), the join estimate is
  /// within  (4/sqrt(m)) · (F1(A) + (k·c_ε²-1)/2) · (F1(B) + (k·c_ε²-1)/2)
  /// of the truth, where F1 is each sketch's report count. Useful for
  /// confidence intervals on query answers. Both must have the same shape.
  double TheoreticalErrorBound(const LdpJoinSketchServer& other) const;

  /// Theorem 7: f̂(d) = mean_j M[j, h_j(d)]·ξ_j(d). Unbiased.
  double FrequencyEstimate(uint64_t d) const;

  /// Frequencies for every value in [0, domain), bit-identical to
  /// FrequencyEstimate: FrequencyEstimateRun over shards of the domain on
  /// the process thread pool.
  std::vector<double> EstimateAllFrequencies(uint64_t domain) const;

  const SketchParams& params() const { return shape_->params; }
  const std::shared_ptr<const SketchShape>& shape() const { return shape_; }
  double epsilon() const { return epsilon_; }
  double c_eps() const { return c_eps_; }
  uint64_t total_reports() const { return total_; }
  bool finalized() const { return finalized_; }
  /// Debias-scaled cell value. Before Finalize this is k·c_ε·lane(row, col)
  /// (computed on the fly); after Finalize it reads the transformed cells.
  double cell(int row, int col) const {
    const size_t idx = static_cast<size_t>(row) *
                           static_cast<size_t>(params().m) +
                       static_cast<size_t>(col);
    if (finalized_) return cells_[idx];
    return static_cast<double>(params().k) * c_eps_ *
           static_cast<double>(lanes_[idx]);
  }
  /// Raw ±1 vote balance of a cell. Valid whenever the sketch holds lanes:
  /// always, except for a sketch decoded from the finalized encoding.
  int64_t lane(int row, int col) const {
    LDPJS_CHECK(!lanes_.empty());
    return lanes_[static_cast<size_t>(row) * static_cast<size_t>(params().m) +
                  static_cast<size_t>(col)];
  }
  const std::vector<RowHashes>& row_hashes() const { return shape_->rows; }

  /// What an LJS2 buffer declares ahead of its k·m values.
  struct Header {
    SketchParams params;
    double epsilon;
    uint64_t total;
    bool finalized;  ///< the values are cells, not lanes
  };

  /// Binary round trip (aggregator persistence / cross-process shipping).
  /// Format v2 ("LJS2"): un-finalized sketches carry raw integer lanes, so
  /// serialize → deserialize → merge is bit-exact; finalized sketches carry
  /// the transformed double cells. Pre-v2 buffers (no magic) are rejected
  /// with a clear Corruption error, and so is any truncation or trailing
  /// byte, a report count above kMaxSketchReports, and raw lanes whose L1
  /// norm exceeds the declared report count.
  /// Deserialize builds a fresh shape for the sketch.
  std::vector<uint8_t> Serialize() const;
  /// The raw encoding of the lanes, which a finalized sketch keeps: the
  /// bytes Serialize() wrote before Finalize.
  std::vector<uint8_t> SerializeRaw() const;
  static Result<LdpJoinSketchServer> Deserialize(
      std::span<const uint8_t> bytes);

  /// Deserialize against this sketch's shape: the decoded sketch shares it,
  /// so no table is built, and its lanes or cells are read straight into
  /// it. A well-formed sketch of another k, m or seed is FailedPrecondition;
  /// its ε may differ from this one's.
  Result<LdpJoinSketchServer> DeserializeLike(
      std::span<const uint8_t> bytes) const;

  /// The one LJS2 header reader, which both decoders use: checks the magic,
  /// version, shape and ε, and that exactly k·m values follow with no
  /// trailing byte. Builds nothing, so a caller can vet a header against
  /// what it expects before any hash table exists. Corruption otherwise.
  static Result<Header> ReadHeader(std::span<const uint8_t> bytes);

 private:
  /// A sketch with neither lanes nor cells yet, for Decode to read in.
  LdpJoinSketchServer(std::shared_ptr<const SketchShape> shape, double epsilon,
                      uint64_t total, bool finalized);

  /// The body of both: decodes against `like`, or against a fresh shape
  /// when `like` is null.
  static Result<LdpJoinSketchServer> Decode(
      std::span<const uint8_t> bytes, std::shared_ptr<const SketchShape> like);

  /// The LJS2 encoding, of the cells when `cells` and else of the lanes.
  std::vector<uint8_t> Encode(bool cells) const;

  template <size_t N>
  friend void FrequencyEstimateRun(
      const std::array<const LdpJoinSketchServer*, N>& sketches,
      uint64_t first, uint64_t n, const std::array<double*, N>& out);

  std::shared_ptr<const SketchShape> shape_;
  double epsilon_;
  double c_eps_;
  uint64_t total_ = 0;
  bool finalized_ = false;
  // Row-major k x m raw votes; empty only when decoded from cells.
  std::vector<int64_t> lanes_;
  std::vector<double> cells_;  // row-major k x m; populated by Finalize
};

/// Keys per window of FrequencyEstimateRun: one tabulation window, so a
/// caller's per-run buffers are stack arrays of this size.
inline constexpr uint64_t kEstimateRunKeys = kTabulationWindowKeys;

/// Theorem 7's f̂ at the n consecutive keys first, ..., first + n - 1 for N
/// finalized sketches of the same shape: out[s][i] equals
/// sketches[s]->FrequencyEstimate(first + i) bit for bit. The run goes one
/// 256-aligned window at a time; within a window the rows run outside and
/// the keys inside, one row's (bucket, sign) serves all N sketches, and each
/// key adds its rows in order j = 0..k-1 and then divides by k, as
/// FrequencyEstimate does. The last key must not pass UINT64_MAX. Defined
/// for N = 1 and N = 2.
template <size_t N>
void FrequencyEstimateRun(
    const std::array<const LdpJoinSketchServer*, N>& sketches, uint64_t first,
    uint64_t n, const std::array<double*, N>& out);

}  // namespace ldpjs

#endif  // LDPJS_CORE_LDP_JOIN_SKETCH_H_
