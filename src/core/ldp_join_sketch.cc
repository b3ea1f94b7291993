#include "core/ldp_join_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "common/hadamard.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace ldpjs {

namespace {

/// Serialization magic for format v2 ("LJS2" little-endian). The pre-v2
/// format had no header and started with the u32 row count, which is always
/// far below this value, so v2 buffers are unambiguous and v1 buffers fail
/// the magic check instead of parsing as garbage.
constexpr uint32_t kSketchMagic = 0x32534A4CU;  // "LJS2"
constexpr uint8_t kSketchVersion = 2;

/// Batch-envelope record magic ("LJSB" little-endian): the LJS2 framing
/// family's record type for a block of packed reports on the wire.
constexpr uint32_t kBatchMagic = 0x42534A4CU;  // "LJSB"
constexpr uint8_t kBatchVersion = 1;

/// int64 lane accumulation, the inner loop of Merge (and of every shard
/// merge in the aggregation service). The restrict qualification promises
/// the compiler dst and src never alias, so the loop auto-vectorizes into
/// packed 64-bit adds instead of scalar load/add/store chains.
void AddLanes(int64_t* __restrict dst, const int64_t* __restrict src,
              size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

/// AddLanes' inverse, same vectorizable shape — the sliding-window retract.
void SubLanes(int64_t* __restrict dst, const int64_t* __restrict src,
              size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

}  // namespace

double DebiasFactor(double epsilon) {
  LDPJS_CHECK(epsilon > 0.0);
  const double e = std::exp(epsilon);
  return (e + 1.0) / (e - 1.0);
}

void EncodeReport(const LdpReport& report, BinaryWriter& writer) {
  LDPJS_CHECK(report.y == 1 || report.y == -1);
  writer.PutU8(report.y == 1 ? 1 : 0);
  writer.PutU32(report.j);
  writer.PutU32(report.l);
}

Result<LdpReport> DecodeReport(BinaryReader& reader) {
  auto y = reader.GetU8();
  if (!y.ok()) return y.status();
  auto j = reader.GetU32();
  if (!j.ok()) return j.status();
  auto l = reader.GetU32();
  if (!l.ok()) return l.status();
  if (*y > 1) return Status::Corruption("report sign byte is not 0 or 1");
  if (*j > 0xffff) return Status::Corruption("row index out of range");
  LdpReport report;
  report.y = (*y == 1) ? int8_t{1} : int8_t{-1};
  report.j = static_cast<uint16_t>(*j);
  report.l = *l;
  return report;
}

void EncodeReportBatch(std::span<const LdpReport> reports,
                       BinaryWriter& writer) {
  LDPJS_CHECK(reports.size() <= kMaxWireBatchReports);
  writer.PutU32(kBatchMagic);
  writer.PutU8(kBatchVersion);
  writer.PutU32(static_cast<uint32_t>(reports.size()));
  for (const LdpReport& report : reports) EncodeReport(report, writer);
}

Result<size_t> DecodeReportBatch(BinaryReader& reader,
                                 std::span<LdpReport> out) {
  auto magic = reader.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kBatchMagic) {
    return Status::Corruption("missing LJSB batch-envelope magic");
  }
  auto version = reader.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kBatchVersion) {
    return Status::Corruption("unsupported batch-envelope version " +
                              std::to_string(*version));
  }
  auto count = reader.GetU32();
  if (!count.ok()) return count.status();
  // Checked multiply FIRST, on the raw declared count: the byte size handed
  // to GetRaw must not be able to wrap size_t (on a 32-bit size_t,
  // 0xffffffff · 9 wraps to a small number, which would pass the bounds
  // check and send the decode loop far past the buffer). The caps below
  // make this unreachable today; it stays as defense in depth against a
  // retuned kMaxWireBatchReports or a reordered check.
  static_assert(kMaxWireBatchReports <= SIZE_MAX / kWireReportBytes,
                "max batch byte size must fit size_t");
  if (*count > SIZE_MAX / kWireReportBytes) {
    return Status::Corruption("batch count " + std::to_string(*count) +
                              " overflows the wire byte size");
  }
  if (*count > kMaxWireBatchReports) {
    return Status::Corruption("batch count " + std::to_string(*count) +
                              " exceeds the wire batch limit");
  }
  if (*count > out.size()) {
    return Status::Corruption("batch count " + std::to_string(*count) +
                              " exceeds the decode buffer");
  }
  const size_t n = *count;
  auto raw = reader.GetRaw(n * kWireReportBytes);
  if (!raw.ok()) return raw.status();
  const uint8_t* bytes = raw->data();
  const auto load_u32le = [](const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  };
  for (size_t i = 0; i < n; ++i, bytes += kWireReportBytes) {
    const uint8_t y = bytes[0];
    const uint32_t j = load_u32le(bytes + 1);
    const uint32_t l = load_u32le(bytes + 5);
    if (y > 1) return Status::Corruption("report sign byte is not 0 or 1");
    if (j > 0xffff) return Status::Corruption("row index out of range");
    out[i] = LdpReport{y == 1 ? int8_t{1} : int8_t{-1},
                       static_cast<uint16_t>(j), l};
  }
  return n;
}

LdpJoinSketchClient::LdpJoinSketchClient(const SketchParams& params,
                                         double epsilon)
    : params_(params), epsilon_(epsilon) {
  params_.Validate();
  LDPJS_CHECK(epsilon > 0.0);
  flip_prob_ = 1.0 / (std::exp(epsilon) + 1.0);
  flip_threshold_ = BernoulliThreshold(flip_prob_);
  m_log2_ = std::countr_zero(static_cast<uint64_t>(params.m));
  rows_ = MakeRowHashes(params.seed, params.k, static_cast<uint64_t>(params.m));
}

LdpReport LdpJoinSketchClient::Perturb(uint64_t value, Xoshiro256& rng) const {
  const ReportDraws d = SampleReportDraws(rng);
  const RowHashes& row = rows_[d.j];
  // w[l] = ξ_j(d) · H_m[h_j(d), l]; the one-hot structure makes this O(1).
  int w = row.sign(value) * HadamardEntry(row.bucket(value), d.l);
  if (d.flip) w = -w;
  return LdpReport{static_cast<int8_t>(w), d.j, d.l};
}

void LdpJoinSketchClient::PerturbBatch(std::span<const uint64_t> values,
                                       std::span<LdpReport> out,
                                       Xoshiro256& rng) const {
  LDPJS_CHECK(values.size() == out.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = Perturb(values[i], rng);
  }
}

LdpReport LdpJoinSketchClient::PerturbReference(uint64_t value,
                                                Xoshiro256& rng) const {
  const ReportDraws d = SampleReportDraws(rng);
  const RowHashes& row = rows_[d.j];
  // Algorithm 1 literally: v ← 0; v[h_j(d)] ← ξ_j(d); w ← v·H_m; y ← b·w[l].
  std::vector<double> v(static_cast<size_t>(params_.m), 0.0);
  v[row.bucket(value)] = row.sign(value);
  FastWalshHadamardTransform(std::span<double>(v));
  int w = v[d.l] > 0 ? 1 : -1;
  if (d.flip) w = -w;
  return LdpReport{static_cast<int8_t>(w), d.j, d.l};
}

LdpJoinSketchServer::LdpJoinSketchServer(const SketchParams& params,
                                         double epsilon)
    : params_(params), epsilon_(epsilon), c_eps_(DebiasFactor(epsilon)) {
  params_.Validate();
  rows_ = MakeRowHashes(params.seed, params.k, static_cast<uint64_t>(params.m));
  lanes_.assign(static_cast<size_t>(params.k) * static_cast<size_t>(params.m),
                0);
}

void LdpJoinSketchServer::Absorb(const LdpReport& report) {
  LDPJS_CHECK(!finalized_);
  LDPJS_CHECK(report.j < params_.k);
  LDPJS_CHECK(report.l < static_cast<uint32_t>(params_.m));
  LDPJS_CHECK(report.y == 1 || report.y == -1);
  lanes_[static_cast<size_t>(report.j) * static_cast<size_t>(params_.m) +
         report.l] += report.y;
  ++total_;
}

void LdpJoinSketchServer::AbsorbBatch(std::span<const LdpReport> reports) {
  LDPJS_CHECK(!finalized_);
  const uint32_t k = static_cast<uint32_t>(params_.k);
  const uint32_t m = static_cast<uint32_t>(params_.m);
  int64_t* __restrict lanes = lanes_.data();
  // m is validated to be a power of two, so the row offset is a shift.
  const int m_log2 = std::countr_zero(static_cast<uint64_t>(params_.m));
  // Single fused pass, deliberately. The lane scatter is a read-modify-
  // write through a data-dependent index, which no auto-vectorizer can turn
  // into SIMD (duplicate indices must serialize), and the validity branches
  // are perfectly predicted on well-formed input — so they cost nothing
  // next to the RMW, and a bad report aborts before it can touch a lane.
  // The split alternative — a branchless, vectorizable validation pass
  // followed by a bare scatter pass — was measured at 0.85-0.9x of this
  // loop even chunked L1-resident (see absorb_fused_vs_split_speedup in
  // BENCH_micro.json): the second sweep over the reports costs more than
  // the predicted branches ever did. The SIMD win for lane accumulation is
  // in Merge's contiguous AddLanes instead.
  for (const LdpReport& r : reports) {
    LDPJS_CHECK(r.j < k);
    LDPJS_CHECK(r.l < m);
    LDPJS_CHECK(r.y == 1 || r.y == -1);
    lanes[(static_cast<size_t>(r.j) << m_log2) | r.l] += r.y;
  }
  total_ += reports.size();
}

void LdpJoinSketchServer::Merge(const LdpJoinSketchServer& other) {
  LDPJS_CHECK(!finalized_ && !other.finalized_);
  LDPJS_CHECK(params_.k == other.params_.k && params_.m == other.params_.m);
  LDPJS_CHECK(params_.seed == other.params_.seed);
  // AddLanes' restrict contract forbids overlap, so a self-merge — well-
  // defined under the old indexed loop — must be rejected, not miscompiled.
  LDPJS_CHECK(this != &other);
  AddLanes(lanes_.data(), other.lanes_.data(), lanes_.size());
  total_ += other.total_;
}

void LdpJoinSketchServer::SubtractRaw(const LdpJoinSketchServer& other) {
  LDPJS_CHECK(!finalized_ && !other.finalized_);
  LDPJS_CHECK(params_.k == other.params_.k && params_.m == other.params_.m);
  LDPJS_CHECK(params_.seed == other.params_.seed);
  LDPJS_CHECK(this != &other);
  // Subtracting a sketch that was never merged in would leave a negative
  // report count — a caller bug, not a data condition.
  LDPJS_CHECK(total_ >= other.total_);
  SubLanes(lanes_.data(), other.lanes_.data(), lanes_.size());
  total_ -= other.total_;
}

void LdpJoinSketchServer::ResetLanes() {
  LDPJS_CHECK(!finalized_);
  std::fill(lanes_.begin(), lanes_.end(), int64_t{0});
  total_ = 0;
}

void LdpJoinSketchServer::Finalize() {
  LDPJS_CHECK(!finalized_);
  const size_t m = static_cast<size_t>(params_.m);
  const size_t rows = static_cast<size_t>(params_.k);
  cells_.resize(lanes_.size());
  const double scale = static_cast<double>(params_.k) * c_eps_;
  SharedParallelFor(rows, lanes_.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      double* cell_row = cells_.data() + j * m;
      const int64_t* lane_row = lanes_.data() + j * m;
      for (size_t x = 0; x < m; ++x) {
        cell_row[x] = scale * static_cast<double>(lane_row[x]);
      }
      FastWalshHadamardTransform(std::span<double>(cell_row, m));
    }
  });
  lanes_.clear();
  lanes_.shrink_to_fit();
  finalized_ = true;
}

double LdpJoinSketchServer::JoinEstimate(
    const LdpJoinSketchServer& other) const {
  LDPJS_CHECK(finalized_ && other.finalized_);
  LDPJS_CHECK(params_.k == other.params_.k && params_.m == other.params_.m);
  LDPJS_CHECK(params_.seed == other.params_.seed);
  const size_t m = static_cast<size_t>(params_.m);
  const size_t rows = static_cast<size_t>(params_.k);
  std::vector<double> estimators(rows);
  SharedParallelFor(rows, cells_.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      const double* a = cells_.data() + j * m;
      const double* b = other.cells_.data() + j * m;
      double acc = 0.0;
      for (size_t x = 0; x < m; ++x) acc += a[x] * b[x];
      estimators[j] = acc;
    }
  });
  return Median(estimators);
}

double LdpJoinSketchServer::TheoreticalErrorBound(
    const LdpJoinSketchServer& other) const {
  LDPJS_CHECK(params_.k == other.params_.k && params_.m == other.params_.m);
  const double k = static_cast<double>(params_.k);
  const double slack = (k * c_eps_ * c_eps_ - 1.0) / 2.0;
  return 4.0 / std::sqrt(static_cast<double>(params_.m)) *
         (static_cast<double>(total_) + slack) *
         (static_cast<double>(other.total_) + slack);
}

double LdpJoinSketchServer::FrequencyEstimate(uint64_t d) const {
  LDPJS_CHECK(finalized_);
  double acc = 0.0;
  for (int j = 0; j < params_.k; ++j) {
    const RowHashes& row = rows_[static_cast<size_t>(j)];
    acc += cell(j, static_cast<int>(row.bucket(d))) * row.sign(d);
  }
  return acc / static_cast<double>(params_.k);
}

std::vector<double> LdpJoinSketchServer::EstimateAllFrequencies(
    uint64_t domain) const {
  LDPJS_CHECK(finalized_);
  std::vector<double> out(domain);
  SharedParallelFor(static_cast<size_t>(domain),
                    static_cast<size_t>(domain) *
                        static_cast<size_t>(params_.k),
                    [&](size_t, size_t begin, size_t end) {
                      for (size_t d = begin; d < end; ++d) {
                        out[d] = FrequencyEstimate(static_cast<uint64_t>(d));
                      }
                    });
  return out;
}

void LdpJoinSketchServer::SubtractUniformMass(double total_mass) {
  LDPJS_CHECK(finalized_);
  const double per_cell = total_mass / static_cast<double>(params_.m);
  for (double& cell_value : cells_) cell_value -= per_cell;
}

std::vector<uint8_t> LdpJoinSketchServer::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(kSketchMagic);
  writer.PutU8(kSketchVersion);
  writer.PutU32(static_cast<uint32_t>(params_.k));
  writer.PutU32(static_cast<uint32_t>(params_.m));
  writer.PutU64(params_.seed);
  writer.PutDouble(epsilon_);
  writer.PutU64(total_);
  writer.PutU8(finalized_ ? 1 : 0);
  if (finalized_) {
    writer.PutDoubleVector(cells_);
  } else {
    writer.PutI64Vector(lanes_);
  }
  return writer.TakeBuffer();
}

Result<LdpJoinSketchServer> LdpJoinSketchServer::Deserialize(
    std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  auto magic = reader.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kSketchMagic) {
    return Status::Corruption(
        "missing LJS2 sketch magic: buffer is either corrupt or in the "
        "pre-integer-lane (v1) format, which is no longer readable");
  }
  auto version = reader.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kSketchVersion) {
    return Status::Corruption("unsupported sketch format version " +
                              std::to_string(*version));
  }
  auto k = reader.GetU32();
  if (!k.ok()) return k.status();
  auto m = reader.GetU32();
  if (!m.ok()) return m.status();
  auto seed = reader.GetU64();
  if (!seed.ok()) return seed.status();
  auto epsilon = reader.GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  auto total = reader.GetU64();
  if (!total.ok()) return total.status();
  auto finalized = reader.GetU8();
  if (!finalized.ok()) return finalized.status();

  if (*k < 1 || *k > static_cast<uint32_t>(kMaxSketchRows) || *m < 2 ||
      *m > static_cast<uint32_t>(kMaxSketchColumns) || !IsPowerOfTwo(*m)) {
    return Status::Corruption("invalid sketch shape");
  }
  if (!(*epsilon > 0.0)) return Status::Corruption("invalid epsilon");
  const size_t expected_cells =
      static_cast<size_t>(*k) * static_cast<size_t>(*m);
  SketchParams params;
  params.k = static_cast<int>(*k);
  params.m = static_cast<int>(*m);
  params.seed = *seed;
  LdpJoinSketchServer server(params, *epsilon);
  server.total_ = *total;
  if (*finalized != 0) {
    auto cells = reader.GetDoubleVector();
    if (!cells.ok()) return cells.status();
    if (cells->size() != expected_cells) {
      return Status::Corruption("cell count does not match shape");
    }
    server.finalized_ = true;
    server.cells_ = std::move(*cells);
    server.lanes_.clear();
    server.lanes_.shrink_to_fit();
  } else {
    auto lanes = reader.GetI64Vector();
    if (!lanes.ok()) return lanes.status();
    if (lanes->size() != expected_cells) {
      return Status::Corruption("lane count does not match shape");
    }
    server.lanes_ = std::move(*lanes);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after sketch");
  }
  return server;
}

}  // namespace ldpjs
