#include "core/multiway.h"

#include <cmath>
#include <span>

#include "common/hadamard.h"
#include "common/stats.h"

namespace ldpjs {

void MultiwayParams::Validate() const {
  LDPJS_CHECK(k >= 1 && k <= kMaxSketchRows);
  LDPJS_CHECK(m_left >= 2 && IsPowerOfTwo(static_cast<uint64_t>(m_left)));
  LDPJS_CHECK(m_right >= 2 && IsPowerOfTwo(static_cast<uint64_t>(m_right)));
}

LdpMultiwayClient::LdpMultiwayClient(const MultiwayParams& params,
                                     double epsilon)
    : params_(params) {
  params_.Validate();
  LDPJS_CHECK(epsilon > 0.0);
  flip_prob_ = 1.0 / (std::exp(epsilon) + 1.0);
  left_rows_ = MakeRowHashes(params.left_seed, params.k,
                             static_cast<uint64_t>(params.m_left));
  right_rows_ = MakeRowHashes(params.right_seed, params.k,
                              static_cast<uint64_t>(params.m_right));
}

MultiwayReport LdpMultiwayClient::Perturb(uint64_t a, uint64_t b,
                                          Xoshiro256& rng) const {
  MultiwayReport report;
  report.replica =
      static_cast<uint16_t>(rng.NextBounded(static_cast<uint64_t>(params_.k)));
  report.l1 = static_cast<uint32_t>(
      rng.NextBounded(static_cast<uint64_t>(params_.m_left)));
  report.l2 = static_cast<uint32_t>(
      rng.NextBounded(static_cast<uint64_t>(params_.m_right)));
  const RowHashes& left = left_rows_[report.replica];
  const RowHashes& right = right_rows_[report.replica];
  // y = H_m1[h_A(a), l1] · ξ_A(a) ξ_B(b) · H_m2[l2, h_B(b)], each factor O(1).
  int w = HadamardEntry(left.bucket(a), report.l1) * left.sign(a) *
          right.sign(b) * HadamardEntry(report.l2, right.bucket(b));
  if (rng.NextBernoulli(flip_prob_)) w = -w;
  report.y = static_cast<int8_t>(w);
  return report;
}

LdpMultiwayServer::LdpMultiwayServer(const MultiwayParams& params,
                                     double epsilon)
    : params_(params), epsilon_(epsilon), c_eps_(DebiasFactor(epsilon)) {
  params_.Validate();
  cells_.assign(static_cast<size_t>(params.k) *
                    static_cast<size_t>(params.m_left) *
                    static_cast<size_t>(params.m_right),
                0.0);
}

void LdpMultiwayServer::Absorb(const MultiwayReport& report) {
  LDPJS_CHECK(!finalized_);
  LDPJS_CHECK(report.replica < params_.k);
  LDPJS_CHECK(report.l1 < static_cast<uint32_t>(params_.m_left));
  LDPJS_CHECK(report.l2 < static_cast<uint32_t>(params_.m_right));
  const size_t idx = (static_cast<size_t>(report.replica) *
                          static_cast<size_t>(params_.m_left) +
                      report.l1) *
                         static_cast<size_t>(params_.m_right) +
                     report.l2;
  cells_[idx] += static_cast<double>(params_.k) * c_eps_ * report.y;
  ++total_;
}

void LdpMultiwayServer::Merge(const LdpMultiwayServer& other) {
  LDPJS_CHECK(!finalized_ && !other.finalized_);
  LDPJS_CHECK(params_.k == other.params_.k);
  LDPJS_CHECK(params_.m_left == other.params_.m_left);
  LDPJS_CHECK(params_.m_right == other.params_.m_right);
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
}

void LdpMultiwayServer::Finalize() {
  LDPJS_CHECK(!finalized_);
  const size_t m1 = static_cast<size_t>(params_.m_left);
  const size_t m2 = static_cast<size_t>(params_.m_right);
  std::vector<double> column(m1);
  for (int r = 0; r < params_.k; ++r) {
    double* matrix =
        cells_.data() + static_cast<size_t>(r) * m1 * m2;
    // M ← H_m1 · M: FWHT down each column.
    for (size_t c = 0; c < m2; ++c) {
      for (size_t row = 0; row < m1; ++row) column[row] = matrix[row * m2 + c];
      FastWalshHadamardTransform(std::span<double>(column));
      for (size_t row = 0; row < m1; ++row) matrix[row * m2 + c] = column[row];
    }
    // M ← M · H_m2: FWHT along each row.
    for (size_t row = 0; row < m1; ++row) {
      FastWalshHadamardTransform(std::span<double>(matrix + row * m2, m2));
    }
  }
  finalized_ = true;
}

namespace {

/// "LJM1" little-endian: the multiway counterpart of the sketch's LJS2.
constexpr uint32_t kMultiwayMagic = 0x314D4A4CU;
constexpr uint8_t kMultiwayVersion = 1;
/// Deserialization bound on k·m_left·m_right — a hostile shape must be
/// rejected before the cell vector is allocated.
constexpr uint64_t kMaxMultiwayCells = uint64_t{1} << 27;

}  // namespace

std::vector<uint8_t> LdpMultiwayServer::Serialize() const {
  BinaryWriter writer;
  writer.PutU32(kMultiwayMagic);
  writer.PutU8(kMultiwayVersion);
  writer.PutU32(static_cast<uint32_t>(params_.k));
  writer.PutU32(static_cast<uint32_t>(params_.m_left));
  writer.PutU32(static_cast<uint32_t>(params_.m_right));
  writer.PutU64(params_.left_seed);
  writer.PutU64(params_.right_seed);
  writer.PutDouble(epsilon_);
  writer.PutU64(total_);
  writer.PutU8(finalized_ ? 1 : 0);
  writer.PutDoubleVector(cells_);
  return writer.TakeBuffer();
}

Result<LdpMultiwayServer> LdpMultiwayServer::Deserialize(
    std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  auto magic = reader.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kMultiwayMagic) {
    return Status::Corruption("missing LJM1 multiway sketch magic");
  }
  auto version = reader.GetU8();
  if (!version.ok()) return version.status();
  if (*version != kMultiwayVersion) {
    return Status::Corruption("unsupported multiway sketch version " +
                              std::to_string(*version));
  }
  auto k = reader.GetU32();
  if (!k.ok()) return k.status();
  auto m_left = reader.GetU32();
  if (!m_left.ok()) return m_left.status();
  auto m_right = reader.GetU32();
  if (!m_right.ok()) return m_right.status();
  auto left_seed = reader.GetU64();
  if (!left_seed.ok()) return left_seed.status();
  auto right_seed = reader.GetU64();
  if (!right_seed.ok()) return right_seed.status();
  auto epsilon = reader.GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  auto total = reader.GetU64();
  if (!total.ok()) return total.status();
  auto finalized = reader.GetU8();
  if (!finalized.ok()) return finalized.status();
  if (*k < 1 || *k > static_cast<uint32_t>(kMaxSketchRows) || *m_left < 2 ||
      *m_right < 2 || !IsPowerOfTwo(*m_left) || !IsPowerOfTwo(*m_right)) {
    return Status::Corruption("invalid multiway sketch shape");
  }
  const uint64_t expected_cells =
      static_cast<uint64_t>(*k) * static_cast<uint64_t>(*m_left) *
      static_cast<uint64_t>(*m_right);
  if (expected_cells > kMaxMultiwayCells) {
    return Status::Corruption("multiway sketch shape too large");
  }
  if (!(*epsilon > 0.0)) return Status::Corruption("invalid epsilon");
  auto cells = reader.GetDoubleVector();
  if (!cells.ok()) return cells.status();
  if (cells->size() != expected_cells) {
    return Status::Corruption("multiway cell count does not match shape");
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after multiway sketch");
  }
  MultiwayParams params;
  params.k = static_cast<int>(*k);
  params.m_left = static_cast<int>(*m_left);
  params.m_right = static_cast<int>(*m_right);
  params.left_seed = *left_seed;
  params.right_seed = *right_seed;
  LdpMultiwayServer server(params, *epsilon);
  server.total_ = *total;
  server.finalized_ = *finalized != 0;
  server.cells_ = std::move(*cells);
  return server;
}

const double* LdpMultiwayServer::replica_data(int replica) const {
  LDPJS_CHECK(replica >= 0 && replica < params_.k);
  return cells_.data() + static_cast<size_t>(replica) *
                             static_cast<size_t>(params_.m_left) *
                             static_cast<size_t>(params_.m_right);
}

double LdpChainJoinEstimate(
    const LdpJoinSketchServer& end_left,
    const std::vector<const LdpMultiwayServer*>& middles,
    const LdpJoinSketchServer& end_right) {
  LDPJS_CHECK(end_left.finalized() && end_right.finalized());
  const int k = end_left.params().k;
  LDPJS_CHECK(end_right.params().k == k);
  for (const auto* mid : middles) {
    LDPJS_CHECK(mid->finalized());
    LDPJS_CHECK(mid->params().k == k);
  }

  std::vector<double> estimators(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    std::vector<double> vec(static_cast<size_t>(end_left.params().m));
    for (int x = 0; x < end_left.params().m; ++x) {
      vec[static_cast<size_t>(x)] = end_left.cell(j, x);
    }
    for (const auto* mid : middles) {
      const size_t m1 = static_cast<size_t>(mid->params().m_left);
      const size_t m2 = static_cast<size_t>(mid->params().m_right);
      LDPJS_CHECK(m1 == vec.size());
      std::vector<double> next(m2, 0.0);
      const double* matrix = mid->replica_data(j);
      for (size_t row = 0; row < m1; ++row) {
        const double vr = vec[row];
        if (vr == 0.0) continue;
        const double* matrix_row = matrix + row * m2;
        for (size_t col = 0; col < m2; ++col) next[col] += vr * matrix_row[col];
      }
      vec = std::move(next);
    }
    LDPJS_CHECK(static_cast<size_t>(end_right.params().m) == vec.size());
    double acc = 0.0;
    for (int x = 0; x < end_right.params().m; ++x) {
      acc += vec[static_cast<size_t>(x)] * end_right.cell(j, x);
    }
    estimators[static_cast<size_t>(j)] = acc;
  }
  return Median(estimators);
}

namespace {

/// Dense row-major product C = A(rows x inner) * B(inner x cols).
std::vector<double> MatMul(const double* a, size_t rows, size_t inner,
                           const double* b, size_t cols) {
  std::vector<double> c(rows * cols, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < inner; ++j) {
      const double v = a[i * inner + j];
      if (v == 0.0) continue;
      const double* b_row = b + j * cols;
      double* c_row = c.data() + i * cols;
      for (size_t x = 0; x < cols; ++x) c_row[x] += v * b_row[x];
    }
  }
  return c;
}

}  // namespace

double LdpCyclicJoinEstimate(
    const std::vector<const LdpMultiwayServer*>& cycle) {
  LDPJS_CHECK(cycle.size() >= 2);
  const int k = cycle[0]->params().k;
  for (size_t i = 0; i < cycle.size(); ++i) {
    const auto* current = cycle[i];
    const auto* next = cycle[(i + 1) % cycle.size()];
    LDPJS_CHECK(current->finalized());
    LDPJS_CHECK(current->params().k == k);
    LDPJS_CHECK(current->params().m_right == next->params().m_left);
  }
  std::vector<double> estimators(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) {
    const size_t rows = static_cast<size_t>(cycle[0]->params().m_left);
    size_t cols = static_cast<size_t>(cycle[0]->params().m_right);
    std::vector<double> acc(cycle[0]->replica_data(j),
                            cycle[0]->replica_data(j) + rows * cols);
    for (size_t t = 1; t < cycle.size(); ++t) {
      const size_t next_cols = static_cast<size_t>(cycle[t]->params().m_right);
      acc = MatMul(acc.data(), rows, cols, cycle[t]->replica_data(j),
                   next_cols);
      cols = next_cols;
    }
    LDPJS_CHECK(rows == cols);
    double trace = 0.0;
    for (size_t i = 0; i < rows; ++i) trace += acc[i * cols + i];
    estimators[static_cast<size_t>(j)] = trace;
  }
  return Median(estimators);
}

LdpMultiwayServer BuildLdpMultiwaySketch(const PairColumn& pairs,
                                         const MultiwayParams& params,
                                         double epsilon, uint64_t run_seed) {
  LdpMultiwayClient client(params, epsilon);
  LdpMultiwayServer server(params, epsilon);
  for (size_t i = 0; i < pairs.size(); ++i) {
    Xoshiro256 rng(DeriveStreamSeed(run_seed, static_cast<uint64_t>(i)));
    server.Absorb(client.Perturb(pairs.left[i], pairs.right[i], rng));
  }
  server.Finalize();
  return server;
}

}  // namespace ldpjs
