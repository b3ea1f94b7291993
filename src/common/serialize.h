// Minimal binary serialization for sketches and client messages.
//
// Little-endian, length-prefixed; BinaryReader validates bounds and reports
// truncation via Status rather than crashing, so sketches can be exchanged
// between an untrusted client and the aggregator.
#ifndef LDPJS_COMMON_SERIALIZE_H_
#define LDPJS_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ldpjs {

/// Appends fixed-width little-endian values to a growable byte buffer.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  /// Length-prefixed (u64) raw bytes.
  void PutBytes(std::span<const uint8_t> bytes);
  /// One wire frame: u32 length prefix + raw payload. The streaming
  /// aggregation tier concatenates frames into a single stream, so a reader
  /// can skip a frame without understanding its payload. Payloads above
  /// 4 GiB are a contract violation (frames are decode-buffer sized).
  void PutFrame(std::span<const uint8_t> payload);
  /// Length-prefixed (u64 count) vector of doubles, 8 little-endian bytes
  /// each. The buffer grows once for the whole vector.
  void PutDoubleVector(std::span<const double> values);
  /// The same layout for signed 64-bit integers (raw sketch lanes).
  void PutI64Vector(std::span<const int64_t> values);

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  template <typename T>
  void PutVector64(std::span<const T> values);

  std::vector<uint8_t> buffer_;
};

/// Reads values written by BinaryWriter; every getter checks bounds.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  /// Reads a PutDoubleVector record of any length.
  Result<std::vector<double>> GetDoubleVector();
  /// Reads a PutDoubleVector record that must hold exactly `count` values
  /// into `out`, replacing its contents: one length check, one bounds check,
  /// then one little-endian load per value. Corruption otherwise.
  Status GetDoubleVector(uint64_t count, std::vector<double>& out);
  /// The same for a PutI64Vector record of raw sketch lanes, whose L1 norm
  /// is bounded in that one pass: Corruption when Σ|value| exceeds `max_l1`.
  Status GetLaneVector(uint64_t count, uint64_t max_l1,
                       std::vector<int64_t>& out);
  /// Bounds-checks and consumes the next `n` bytes, returning a zero-copy
  /// view into the underlying buffer (valid while the buffer lives). This is
  /// the batch-decode primitive: one check up front instead of one per field.
  Result<std::span<const uint8_t>> GetRaw(size_t n);
  /// Reads one PutFrame record: u32 length + payload, returned zero-copy.
  Result<std::span<const uint8_t>> GetFrame();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n);
  /// Consumes a vector record's u64 count, which must equal `count`, and
  /// its 8·count value bytes, returning where those start.
  Result<const uint8_t*> GetVectorValues(uint64_t count);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace ldpjs

#endif  // LDPJS_COMMON_SERIALIZE_H_
