#include "common/serialize.h"

#include <bit>

namespace ldpjs {

void BinaryWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutBytes(std::span<const uint8_t> bytes) {
  PutU64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::PutFrame(std::span<const uint8_t> payload) {
  LDPJS_CHECK(payload.size() <= 0xffffffffULL);
  PutU32(static_cast<uint32_t>(payload.size()));
  buffer_.insert(buffer_.end(), payload.begin(), payload.end());
}

namespace {

void StoreLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// On a little-endian host the wire order is the native order, so a value
/// is one unaligned load; elsewhere it is assembled byte by byte.
uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

/// The vector codec: a u64 count, then each value's 8 bytes little-endian.
template <typename T>
void BinaryWriter::PutVector64(std::span<const T> values) {
  static_assert(sizeof(T) == 8);
  PutU64(values.size());
  const size_t at = buffer_.size();
  buffer_.resize(at + 8 * values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    StoreLe64(buffer_.data() + at + 8 * i, std::bit_cast<uint64_t>(values[i]));
  }
}

void BinaryWriter::PutDoubleVector(std::span<const double> values) {
  PutVector64(values);
}

void BinaryWriter::PutI64Vector(std::span<const int64_t> values) {
  PutVector64(values);
}

Status BinaryReader::Need(size_t n) {
  if (remaining() < n) {
    return Status::Corruption("truncated buffer: need " + std::to_string(n) +
                              " bytes, have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::GetU8() {
  LDPJS_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint32_t> BinaryReader::GetU32() {
  LDPJS_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  LDPJS_RETURN_IF_ERROR(Need(8));
  const uint64_t v = LoadLe64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryReader::GetI64() {
  auto v = GetU64();
  if (!v.ok()) return v.status();
  return static_cast<int64_t>(*v);
}

Result<double> BinaryReader::GetDouble() {
  auto bits = GetU64();
  if (!bits.ok()) return bits.status();
  double v;
  uint64_t b = *bits;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

Result<std::vector<double>> BinaryReader::GetDoubleVector() {
  // Any length: peek the count prefix and read the vector as that long.
  auto count = BinaryReader(*this).GetU64();
  if (!count.ok()) return count.status();
  std::vector<double> out;
  LDPJS_RETURN_IF_ERROR(GetDoubleVector(*count, out));
  return out;
}

Result<const uint8_t*> BinaryReader::GetVectorValues(uint64_t count) {
  auto prefix = GetU64();
  if (!prefix.ok()) return prefix.status();
  if (*prefix != count) {
    return Status::Corruption("vector length " + std::to_string(*prefix) +
                              " is not the expected " + std::to_string(count));
  }
  if (count > remaining() / 8) {
    return Status::Corruption("vector length exceeds buffer");
  }
  const uint8_t* in = data_.data() + pos_;
  pos_ += 8 * count;
  return in;
}

Status BinaryReader::GetDoubleVector(uint64_t count, std::vector<double>& out) {
  auto in = GetVectorValues(count);
  if (!in.ok()) return in.status();
  out.resize(count);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = std::bit_cast<double>(LoadLe64(*in + 8 * i));
  }
  return Status::OK();
}

Status BinaryReader::GetLaneVector(uint64_t count, uint64_t max_l1,
                                   std::vector<int64_t>& out) {
  auto in = GetVectorValues(count);
  if (!in.ok()) return in.status();
  out.resize(count);
  uint64_t l1 = 0;  // never above max_l1
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<int64_t>(LoadLe64(*in + 8 * i));
    const uint64_t sign = static_cast<uint64_t>(out[i] >> 63);
    // |value|, which is 2^63 for INT64_MIN.
    const uint64_t magnitude = (static_cast<uint64_t>(out[i]) ^ sign) - sign;
    if (magnitude > max_l1 - l1) {
      return Status::Corruption("lane vector's L1 norm exceeds " +
                                std::to_string(max_l1));
    }
    l1 += magnitude;
  }
  return Status::OK();
}

Result<std::span<const uint8_t>> BinaryReader::GetRaw(size_t n) {
  LDPJS_RETURN_IF_ERROR(Need(n));
  std::span<const uint8_t> view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

Result<std::span<const uint8_t>> BinaryReader::GetFrame() {
  auto length = GetU32();
  if (!length.ok()) return length.status();
  return GetRaw(*length);
}

}  // namespace ldpjs
