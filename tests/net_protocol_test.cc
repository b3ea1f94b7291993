// LJSP transport + handshake codec: framing round trips, every truncation/
// corruption surfaces as a clean Status (these run under the CI ASan/UBSan
// job), and clean end-of-stream is distinguishable from a mid-frame cut —
// for ReadNetFrame and the server's buffered FrameReader alike.
#include <sys/socket.h>

#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "net/protocol.h"

namespace ldpjs {
namespace {

/// A connected AF_UNIX stream pair wrapped in the Socket RAII type — the
/// transport functions only need a stream fd, so tests skip TCP setup.
std::pair<Socket, Socket> StreamPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

TEST(NetProtocolTest, HelloRoundTrips) {
  SessionHello hello;
  hello.k = 18;
  hello.m = 1024;
  hello.seed = 0xDEADBEEFULL;
  hello.epsilon = 4.0;
  const std::vector<uint8_t> bytes = EncodeHello(hello);
  auto decoded = DecodeHello(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->k, hello.k);
  EXPECT_EQ(decoded->m, hello.m);
  EXPECT_EQ(decoded->seed, hello.seed);
  EXPECT_EQ(decoded->epsilon, hello.epsilon);
  EXPECT_FALSE(decoded->has_region);
}

TEST(NetProtocolTest, HelloCarriesRegionAnnouncement) {
  SessionHello hello;
  hello.k = 6;
  hello.m = 256;
  hello.has_region = true;
  hello.region_id = 0xABCD1234u;
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->has_region);
  EXPECT_EQ(decoded->region_id, 0xABCD1234u);
  // The flag byte is strict: anything but 0/1 is corruption, not "true".
  std::vector<uint8_t> bad = EncodeHello(hello);
  bad[bad.size() - 5] = 2;  // the has_region byte (before the u32 region)
  EXPECT_EQ(DecodeHello(bad).status().code(), StatusCode::kCorruption);
}

TEST(NetProtocolTest, HelloRejectsBadMagicVersionAndTruncation) {
  SessionHello hello;
  hello.k = 4;
  hello.m = 64;
  std::vector<uint8_t> bytes = EncodeHello(hello);
  {
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;  // magic
    EXPECT_EQ(DecodeHello(bad).status().code(), StatusCode::kCorruption);
  }
  for (const uint8_t version : {uint8_t{kNetVersion - 1}, uint8_t{99}}) {
    // Any other version is a handshake mismatch, not corruption.
    std::vector<uint8_t> bad = bytes;
    bad[4] = version;
    EXPECT_EQ(DecodeHello(bad).status().code(),
              StatusCode::kFailedPrecondition)
        << "version=" << static_cast<int>(version);
  }
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> bad(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeHello(bad).ok()) << "cut=" << cut;
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad.push_back(0);  // trailing byte
    EXPECT_EQ(DecodeHello(bad).status().code(), StatusCode::kCorruption);
  }
}

TEST(NetProtocolTest, HelloOkRoundTrips) {
  SessionHelloOk ok;
  ok.region_next_epoch = 0x1122334455667788ULL;
  const std::vector<uint8_t> bytes = EncodeHelloOk(ok);
  EXPECT_EQ(bytes.size(), 9u);  // u8 version | u64 region_next_epoch
  auto decoded = DecodeHelloOk(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, kNetVersion);
  EXPECT_EQ(decoded->region_next_epoch, 0x1122334455667788ULL);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> bad(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeHelloOk(bad).ok()) << "cut=" << cut;
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(DecodeHelloOk(trailing).status().code(), StatusCode::kCorruption);
  // A v5 HELLO_OK (which also carried a shard count and an ack flag) is a
  // handshake mismatch, refused on its version byte alone.
  std::vector<uint8_t> v5 = {uint8_t{kNetVersion - 1}, 4, 0, 0, 0, 1};
  v5.resize(14, 0);
  EXPECT_EQ(DecodeHelloOk(v5).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NetProtocolTest, EpochPushAckRoundTripsAndRejectsGarbage) {
  EpochPushAck ack;
  ack.code = EpochPushAckCode::kDuplicate;
  ack.next_epoch = 42;
  const std::vector<uint8_t> bytes = EncodeEpochPushAck(ack);
  auto decoded = DecodeEpochPushAck(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, EpochPushAckCode::kDuplicate);
  EXPECT_EQ(decoded->next_epoch, 42u);
  // Unknown code byte, truncation, and trailing bytes are all corruption.
  std::vector<uint8_t> bad = bytes;
  bad[0] = 9;
  EXPECT_EQ(DecodeEpochPushAck(bad).status().code(), StatusCode::kCorruption);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeEpochPushAck(truncated).ok()) << "cut=" << cut;
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(DecodeEpochPushAck(trailing).status().code(),
            StatusCode::kCorruption);
}

TEST(NetProtocolTest, PingFramesAreKnownTypes) {
  auto [a, b] = StreamPair();
  ASSERT_TRUE(WriteNetFrame(a, NetFrameType::kPing, {}).ok());
  ASSERT_TRUE(WriteNetFrame(a, NetFrameType::kPingOk, {}).ok());
  auto ping = ReadNetFrame(b, kMaxIngestFramePayload);
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->type, NetFrameType::kPing);
  EXPECT_TRUE(ping->payload.empty());
  auto ping_ok = ReadNetFrame(b, kMaxIngestFramePayload);
  ASSERT_TRUE(ping_ok.ok());
  EXPECT_EQ(ping_ok->type, NetFrameType::kPingOk);
}

/// One request per QueryKind with every kind-relevant field set to a
/// distinctive value, so a codec that drops or reorders a field cannot
/// round-trip canonically.
std::vector<QueryRequest> AllQueryKinds() {
  std::vector<QueryRequest> requests;
  QueryRequest join;
  join.kind = QueryKind::kJoinSize;
  join.probe_sketch = {1, 2, 3, 4, 5, 6, 7, 8};
  requests.push_back(join);
  QueryRequest freq;
  freq.kind = QueryKind::kFrequency;
  freq.key = 0x0123456789ABCDEFULL;
  requests.push_back(freq);
  QueryRequest topk;
  topk.kind = QueryKind::kFrequentItems;
  topk.domain = 4096;
  topk.threshold = 2.5;
  requests.push_back(topk);
  QueryRequest chain;
  chain.kind = QueryKind::kMultiwayChain;
  chain.middles = {{9, 8, 7}, {6, 5}};
  chain.probe_sketch = {4, 3, 2, 1};
  requests.push_back(chain);
  QueryRequest range;
  range.kind = QueryKind::kRangeCount;
  range.range_lo = 100;
  range.range_hi = 900;
  requests.push_back(range);
  QueryRequest pred;
  pred.kind = QueryKind::kPredicateJoin;
  pred.range_lo = 7;
  pred.range_hi = 77;
  pred.probe_sketch = {0xAA, 0xBB};
  requests.push_back(pred);
  return requests;
}

TEST(NetProtocolTest, QueryRequestRoundTripsEveryKind) {
  for (const QueryRequest& request : AllQueryKinds()) {
    SCOPED_TRACE(static_cast<int>(request.kind));
    const std::vector<uint8_t> bytes = EncodeQueryRequest(request);
    auto decoded = DecodeQueryRequest(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->kind, request.kind);
    // Canonical: re-encoding the decoded request reproduces the bytes, so
    // every kind-relevant field survived exactly.
    EXPECT_EQ(EncodeQueryRequest(*decoded), bytes);
  }
}

TEST(NetProtocolTest, QueryRequestRejectsTruncationGarbageAndTrailing) {
  // Unknown kind byte up front.
  EXPECT_EQ(DecodeQueryRequest(std::vector<uint8_t>{6}).status().code(),
            StatusCode::kCorruption);
  EXPECT_FALSE(DecodeQueryRequest(std::vector<uint8_t>{}).ok());
  for (const QueryRequest& request : AllQueryKinds()) {
    SCOPED_TRACE(static_cast<int>(request.kind));
    const std::vector<uint8_t> bytes = EncodeQueryRequest(request);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<uint8_t> truncated(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_FALSE(DecodeQueryRequest(truncated).ok()) << "cut=" << cut;
    }
    std::vector<uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_EQ(DecodeQueryRequest(trailing).status().code(),
              StatusCode::kCorruption);
  }
}

TEST(NetProtocolTest, TracedRoundTripsAndRejectsTruncationAndBadInner) {
  const QueryRequest request = AllQueryKinds().front();
  const std::vector<uint8_t> inner = EncodeQueryRequest(request);
  const std::vector<uint8_t> bytes =
      EncodeTraced(NetFrameType::kQuery, 0xABCDULL, 77, inner);
  auto decoded = DecodeTraced(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->inner_type, NetFrameType::kQuery);
  EXPECT_EQ(decoded->trace_id, 0xABCDULL);
  EXPECT_EQ(decoded->origin_ns, 77u);
  ASSERT_TRUE(DecodeQueryRequest(decoded->inner_payload).ok());
  // Truncating anywhere inside the 17-byte envelope header fails cleanly.
  for (size_t cut = 0; cut < kTracedHeaderBytes; ++cut) {
    const std::vector<uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeTraced(truncated).ok()) << "cut=" << cut;
  }
  // Wrapping a control frame (FINALIZE would bypass the drain barrier) is
  // rejected up front.
  const std::vector<uint8_t> control =
      EncodeTraced(NetFrameType::kFinalize, 1, 1, {});
  EXPECT_EQ(DecodeTraced(control).status().code(), StatusCode::kCorruption);
  // The envelope itself is length-transparent: trailing bytes land in
  // inner_payload, where the inner codec rejects them.
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  auto reparsed = DecodeTraced(trailing);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(DecodeQueryRequest(reparsed->inner_payload).status().code(),
            StatusCode::kCorruption);
}

TEST(NetProtocolTest, QueryResponseRoundTripsBitExactAndRejectsGarbage) {
  QueryResponse response;
  response.kind = QueryKind::kFrequentItems;
  response.view_sequence = 41;
  response.view_aligned = true;
  response.view_epoch = 0xFEEDF00DULL;
  response.view_reports = 123456789;
  response.value = 0x1.fedcba9876543p+42;  // exercises every mantissa bit
  response.items = {3, 1, 4, 1, 5, 9};
  const std::vector<uint8_t> bytes = EncodeQueryResponse(response);
  auto decoded = DecodeQueryResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, response.kind);
  EXPECT_EQ(decoded->view_sequence, response.view_sequence);
  EXPECT_EQ(decoded->view_aligned, response.view_aligned);
  EXPECT_EQ(decoded->view_epoch, response.view_epoch);
  EXPECT_EQ(decoded->view_reports, response.view_reports);
  EXPECT_EQ(decoded->value, response.value);  // exact — memcpy round trip
  EXPECT_EQ(decoded->items, response.items);

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DecodeQueryResponse(truncated).ok()) << "cut=" << cut;
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_EQ(DecodeQueryResponse(trailing).status().code(),
            StatusCode::kCorruption);
  std::vector<uint8_t> bad_kind = bytes;
  bad_kind[0] = 6;
  EXPECT_EQ(DecodeQueryResponse(bad_kind).status().code(),
            StatusCode::kCorruption);
}

TEST(NetProtocolTest, ErrorPayloadRoundTripsStatus) {
  const Status status = Status::Unavailable("queue full, retry");
  const Status decoded = DecodeErrorPayload(EncodeErrorPayload(status));
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_EQ(decoded.message(), "queue full, retry");
  // Garbage code byte degrades to Internal, never to OK.
  EXPECT_FALSE(DecodeErrorPayload(std::vector<uint8_t>{0}).ok());
  EXPECT_FALSE(DecodeErrorPayload(std::vector<uint8_t>{}).ok());
}

TEST(NetProtocolTest, WireFrameLayout) {
  auto [a, b] = StreamPair();
  const std::vector<uint8_t> payload = {0xAA, 0xBB, 0xCC};
  ASSERT_TRUE(WriteNetFrame(a, NetFrameType::kData, payload).ok());
  uint8_t bytes[8];
  ASSERT_TRUE(b.RecvAll(bytes).ok());
  EXPECT_EQ(bytes[0], 3u);  // u32 little-endian length
  EXPECT_EQ(bytes[1], 0u);
  EXPECT_EQ(bytes[2], 0u);
  EXPECT_EQ(bytes[3], 0u);
  EXPECT_EQ(bytes[4], static_cast<uint8_t>(NetFrameType::kData));
  EXPECT_EQ(bytes[5], 0xAA);
  EXPECT_EQ(bytes[7], 0xCC);
}

/// Reads one socket's frames as owned NetFrames, through ReadNetFrame or a
/// FrameReader, so every socket case below runs against both readers.
using FrameSource = std::function<Result<NetFrame>(size_t max_payload)>;
using FrameSourceFactory = FrameSource (*)(const Socket& socket);

FrameSource Unbuffered(const Socket& socket) {
  return [&socket](size_t max_payload) {
    return ReadNetFrame(socket, max_payload);
  };
}

FrameSource Buffered(const Socket& socket) {
  auto reader = std::make_shared<FrameReader>(socket);
  return [reader](size_t max_payload) -> Result<NetFrame> {
    auto frame = reader->Next(max_payload);
    if (!frame.ok()) return frame.status();
    NetFrame owned;
    owned.type = frame->type;
    owned.payload = frame->TakePayload();
    return owned;
  };
}

class NetProtocolReadTest
    : public ::testing::TestWithParam<FrameSourceFactory> {};

TEST_P(NetProtocolReadTest, WriteThenReadOverSocket) {
  auto [a, b] = StreamPair();
  FrameSource read = GetParam()(b);
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(WriteNetFrame(a, NetFrameType::kData, payload).ok());
  ASSERT_TRUE(WriteNetFrame(a, NetFrameType::kBye, {}).ok());
  auto first = read(kMaxIngestFramePayload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, NetFrameType::kData);
  EXPECT_EQ(first->payload, payload);
  auto second = read(kMaxIngestFramePayload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, NetFrameType::kBye);
  EXPECT_TRUE(second->payload.empty());
}

TEST_P(NetProtocolReadTest, CleanCloseIsEndOfSessionNotCorruption) {
  auto [a, b] = StreamPair();
  FrameSource read = GetParam()(b);
  a.Close();
  auto frame = read(kMaxIngestFramePayload);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
}

TEST_P(NetProtocolReadTest, MidHeaderCloseIsCorruption) {
  auto [a, b] = StreamPair();
  FrameSource read = GetParam()(b);
  const uint8_t partial[3] = {9, 0, 0};  // 3 of the 5 header bytes
  ASSERT_TRUE(a.SendAll(partial).ok());
  a.Close();
  auto frame = read(kMaxIngestFramePayload);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST_P(NetProtocolReadTest, MidPayloadCloseIsCorruption) {
  auto [a, b] = StreamPair();
  FrameSource read = GetParam()(b);
  // Declares 100 payload bytes, delivers 10.
  const uint8_t header[5] = {100, 0, 0, 0,
                             static_cast<uint8_t>(NetFrameType::kData)};
  const uint8_t partial[10] = {};
  ASSERT_TRUE(a.SendAll(header).ok());
  ASSERT_TRUE(a.SendAll(partial).ok());
  a.Close();
  auto frame = read(kMaxIngestFramePayload);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST_P(NetProtocolReadTest, OversizedLengthPrefixRejectedWithoutReading) {
  auto [a, b] = StreamPair();
  FrameSource read = GetParam()(b);
  // 16 MiB declared against a 64 KiB cap: must fail on the header alone.
  const uint32_t huge = 16u << 20;
  const uint8_t header[5] = {static_cast<uint8_t>(huge),
                             static_cast<uint8_t>(huge >> 8),
                             static_cast<uint8_t>(huge >> 16),
                             static_cast<uint8_t>(huge >> 24),
                             static_cast<uint8_t>(NetFrameType::kData)};
  ASSERT_TRUE(a.SendAll(header).ok());
  auto frame = read(kMaxIngestFramePayload);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
}

TEST_P(NetProtocolReadTest, UnknownFrameTypeRejected) {
  // 4 was DATA_ACK before v6 and stays unassigned.
  for (const uint8_t type : {uint8_t{4}, uint8_t{0xEE}}) {
    SCOPED_TRACE(static_cast<int>(type));
    auto [a, b] = StreamPair();
    FrameSource read = GetParam()(b);
    const uint8_t header[5] = {0, 0, 0, 0, type};
    ASSERT_TRUE(a.SendAll(header).ok());
    auto frame = read(kMaxIngestFramePayload);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kCorruption);
  }
}

/// Frame i of the multi-frame cases: a DATA payload of (37·i) % 327 bytes,
/// each byte distinct per frame, so a frame read at the wrong offset shows.
/// 100 of them make 16.5 KB, so frames straddle the end of FrameReader's
/// buffer (at 8 KiB, one mid-header and one mid-payload).
std::vector<uint8_t> NumberedPayload(size_t i) {
  std::vector<uint8_t> payload((i * 37) % 327);
  for (size_t j = 0; j < payload.size(); ++j) {
    payload[j] = static_cast<uint8_t>(i * 7 + j);
  }
  return payload;
}

/// One DATA frame's wire bytes, header included, appended to `stream`.
void AppendDataFrame(std::vector<uint8_t>& stream,
                     const std::vector<uint8_t>& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    stream.push_back(static_cast<uint8_t>(len >> shift));
  }
  stream.push_back(static_cast<uint8_t>(NetFrameType::kData));
  stream.insert(stream.end(), payload.begin(), payload.end());
}

TEST_P(NetProtocolReadTest, HundredFramesInOneWrite) {
  auto [a, b] = StreamPair();
  FrameSource read = GetParam()(b);
  std::vector<uint8_t> stream;
  for (size_t i = 0; i < 100; ++i) AppendDataFrame(stream, NumberedPayload(i));
  ASSERT_TRUE(a.SendAll(stream).ok());
  a.Close();
  for (size_t i = 0; i < 100; ++i) {
    auto frame = read(kMaxIngestFramePayload);
    ASSERT_TRUE(frame.ok()) << "frame " << i << ": "
                            << frame.status().ToString();
    EXPECT_EQ(frame->type, NetFrameType::kData);
    EXPECT_EQ(frame->payload, NumberedPayload(i)) << "frame " << i;
  }
  EXPECT_EQ(read(kMaxIngestFramePayload).status().code(),
            StatusCode::kNotFound);
}

TEST_P(NetProtocolReadTest, FrameWrittenOneByteAtATime) {
  auto [a, b] = StreamPair();
  b.SetRecvTimeout(10);  // a stalled writer fails the read, never hangs it
  FrameSource read = GetParam()(b);
  const std::vector<uint8_t> payload = NumberedPayload(37);
  std::vector<uint8_t> bytes;
  AppendDataFrame(bytes, payload);
  std::thread writer([&a, &bytes] {
    // A pause between single-byte sends, so each arrives in its own recv.
    for (const uint8_t byte : bytes) {
      EXPECT_TRUE(a.SendAll(std::span<const uint8_t>(&byte, 1)).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    EXPECT_TRUE(WriteNetFrame(a, NetFrameType::kBye, {}).ok());
  });
  auto frame = read(kMaxIngestFramePayload);
  auto bye = read(kMaxIngestFramePayload);
  b.ShutdownBoth();  // after a failed read, unblocks the writer
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, NetFrameType::kData);
  EXPECT_EQ(frame->payload, payload);
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_EQ(bye->type, NetFrameType::kBye);
}

TEST_P(NetProtocolReadTest, FrameLargerThanTheBufferArrivesIntact) {
  auto [a, b] = StreamPair();
  b.SetRecvTimeout(10);
  FrameSource read = GetParam()(b);
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  // An EPOCH_PUSH-sized payload, far larger than the read buffer, between
  // two small frames: its buffered prefix and the rest must join exactly,
  // and the next frame must start right after it.
  std::vector<uint8_t> big(EpochPushPayloadBound(params));
  ASSERT_GT(big.size(), FrameReader::kBufferBytes);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  }
  const std::vector<uint8_t> small = NumberedPayload(11);
  std::thread writer([&] {
    EXPECT_TRUE(WriteNetFrame(a, NetFrameType::kData, small).ok());
    EXPECT_TRUE(WriteNetFrame(a, NetFrameType::kEpochPush, big).ok());
    EXPECT_TRUE(WriteNetFrame(a, NetFrameType::kPing, small).ok());
  });
  auto first = read(kMaxControlFramePayload);
  auto push = read(kMaxControlFramePayload);
  auto last = read(kMaxControlFramePayload);
  b.ShutdownBoth();  // after a failed read, unblocks the writer
  writer.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->payload, small);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->type, NetFrameType::kEpochPush);
  EXPECT_TRUE(push->payload == big);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last->type, NetFrameType::kPing);
  EXPECT_EQ(last->payload, small);
}

INSTANTIATE_TEST_SUITE_P(
    Readers, NetProtocolReadTest,
    ::testing::Values(&Unbuffered, &Buffered),
    [](const ::testing::TestParamInfo<FrameSourceFactory>& info) {
      return info.param == &Unbuffered ? std::string("ReadNetFrame")
                                       : std::string("FrameReader");
    });

}  // namespace
}  // namespace ldpjs
