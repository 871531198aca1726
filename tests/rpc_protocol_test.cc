// Wire-protocol tests: frame encode/decode round-trips, rejection of torn /
// oversized / garbage frames without crashing, request-id matching, payload
// codecs, the frozen Status wire-code table, and the column-block codec of
// RESULT payloads (sql::ResultSet).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "rpc/protocol.h"
#include "sql/result_set.h"

namespace hazy::rpc {
namespace {

TEST(FrameTest, EncodeDecodeRoundTrip) {
  std::string buf;
  EncodeFrame(Opcode::kQuery, 42, "SELECT 1;", &buf);
  ASSERT_EQ(buf.size(), kFrameHeaderBytes + 9);

  FrameView frame;
  size_t frame_bytes = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(buf, &frame, &frame_bytes, &error), FrameDecode::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kQuery);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, "SELECT 1;");
  EXPECT_EQ(frame_bytes, buf.size());
}

TEST(FrameTest, EmptyPayload) {
  std::string buf;
  EncodeFrame(Opcode::kPing, 7, {}, &buf);
  FrameView frame;
  size_t frame_bytes = 0;
  ASSERT_EQ(TryDecodeFrame(buf, &frame, &frame_bytes, nullptr), FrameDecode::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, RequestIdEchoedPerFrame) {
  // Multiple frames back-to-back decode in order with their own ids.
  std::string buf;
  for (uint32_t id : {1u, 99u, 0xFFFFFFFFu}) {
    EncodeFrame(Opcode::kPing, id, {}, &buf);
  }
  std::string_view rest = buf;
  for (uint32_t id : {1u, 99u, 0xFFFFFFFFu}) {
    FrameView frame;
    size_t frame_bytes = 0;
    ASSERT_EQ(TryDecodeFrame(rest, &frame, &frame_bytes, nullptr),
              FrameDecode::kFrame);
    EXPECT_EQ(frame.request_id, id);
    rest = rest.substr(frame_bytes);
  }
  EXPECT_TRUE(rest.empty());
}

TEST(FrameTest, TornFramesNeedMore) {
  std::string buf;
  EncodeFrame(Opcode::kQuery, 5, "SELECT COUNT(*) FROM t;", &buf);
  // Every strict prefix is a torn frame: kNeedMore, never kBad/kFrame.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    FrameView frame;
    size_t frame_bytes = 0;
    EXPECT_EQ(TryDecodeFrame(std::string_view(buf).substr(0, cut), &frame,
                             &frame_bytes, nullptr),
              FrameDecode::kNeedMore)
        << "prefix length " << cut;
  }
}

TEST(FrameTest, OversizedFrameRejected) {
  std::string buf;
  // Hand-build a header claiming a payload beyond kMaxFrameBytes.
  const uint32_t huge = kMaxFrameBytes + 1;
  buf.push_back(static_cast<char>(huge & 0xFF));
  buf.push_back(static_cast<char>((huge >> 8) & 0xFF));
  buf.push_back(static_cast<char>((huge >> 16) & 0xFF));
  buf.push_back(static_cast<char>((huge >> 24) & 0xFF));
  FrameView frame;
  size_t frame_bytes = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(buf, &frame, &frame_bytes, &error), FrameDecode::kBad);
  EXPECT_FALSE(error.empty());
}

TEST(FrameTest, UndersizedLengthRejected) {
  // length < 5 cannot hold opcode + request id.
  const std::string buf = {4, 0, 0, 0};
  FrameView frame;
  size_t frame_bytes = 0;
  EXPECT_EQ(TryDecodeFrame(buf, &frame, &frame_bytes, nullptr), FrameDecode::kBad);
}

TEST(FrameTest, GarbageOpcodeRejectedEarly) {
  // A valid length but an unknown opcode fails as soon as the opcode byte
  // arrives — no waiting for the (never-arriving) payload.
  std::string buf = {16, 0, 0, 0, 0x55};
  FrameView frame;
  size_t frame_bytes = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(buf, &frame, &frame_bytes, &error), FrameDecode::kBad);
  EXPECT_NE(error.find("opcode"), std::string::npos);
}

TEST(FrameTest, RandomGarbageNeverCrashes) {
  // Feed pseudo-random byte soup; every outcome must be one of the three
  // enum values with no crash or over-read (ASan is the real assertion).
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<char>(state & 0xFF);
  };
  for (int round = 0; round < 200; ++round) {
    std::string soup;
    for (int i = 0; i < 64; ++i) soup.push_back(next());
    FrameView frame;
    size_t frame_bytes = 0;
    const FrameDecode rc = TryDecodeFrame(soup, &frame, &frame_bytes, nullptr);
    if (rc == FrameDecode::kFrame) {
      EXPECT_LE(frame_bytes, soup.size());
    }
  }
}

TEST(OpcodeTest, KnownOpcodesHaveNames) {
  for (uint8_t op = 0; op != 0xFF; ++op) {
    if (IsKnownOpcode(op)) {
      EXPECT_STRNE(OpcodeName(static_cast<Opcode>(op)), "?");
    }
  }
  EXPECT_FALSE(IsKnownOpcode(0x00));
  EXPECT_FALSE(IsKnownOpcode(0x7F));
  EXPECT_TRUE(IsKnownOpcode(0xE1));
}

TEST(PayloadTest, HelloRoundTrip) {
  std::string payload;
  EncodeHelloPayload(kProtocolVersion, "shell", &payload);
  uint32_t version = 0;
  std::string name;
  ASSERT_TRUE(DecodeHelloPayload(payload, &version, &name).ok());
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_EQ(name, "shell");
  EXPECT_TRUE(DecodeHelloPayload("ab", &version, &name).IsCorruption());
}

TEST(PayloadTest, PreparedRoundTrip) {
  std::string payload;
  EncodePreparedPayload(9, 3, &payload);
  uint32_t stmt_id = 0, num_params = 0;
  ASSERT_TRUE(DecodePreparedPayload(payload, &stmt_id, &num_params).ok());
  EXPECT_EQ(stmt_id, 9u);
  EXPECT_EQ(num_params, 3u);
  payload.push_back('x');
  EXPECT_TRUE(DecodePreparedPayload(payload, &stmt_id, &num_params).IsCorruption());
}

TEST(PayloadTest, ExecRoundTrip) {
  std::vector<storage::Value> params;
  params.emplace_back(int64_t{41});
  params.emplace_back(std::string("hello"));
  params.emplace_back(3.5);
  params.emplace_back();  // NULL
  std::string payload;
  EncodeExecPayload(12, params, &payload);

  uint32_t stmt_id = 0;
  std::vector<storage::Value> decoded;
  ASSERT_TRUE(DecodeExecPayload(payload, &stmt_id, &decoded).ok());
  EXPECT_EQ(stmt_id, 12u);
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_EQ(std::get<int64_t>(decoded[0]), 41);
  EXPECT_EQ(std::get<std::string>(decoded[1]), "hello");
  EXPECT_EQ(std::get<double>(decoded[2]), 3.5);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(decoded[3]));

  // Truncation anywhere inside the payload is Corruption, not a crash.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    uint32_t id = 0;
    std::vector<storage::Value> vals;
    EXPECT_FALSE(DecodeExecPayload(std::string_view(payload).substr(0, cut),
                                   &id, &vals)
                     .ok())
        << "cut " << cut;
  }
}

TEST(PayloadTest, CloseStmtRoundTrip) {
  std::string payload;
  EncodeCloseStmtPayload(77, &payload);
  uint32_t stmt_id = 0;
  ASSERT_TRUE(DecodeCloseStmtPayload(payload, &stmt_id).ok());
  EXPECT_EQ(stmt_id, 77u);
}

TEST(PayloadTest, ErrorPayloadKeepsCategory) {
  std::string payload;
  EncodeErrorPayload(Status::NotFound("no table named 't'"), &payload);
  Status decoded = DecodeErrorPayload(payload);
  EXPECT_TRUE(decoded.IsNotFound());
  EXPECT_EQ(decoded.message(), "no table named 't'");
}

TEST(PayloadTest, UnknownWireCodeBecomesInternal) {
  std::string payload;
  payload.push_back(static_cast<char>(200));  // beyond kMaxStatusWireCode
  payload.append("mystery");
  Status decoded = DecodeErrorPayload(payload);
  EXPECT_TRUE(decoded.IsInternal());
  EXPECT_NE(decoded.message().find("mystery"), std::string::npos);
}

// The frozen table: every StatusCode must survive a wire round-trip with its
// exact frozen number. A renumbering (protocol break) fails here.
TEST(StatusWireTest, EveryCodeRoundTrips) {
  const std::pair<StatusCode, uint8_t> frozen[] = {
      {StatusCode::kOk, 0},
      {StatusCode::kInvalidArgument, 1},
      {StatusCode::kNotFound, 2},
      {StatusCode::kAlreadyExists, 3},
      {StatusCode::kOutOfRange, 4},
      {StatusCode::kIOError, 5},
      {StatusCode::kCorruption, 6},
      {StatusCode::kNotSupported, 7},
      {StatusCode::kResourceExhausted, 8},
      {StatusCode::kInternal, 9},
      {StatusCode::kAborted, 10},
  };
  for (const auto& [code, wire] : frozen) {
    EXPECT_EQ(StatusCodeToWire(code), wire) << StatusCodeToString(code);
    StatusCode back;
    ASSERT_TRUE(StatusCodeFromWire(wire, &back)) << int{wire};
    EXPECT_EQ(back, code);
  }
  EXPECT_EQ(sizeof(frozen) / sizeof(frozen[0]), size_t{kMaxStatusWireCode} + 1)
      << "new StatusCode values must extend this table and the wire mapping";
  StatusCode unused;
  EXPECT_FALSE(StatusCodeFromWire(kMaxStatusWireCode + 1, &unused));
  EXPECT_FALSE(StatusCodeFromWire(0xFF, &unused));
}

// BUSY and ERROR frames carry the same payload shape; a shed request must
// decode to ResourceExhausted so clients can back off programmatically.
TEST(StatusWireTest, BusyDecodesToResourceExhausted) {
  std::string payload;
  EncodeErrorPayload(Status::ResourceExhausted("admission queue full"), &payload);
  std::string frame_bytes;
  EncodeFrame(Opcode::kBusy, 3, payload, &frame_bytes);

  FrameView frame;
  size_t consumed = 0;
  ASSERT_EQ(TryDecodeFrame(frame_bytes, &frame, &consumed, nullptr),
            FrameDecode::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kBusy);
  EXPECT_TRUE(DecodeErrorPayload(frame.payload).IsResourceExhausted());
}

// --- RESULT payloads: sql::ResultSet column blocks ---------------------------

using sql::ResultSet;
using storage::ColumnType;

// id INT, score REAL, name TEXT; NULLs in the last two when `with_nulls`.
ResultSet MixedResult(bool with_nulls) {
  ResultSet rs;
  rs.SetColumns({{"id", ColumnType::kInt64},
                 {"score", ColumnType::kDouble},
                 {"name", ColumnType::kText}});
  for (int64_t i = 0; i < 11; ++i) {
    rs.rows.AppendInt64(0, i - 5);
    if (with_nulls && i % 3 == 1) {
      rs.rows.AppendNull(1);
    } else {
      rs.rows.AppendDouble(1, 0.5 * static_cast<double>(i));
    }
    if (with_nulls && i % 4 == 2) {
      rs.rows.AppendNull(2);
    } else {
      rs.rows.AppendText(2, std::string(static_cast<size_t>(i), 'a' + i));
    }
  }
  rs.message = "note";
  return rs;
}

void ExpectSameResult(const ResultSet& a, const ResultSet& b) {
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(a.columns[c].name, b.columns[c].name);
    EXPECT_EQ(a.columns[c].type, b.columns[c].type);
  }
  EXPECT_EQ(a.affected_rows, b.affected_rows);
  EXPECT_EQ(a.message, b.message);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t r = 0; r < a.rows.size(); ++r) {
    for (size_t c = 0; c < a.columns.size(); ++c) {
      EXPECT_EQ(a.IsNull(r, c), b.IsNull(r, c)) << r << "," << c;
      EXPECT_EQ(a.rows.ValueAt(r, c), b.rows.ValueAt(r, c)) << r << "," << c;
    }
  }
}

TEST(ResultSetCodecTest, RoundTripsEveryColumnType) {
  for (bool with_nulls : {false, true}) {
    const ResultSet rs = MixedResult(with_nulls);
    std::string bytes;
    ASSERT_TRUE(rs.Encode(&bytes).ok());
    auto decoded = ResultSet::Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameResult(rs, *decoded);
    EXPECT_EQ(decoded->IsNull(1, 1), with_nulls);
    EXPECT_EQ(decoded->IsNull(2, 2), with_nulls);
    EXPECT_FALSE(decoded->IsNull(0, 0));
    EXPECT_EQ(decoded->Int64At(10, 0).ValueOrDie(), 5);
    EXPECT_EQ(decoded->DoubleAt(3, 1).ValueOrDie(), 1.5);
    EXPECT_EQ(decoded->DoubleAt(3, 0).ValueOrDie(), -2.0);  // INT widens
    EXPECT_EQ(decoded->TextAt(3, 2).ValueOrDie(), "ddd");
    EXPECT_FALSE(decoded->TextAt(0, 0).ok());  // wrong type
    EXPECT_FALSE(decoded->Int64At(11, 0).ok());  // past the end
    std::string again;
    ASSERT_TRUE(decoded->Encode(&again).ok());
    EXPECT_EQ(again, bytes);
  }
}

TEST(ResultSetCodecTest, NullsOnlyCostABitmapWhereTheyAre) {
  ResultSet plain = MixedResult(false);
  ResultSet cut = MixedResult(true);
  // Cutting every NULL away leaves no bitmap: same bytes as never-NULL rows.
  cut.rows.Truncate(1);
  plain.rows.Truncate(1);
  std::string a, b;
  ASSERT_TRUE(plain.Encode(&a).ok());
  ASSERT_TRUE(cut.Encode(&b).ok());
  EXPECT_EQ(a, b);
  // A NULL appended after a cut lands on its own row only.
  cut.rows.AppendInt64(0, 1);
  cut.rows.AppendDouble(1, 1.0);
  cut.rows.AppendNull(2);
  EXPECT_FALSE(cut.IsNull(0, 2));
  EXPECT_TRUE(cut.IsNull(1, 2));
  EXPECT_FALSE(cut.TextAt(1, 2).ok());
}

TEST(ResultSetCodecTest, ZeroRowsAndZeroColumns) {
  ResultSet dml;
  dml.affected_rows = 3;
  dml.message = "3 rows inserted";
  std::string bytes;
  ASSERT_TRUE(dml.Encode(&bytes).ok());
  auto decoded = ResultSet::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameResult(dml, *decoded);
  EXPECT_TRUE(decoded->rows.empty());

  ResultSet empty = MixedResult(true);
  empty.rows.Truncate(0);
  bytes.clear();
  ASSERT_TRUE(empty.Encode(&bytes).ok());
  decoded = ResultSet::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameResult(empty, *decoded);
  EXPECT_EQ(decoded->columns.size(), 3u);
}

TEST(ResultSetCodecTest, UnequalColumnsAreInternal) {
  ResultSet rs = MixedResult(false);
  rs.rows.AppendInt64(0, 99);  // one column a row ahead
  std::string bytes;
  EXPECT_TRUE(rs.Encode(&bytes).IsInternal());
  ResultSet undescribed;
  undescribed.columns = {{"id", ColumnType::kInt64}};  // no typed column laid out
  EXPECT_TRUE(undescribed.Encode(&bytes).IsInternal());
}

TEST(ResultSetCodecTest, Int64ColumnIsEightBytesPerRow) {
  // Guards against a fallback to one tagged value per cell.
  constexpr size_t kRows = 10000;
  ResultSet rs;
  rs.SetColumns({{"id", ColumnType::kInt64}});
  std::vector<int64_t> ids(kRows);
  for (size_t i = 0; i < kRows; ++i) ids[i] = static_cast<int64_t>(i * 7);
  rs.rows.AppendInt64s(0, ids);
  std::string bytes;
  ASSERT_TRUE(rs.Encode(&bytes).ok());
  EXPECT_LE(bytes.size(), 8 * kRows + 64);
  auto decoded = ResultSet::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->rows.size(), kRows);
  EXPECT_EQ(decoded->Int64At(kRows - 1, 0).ValueOrDie(), static_cast<int64_t>(7 * (kRows - 1)));
}

TEST(ResultSetCodecTest, EveryTruncationIsCorruption) {
  std::string bytes;
  ASSERT_TRUE(MixedResult(true).Encode(&bytes).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = ResultSet::Decode(std::string_view(bytes).substr(0, cut));
    EXPECT_TRUE(decoded.status().IsCorruption()) << "prefix length " << cut;
  }
}

// Byte offset of the row count in an encoding of `rs` (see result_set.h):
// tag, version, column count, (name, type) per column, affected_rows and
// the message come first.
size_t RowCountOffset(const ResultSet& rs) {
  size_t at = 4 + 1 + 4;
  for (const auto& col : rs.columns) at += 4 + col.name.size() + 1;
  return at + 8 + 4 + rs.message.size();
}

void Put64(std::string* bytes, size_t at, uint64_t v) { std::memcpy(&(*bytes)[at], &v, 8); }
void Put32(std::string* bytes, size_t at, uint32_t v) { std::memcpy(&(*bytes)[at], &v, 4); }

TEST(ResultSetCodecTest, ForgedCountsAreCorruptionWithoutAllocating) {
  // A count that were believed would allocate far more than the machine
  // has; Corruption (not bad_alloc) shows it was checked first.
  ResultSet ints;
  ints.SetColumns({{"id", ColumnType::kInt64}});
  ints.rows.AppendInt64(0, 1);
  std::string bytes;
  ASSERT_TRUE(ints.Encode(&bytes).ok());
  const size_t rows_at = RowCountOffset(ints);
  for (uint64_t forged : {uint64_t{2}, uint64_t{1} << 40, ~uint64_t{0}}) {
    std::string bad = bytes;
    Put64(&bad, rows_at, forged);
    EXPECT_TRUE(ResultSet::Decode(bad).status().IsCorruption()) << forged;
  }
  // A column block longer than the bytes left.
  std::string bad = bytes;
  Put64(&bad, rows_at + 8, uint64_t{1} << 50);
  EXPECT_TRUE(ResultSet::Decode(bad).status().IsCorruption());

  // A text length larger than the bytes left.
  ResultSet text;
  text.SetColumns({{"s", ColumnType::kText}});
  text.rows.AppendText(0, "abc");
  bytes.clear();
  ASSERT_TRUE(text.Encode(&bytes).ok());
  const size_t length_at = RowCountOffset(text) + 8 + 8 + 1;  // rows, block length, null flag
  bad = bytes;
  Put32(&bad, length_at, 0xFFFFFFF0u);
  EXPECT_TRUE(ResultSet::Decode(bad).status().IsCorruption());
  // Rows without columns.
  ResultSet none;
  bytes.clear();
  ASSERT_TRUE(none.Encode(&bytes).ok());
  Put64(&bytes, RowCountOffset(none), 5);
  EXPECT_TRUE(ResultSet::Decode(bytes).status().IsCorruption());
}

TEST(ResultSetCodecTest, RandomGarbageNeverCrashes) {
  // Byte soup, and valid encodings with random bytes overwritten: every
  // outcome is a result or Corruption, never a crash (ASan is the real
  // assertion) or an unbounded allocation.
  uint64_t state = 0x2545F4914F6CDD1Dull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::string valid;
  ASSERT_TRUE(MixedResult(true).Encode(&valid).ok());
  for (int round = 0; round < 2000; ++round) {
    std::string soup;
    if (round % 2 == 0) {
      const size_t n = next() % 96;
      for (size_t i = 0; i < n; ++i) soup.push_back(static_cast<char>(next()));
      if (round % 4 == 0 && soup.size() >= 5) {
        std::memcpy(&soup[0], valid.data(), 5);  // get past tag and version
      }
    } else {
      soup = valid;
      for (int k = 0; k < 1 + static_cast<int>(next() % 4); ++k) {
        soup[next() % soup.size()] = static_cast<char>(next());
      }
    }
    auto decoded = ResultSet::Decode(soup);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
    } else {
      std::string again;
      EXPECT_TRUE(decoded->Encode(&again).ok());
    }
  }
}

}  // namespace
}  // namespace hazy::rpc
