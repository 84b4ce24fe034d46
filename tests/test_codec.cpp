// util/codec + net/messages coverage: every encode/decode pair round-trips
// field-for-field, and — the header's promise — truncated or
// length-corrupted frames raise CodecError instead of reading garbage.
// Every strict prefix of every frame kind must throw: a frame's decoder
// consumes the full buffer, so any cut lands mid-field or before a
// required field.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/messages.hpp"
#include "util/codec.hpp"

namespace {

using poly::net::Header;
using poly::net::MsgType;
using poly::net::WireDescriptor;
using poly::net::WirePeer;
using poly::net::WirePoint;
using poly::space::Point;
using poly::util::ByteReader;
using poly::util::ByteWriter;
using poly::util::CodecError;

/// Decodes one full frame of any message kind, dispatching on the header
/// type exactly as AsyncNode::on_message does, and requires the frame to be
/// fully consumed.
void decode_any(const std::vector<std::uint8_t>& frame) {
  ByteReader r(frame);
  const Header h = poly::net::decode_header(r);
  switch (h.type) {
    case MsgType::kRpsShuffleReq:
    case MsgType::kRpsShuffleResp:
      poly::net::decode_peers(r);
      break;
    case MsgType::kTmanReq:
    case MsgType::kTmanResp:
      poly::net::decode_descriptors(r);
      break;
    case MsgType::kBackupPush:
      poly::net::decode_points(r);
      break;
    case MsgType::kMigrateReq:
      poly::net::decode_point(r);
      poly::net::decode_points(r);
      break;
    case MsgType::kMigrateResp:
      r.u8();
      poly::net::decode_points(r);
      break;
  }
  if (!r.done()) throw CodecError("decode_any: trailing bytes");
}

/// Every strict prefix of `frame` must fail to decode.
void expect_truncations_throw(const std::vector<std::uint8_t>& frame) {
  ASSERT_NO_THROW(decode_any(frame));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<std::uint8_t> truncated(frame.begin(), frame.begin() + cut);
    EXPECT_THROW(decode_any(truncated), CodecError)
        << "prefix of " << cut << "/" << frame.size()
        << " bytes decoded without error";
  }
}

const Header kHeader{MsgType::kBackupPush, 42, "10.0.0.1:4242"};
const std::vector<WirePeer> kPeers{{2, "addr-2", 3, Point(4.0, -1.0), 7},
                                   {5, "addr-5", 0, Point(), 0}};
const std::vector<WireDescriptor> kDescriptors{
    {9, "addr-9", Point(1.5, 2.5), 12}, {10, "addr-10", Point(7.0), 1}};
const std::vector<WirePoint> kPoints{{100, Point(1, 1)},
                                     {101, Point(2.5, -3.5)}};

// ---- round-trips ------------------------------------------------------------

TEST(Codec, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-2.75);
  w.str("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -2.75);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), CodecError);  // reading past the end
}

TEST(Codec, HeaderRoundTrip) {
  ByteWriter w;
  poly::net::encode_header(w, kHeader);
  ByteReader r(w.data());
  const Header h = poly::net::decode_header(r);
  EXPECT_EQ(h.type, kHeader.type);
  EXPECT_EQ(h.sender, kHeader.sender);
  EXPECT_EQ(h.sender_addr, kHeader.sender_addr);
  EXPECT_TRUE(r.done());
}

TEST(Codec, PeersRoundTrip) {
  ByteWriter w;
  poly::net::encode_peers(w, kPeers);
  ByteReader r(w.data());
  const auto peers = poly::net::decode_peers(r);
  ASSERT_EQ(peers.size(), kPeers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ(peers[i].id, kPeers[i].id);
    EXPECT_EQ(peers[i].addr, kPeers[i].addr);
    EXPECT_EQ(peers[i].age, kPeers[i].age);
    EXPECT_EQ(peers[i].pos.dim, kPeers[i].pos.dim);
    EXPECT_EQ(peers[i].pos.c, kPeers[i].pos.c);
    EXPECT_EQ(peers[i].version, kPeers[i].version);
  }
}

TEST(Codec, DescriptorsRoundTrip) {
  ByteWriter w;
  poly::net::encode_descriptors(w, kDescriptors);
  ByteReader r(w.data());
  const auto ds = poly::net::decode_descriptors(r);
  ASSERT_EQ(ds.size(), kDescriptors.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds[i].id, kDescriptors[i].id);
    EXPECT_EQ(ds[i].addr, kDescriptors[i].addr);
    EXPECT_EQ(ds[i].pos, kDescriptors[i].pos);
    EXPECT_EQ(ds[i].version, kDescriptors[i].version);
  }
}

TEST(Codec, PointsRoundTrip) {
  ByteWriter w;
  poly::net::encode_points(w, kPoints);
  ByteReader r(w.data());
  const auto pts = poly::net::decode_points(r);
  ASSERT_EQ(pts.size(), kPoints.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].id, kPoints[i].id);
    EXPECT_EQ(pts[i].pos, kPoints[i].pos);
  }
}

TEST(Codec, PointRoundTripAllDimensions) {
  for (const Point p : {Point(1.0), Point(1.0, 2.0), Point(1.0, 2.0, 3.0)}) {
    ByteWriter w;
    poly::net::encode_point(w, p);
    ByteReader r(w.data());
    EXPECT_EQ(poly::net::decode_point(r), p);
    EXPECT_TRUE(r.done());
  }
}

TEST(Codec, MigrateReqRoundTrip) {
  const auto frame = poly::net::encode_migrate_req(
      Header{MsgType::kMigrateReq, 3, "me"}, Point(4.0, 5.0), kPoints);
  ByteReader r(frame);
  const Header h = poly::net::decode_header(r);
  EXPECT_EQ(h.type, MsgType::kMigrateReq);
  EXPECT_EQ(poly::net::decode_point(r), Point(4.0, 5.0));
  EXPECT_EQ(poly::net::decode_points(r).size(), kPoints.size());
  EXPECT_TRUE(r.done());
}

TEST(Codec, MigrateRespRoundTrip) {
  for (const bool accepted : {true, false}) {
    const auto frame = poly::net::encode_migrate_resp(
        Header{MsgType::kMigrateResp, 3, "me"}, accepted, kPoints);
    ByteReader r(frame);
    poly::net::decode_header(r);
    EXPECT_EQ(r.u8(), accepted ? 1 : 0);
    EXPECT_EQ(poly::net::decode_points(r).size(), kPoints.size());
    EXPECT_TRUE(r.done());
  }
}

TEST(Codec, PeekTypeMatchesHeader) {
  const auto frame = poly::net::encode_rps(
      Header{MsgType::kRpsShuffleResp, 1, "a"}, kPeers);
  EXPECT_EQ(poly::net::peek_type(frame), MsgType::kRpsShuffleResp);
}

// ---- truncation: every strict prefix of every frame kind throws -------------

TEST(CodecTruncation, RpsFrame) {
  expect_truncations_throw(
      poly::net::encode_rps(Header{MsgType::kRpsShuffleReq, 1, "a"}, kPeers));
}

TEST(CodecTruncation, TmanFrame) {
  expect_truncations_throw(poly::net::encode_tman(
      Header{MsgType::kTmanReq, 7, "addr"}, kDescriptors));
}

TEST(CodecTruncation, BackupPushFrame) {
  expect_truncations_throw(poly::net::encode_backup_push(kHeader, kPoints));
}

TEST(CodecTruncation, MigrateReqFrame) {
  expect_truncations_throw(poly::net::encode_migrate_req(
      Header{MsgType::kMigrateReq, 3, "me"}, Point(4.0, 5.0), kPoints));
}

TEST(CodecTruncation, MigrateRespFrame) {
  expect_truncations_throw(poly::net::encode_migrate_resp(
      Header{MsgType::kMigrateResp, 3, "me"}, true, kPoints));
}

TEST(CodecTruncation, EmptyListsStillRejectTruncation) {
  expect_truncations_throw(
      poly::net::encode_rps(Header{MsgType::kRpsShuffleReq, 1, ""}, {}));
  expect_truncations_throw(poly::net::encode_backup_push(kHeader, {}));
}

// ---- corruption -------------------------------------------------------------

TEST(CodecCorruption, ImplausibleListLengthThrowsWithoutAllocating) {
  for (const auto decode :
       {+[](ByteReader& r) { poly::net::decode_peers(r); },
        +[](ByteReader& r) { poly::net::decode_descriptors(r); },
        +[](ByteReader& r) { poly::net::decode_points(r); }}) {
    ByteWriter w;
    w.u32(0xffffffffu);  // count far beyond the buffer
    ByteReader r(w.data());
    EXPECT_THROW(decode(r), CodecError);
  }
}

TEST(CodecCorruption, OversizedCountWithPlausiblePrefix) {
  // A count that passes the sanity bound but exceeds the actual payload
  // must fail while reading elements, not read garbage.
  ByteWriter w;
  poly::net::encode_points(w, kPoints);
  auto frame = w.take();
  frame[0] = 200;  // claim 200 points; only 2 are present
  ByteReader r(frame);
  EXPECT_THROW(poly::net::decode_points(r), CodecError);
}

TEST(CodecCorruption, CorruptStringLengthThrows) {
  ByteWriter w;
  w.str("address");
  auto buf = w.take();
  buf[0] = 0xff;  // string claims to be much longer than the buffer
  buf[1] = 0xff;
  ByteReader r(buf);
  EXPECT_THROW(r.str(), CodecError);
}

TEST(CodecCorruption, OverlongAddressThrows) {
  // Header, peer and descriptor addresses are bounded by the capacity of
  // the runtime's inline view names.
  const std::string fits(poly::net::kMaxAddressLength, 'a');
  const std::string overlong(poly::net::kMaxAddressLength + 1, 'a');
  const Point p(1.0, 2.0);
  for (const std::string* addr : {&fits, &overlong}) {
    const bool ok = addr == &fits;
    const auto header = poly::net::encode_tman(
        Header{MsgType::kTmanReq, 1, *addr}, kDescriptors);
    const auto peer = poly::net::encode_rps(
        Header{MsgType::kRpsShuffleReq, 1, "a"}, {{2, *addr, 0, p, 1}});
    const auto descriptor = poly::net::encode_tman(
        Header{MsgType::kTmanResp, 1, "a"}, {{3, *addr, p, 1}});
    for (const auto* frame : {&header, &peer, &descriptor}) {
      if (ok)
        EXPECT_NO_THROW(decode_any(*frame));
      else
        EXPECT_THROW(decode_any(*frame), CodecError);
    }
  }
}

TEST(CodecCorruption, BadPointDimensionThrows) {
  for (const std::uint8_t dim : {0, 4, 255}) {
    ByteWriter w;
    w.u8(dim);
    for (int i = 0; i < 3; ++i) w.f64(0.0);
    ByteReader r(w.data());
    EXPECT_THROW(poly::net::decode_point(r), CodecError);
  }
}

TEST(CodecCorruption, UnknownMessageTypeThrows) {
  for (const std::uint8_t type : {0, 8, 0xff}) {
    ByteWriter w;
    w.u8(type);
    w.u64(1);
    w.str("a");
    ByteReader r(w.data());
    EXPECT_THROW(poly::net::decode_header(r), CodecError);
    EXPECT_THROW(poly::net::peek_type(w.data()), CodecError);
  }
  EXPECT_THROW(poly::net::peek_type({}), CodecError);
}

TEST(CodecCorruption, CodecErrorIsARuntimeError) {
  // Callers (AsyncNode::on_message) catch CodecError specifically; make
  // sure the hierarchy holds.
  try {
    throw CodecError("boom");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

}  // namespace
