// Wire-protocol properties: every message round-trips byte-exactly, and no
// corruption of a valid frame — truncation at any byte, any single bit
// flip, version/type/length tampering, trailing bytes — decodes
// successfully. Run under ASan/UBSan these properties also certify the
// decoder never reads out of bounds.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/random.h"
#include "test_util.h"

namespace peercache::net {
namespace {

using proptest::Case;
using proptest::RunProperty;

AnyMessage DrawMessage(Case& c) {
  const uint64_t kind = c.Range("kind", 1, 6);
  switch (kind) {
    case 1: {
      LookupReq m;
      m.lookup_id = c.Range("lookup_id", 0, ~uint64_t{0});
      m.client = c.Range("client", 0, ~uint64_t{0});
      m.origin = c.Range("origin", 0, ~uint64_t{0});
      m.key = c.Range("key", 0, ~uint64_t{0});
      m.flags = static_cast<uint8_t>(c.Range("flags", 0, 1));
      return m;
    }
    case 2: {
      LookupStep m;
      m.lookup_id = c.Range("lookup_id", 0, ~uint64_t{0});
      m.client = c.Range("client", 0, ~uint64_t{0});
      m.origin = c.Range("origin", 0, ~uint64_t{0});
      m.flags = static_cast<uint8_t>(c.Range("flags", 0, 1));
      m.cursor.current = c.Range("current", 0, ~uint64_t{0});
      m.cursor.key = c.Range("ckey", 0, ~uint64_t{0});
      m.cursor.truth = c.Range("truth", 0, ~uint64_t{0});
      m.cursor.hops_taken = static_cast<uint32_t>(c.Range("hops_taken", 0, 300));
      m.cursor.spent = static_cast<uint32_t>(c.Range("spent", 0, 300));
      m.cursor.attempt = static_cast<uint32_t>(c.Range("attempt", 0, 300));
      m.cursor.flags = static_cast<uint8_t>(c.Range("cflags", 0, 3));
      m.route.flags = static_cast<uint8_t>(c.Range("rflags", 0, 3));
      m.route.hops = static_cast<uint32_t>(c.Range("rhops", 0, 300));
      m.route.latency_ms = c.Unit("latency") * 1e4;
      const uint64_t n_path = c.Range("n_path", 0, 8);
      for (uint64_t i = 0; i < n_path; ++i) {
        m.route.path.push_back(c.Range("path", 0, ~uint64_t{0}));
      }
      const uint64_t n_evict = c.Range("n_evict", 0, 4);
      for (uint64_t i = 0; i < n_evict; ++i) {
        m.route.dead_evictions.emplace_back(c.Range("holder", 0, ~uint64_t{0}),
                                            c.Range("entry", 0, ~uint64_t{0}));
      }
      const uint64_t n_hops = c.Range("n_hops", 0, 8);
      for (uint64_t i = 0; i < n_hops; ++i) {
        WireHop h;
        h.from = c.Range("from", 0, ~uint64_t{0});
        h.to = c.Range("to", 0, ~uint64_t{0});
        h.remaining = c.Range("remaining", 0, ~uint64_t{0});
        h.latency_ms = c.Unit("hop_latency") * 1e3;
        h.kind = static_cast<uint8_t>(c.Range("hkind", 0, 5));
        h.flags = static_cast<uint8_t>(c.Range("hflags", 0, 3));
        m.hops.push_back(h);
      }
      return m;
    }
    case 3: {
      LookupDone m;
      m.lookup_id = c.Range("lookup_id", 0, ~uint64_t{0});
      m.client = c.Range("client", 0, ~uint64_t{0});
      m.origin = c.Range("origin", 0, ~uint64_t{0});
      m.key = c.Range("key", 0, ~uint64_t{0});
      m.status = static_cast<uint8_t>(c.Range("status", 0, 3));
      m.flags = static_cast<uint8_t>(c.Range("flags", 0, 1));
      m.route.flags = static_cast<uint8_t>(c.Range("rflags", 0, 3));
      m.route.destination = c.Range("destination", 0, ~uint64_t{0});
      m.route.hops = static_cast<uint32_t>(c.Range("rhops", 0, 300));
      m.route.aux_hops = static_cast<uint32_t>(c.Range("aux_hops", 0, 300));
      m.route.retries = static_cast<uint32_t>(c.Range("retries", 0, 300));
      m.route.latency_ms = c.Unit("latency") * 1e4;
      const uint64_t n_path = c.Range("n_path", 0, 8);
      for (uint64_t i = 0; i < n_path; ++i) {
        m.route.path.push_back(c.Range("path", 0, ~uint64_t{0}));
      }
      return m;
    }
    case 4: {
      Join m;
      m.node_id = c.Range("node_id", 0, ~uint64_t{0});
      return m;
    }
    case 5: {
      Leave m;
      m.node_id = c.Range("node_id", 0, ~uint64_t{0});
      m.forget_state = static_cast<uint8_t>(c.Range("forget", 0, 1));
      return m;
    }
    default: {
      Stabilize m;
      m.node_id = c.Range("node_id", 0, ~uint64_t{0});
      return m;
    }
  }
}

TEST(WireTest, EncodeDecodeRoundTrips) {
  auto outcome = RunProperty(1, 400, [](Case& c) -> std::string {
    const AnyMessage msg = DrawMessage(c);
    const std::vector<uint8_t> frame = Encode(msg);
    auto decoded = Decode(std::span<const uint8_t>(frame));
    if (!decoded.ok()) return "decode failed: " + decoded.status().ToString();
    if (!(decoded.value() == msg)) return "round trip changed the message";
    return "";
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(WireTest, TruncationAtEveryByteRejected) {
  auto outcome = RunProperty(2, 120, [](Case& c) -> std::string {
    const AnyMessage msg = DrawMessage(c);
    const std::vector<uint8_t> frame = Encode(msg);
    for (size_t len = 0; len < frame.size(); ++len) {
      auto decoded = Decode(std::span<const uint8_t>(frame.data(), len));
      if (decoded.ok()) {
        return "accepted a frame truncated to " + std::to_string(len) +
               " of " + std::to_string(frame.size()) + " bytes";
      }
    }
    return "";
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(WireTest, SingleBitFlipRejected) {
  auto outcome = RunProperty(3, 150, [](Case& c) -> std::string {
    const AnyMessage msg = DrawMessage(c);
    std::vector<uint8_t> frame = Encode(msg);
    const uint64_t bit =
        c.Range("bit", 0, uint64_t{frame.size()} * 8 - 1);
    frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto decoded = Decode(std::span<const uint8_t>(frame));
    // The checksum covers type, length, and payload; flips in the magic or
    // version fields fail their own checks first. No flip may pass.
    if (decoded.ok()) {
      return "accepted a frame with bit " + std::to_string(bit) + " flipped";
    }
    return "";
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(WireTest, TrailingBytesRejected) {
  LookupReq req;
  req.lookup_id = 7;
  std::vector<uint8_t> frame = Encode(req);
  frame.push_back(0);
  EXPECT_FALSE(Decode(std::span<const uint8_t>(frame)).ok());
}

TEST(WireTest, BadVersionRejected) {
  std::vector<uint8_t> frame = Encode(Join{42});
  frame[4] ^= 0x01;  // version low byte
  EXPECT_FALSE(Decode(std::span<const uint8_t>(frame)).ok());
  EXPECT_FALSE(PeekType(std::span<const uint8_t>(frame)).ok());
}

TEST(WireTest, UnknownTypeRejected) {
  // Hand-build a frame with type 99 and a correct checksum: the decoder
  // must reject on the type whitelist, not the checksum.
  std::vector<uint8_t> frame;
  ByteWriter w(frame);
  w.U32(kWireMagic);
  w.U16(kWireVersion);
  w.U16(99);
  w.U32(0);  // empty payload
  const uint32_t crc =
      Crc32(std::span<const uint8_t>(frame.data() + 4, 8));
  w.U32(crc);
  EXPECT_FALSE(Decode(std::span<const uint8_t>(frame)).ok());
}

TEST(WireTest, UnknownHopKindRejected) {
  LookupStep step;
  step.flags = LookupStep::kFlagTraced;
  WireHop hop;
  hop.kind = 200;  // beyond HopEntryKind::kBucket
  step.hops.push_back(hop);
  const std::vector<uint8_t> frame = Encode(step);
  EXPECT_FALSE(Decode(std::span<const uint8_t>(frame)).ok());
}

TEST(WireTest, PeekTypeMatchesDecode) {
  const std::vector<uint8_t> frame = Encode(Stabilize{kAllNodes});
  auto type = PeekType(std::span<const uint8_t>(frame));
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), MessageType::kStabilize);
}

TEST(WireTest, Crc32Chains) {
  const std::vector<uint8_t> a = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> b = {6, 7, 8};
  std::vector<uint8_t> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());
  EXPECT_EQ(Crc32(std::span<const uint8_t>(ab)),
            Crc32(std::span<const uint8_t>(b),
                  Crc32(std::span<const uint8_t>(a))));
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// STEP and DONE share this route state: 2 path entries, 1 eviction.
WireRouteState GoldenRoute() {
  WireRouteState s;
  s.flags = WireRouteState::kFlagSuccess;
  s.destination = 0x1122334455667788ULL;
  s.hops = 3;
  s.aux_hops = 1;
  s.retries = 2;
  s.dropped_forwards = 1;
  s.failstop_skips = 4;
  s.stale_forwards = 5;
  s.latency_ms = 12.5;
  s.path = {0xA1, 0xB2C3};
  s.dead_evictions = {{0xD4, 0xE5F6}};
  return s;
}

WireHop GoldenHop() {
  WireHop h;
  h.from = 0x0102;
  h.to = 0x0304;
  h.remaining = 0x0506;
  h.latency_ms = 0.25;
  h.kind = static_cast<uint8_t>(HopEntryKind::kAuxiliary);
  h.flags = WireHop::kFlagRetried;
  return h;
}

// Pins the wire format: one frame of each type with fixed field values. A
// faster encoder or CRC must reproduce these bytes exactly.
TEST(WireTest, GoldenFrameBytes) {
  LookupReq req;
  req.lookup_id = 0x0123456789ABCDEFULL;
  req.client = kClientAddress;
  req.origin = 0x42;
  req.key = 0xFEDCBA9876543210ULL;
  req.flags = LookupReq::kFlagTraced;
  EXPECT_EQ(Hex(Encode(req)),
            "504357310100010021000000d662936fefcdab8967452301ffffffffffffffff"
            "42000000000000001032547698badcfe01");

  LookupStep step;
  step.lookup_id = 7;
  step.client = kClientAddress;
  step.origin = 0x42;
  step.flags = LookupStep::kFlagTraced;
  step.cursor.current = 0xA1;
  step.cursor.key = 0xFEDC;
  step.cursor.truth = 0xB2C3;
  step.cursor.hops_taken = 2;
  step.cursor.spent = 3;
  step.cursor.attempt = 1;
  step.cursor.flags = WireCursor::kFlagNumericMode;
  step.route = GoldenRoute();
  step.hops = {GoldenHop()};
  EXPECT_EQ(Hex(Encode(step)),
            "5043573101000200b50000008895dc5e0700000000000000ffffffffffffffff"
            "420000000000000001a100000000000000dcfe000000000000c3b20000000000"
            "0002000000030000000100000002018877665544332211030000000100000002"
            "000000010000000400000005000000000000000000294002000000a100000000"
            "000000c3b200000000000001000000d400000000000000f6e500000000000001"
            "0000000201000000000000040300000000000006050000000000000000000000"
            "00d03f0402");

  LookupDone done;
  done.lookup_id = 7;
  done.client = kClientAddress;
  done.origin = 0x42;
  done.key = 0xFEDC;
  done.status = static_cast<uint8_t>(LookupWireStatus::kOk);
  done.flags = LookupDone::kFlagTraced;
  done.route = GoldenRoute();
  done.hops = {GoldenHop()};
  EXPECT_EQ(Hex(Encode(done)),
            "5043573101000300990000007bc0c1d30700000000000000ffffffffffffffff"
            "4200000000000000dcfe00000000000000010188776655443322110300000001"
            "00000002000000010000000400000005000000000000000000294002000000a1"
            "00000000000000c3b200000000000001000000d400000000000000f6e5000000"
            "0000000100000002010000000000000403000000000000060500000000000000"
            "0000000000d03f0402");

  EXPECT_EQ(Hex(Encode(Join{0x99})),
            "504357310100040008000000fb8cbc6d9900000000000000");
  EXPECT_EQ(Hex(Encode(Leave{0x99, 1})),
            "5043573101000500090000006e4a6aeb990000000000000001");
  EXPECT_EQ(Hex(Encode(Stabilize{kAllNodes})),
            "504357310100060008000000f9e77bf8ffffffffffffffff");
}

/// Bit-at-a-time CRC-32 straight from the definition (reflected IEEE
/// polynomial, inverted in and out): an oracle that shares no table or
/// word-assembly code with Crc32.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(WireTest, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(std::span<const uint8_t>(
                reinterpret_cast<const uint8_t*>(check.data()), check.size())),
            0xCBF43926u);
  for (uint32_t seed : {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu}) {
    EXPECT_EQ(Crc32(std::span<const uint8_t>(), seed), seed);
  }
}

// Catches a CRC that is fast and self-consistent but wrong, which the
// round-trip and bit-flip properties cannot see: every length 0-600 at
// every start offset 0-7 matches the bit-at-a-time oracle under a random
// seed, and chaining at every split point gives the same value.
TEST(WireTest, Crc32MatchesBitwiseReference) {
  Rng rng(0x5eed);
  std::vector<uint8_t> buf(600 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t len = 0; len <= 600; ++len) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
      const uint8_t* data = buf.data() + offset;
      ASSERT_EQ(Crc32(std::span<const uint8_t>(data, len), seed),
                ReferenceCrc32(data, len, seed))
          << "len " << len << " offset " << offset << " seed " << seed;
    }
    const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
    const uint8_t* data = buf.data() + len % 8;
    const uint32_t whole = ReferenceCrc32(data, len, seed);
    for (size_t split = 0; split <= len; ++split) {
      const uint32_t head = Crc32(std::span<const uint8_t>(data, split), seed);
      ASSERT_EQ(Crc32(std::span<const uint8_t>(data + split, len - split),
                      head),
                whole)
          << "len " << len << " split " << split;
    }
  }
}

TEST(WireTest, RouteStatePackUnpackIsExact) {
  overlay::RouteResult r;
  r.success = true;
  r.destination = 0xdeadbeefULL;
  r.hops = 7;
  r.aux_hops = 2;
  r.latency_ms = 123.4567891011;
  r.path = {1, 2, 3};
  r.retries = 4;
  r.dropped_forwards = 1;
  r.failstop_skips = 2;
  r.stale_forwards = 1;
  r.budget_exhausted = false;
  r.dead_evictions = {{9, 10}};
  overlay::RouteResult back;
  UnpackRouteState(PackRouteState(r), back);
  EXPECT_EQ(back.success, r.success);
  EXPECT_EQ(back.destination, r.destination);
  EXPECT_EQ(back.hops, r.hops);
  EXPECT_EQ(back.aux_hops, r.aux_hops);
  EXPECT_EQ(back.latency_ms, r.latency_ms);  // bit pattern travels
  EXPECT_EQ(back.path, r.path);
  EXPECT_EQ(back.retries, r.retries);
  EXPECT_EQ(back.dropped_forwards, r.dropped_forwards);
  EXPECT_EQ(back.failstop_skips, r.failstop_skips);
  EXPECT_EQ(back.stale_forwards, r.stale_forwards);
  EXPECT_EQ(back.budget_exhausted, r.budget_exhausted);
  EXPECT_EQ(back.dead_evictions, r.dead_evictions);
}

}  // namespace
}  // namespace peercache::net
