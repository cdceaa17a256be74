// Wire-protocol properties: every message round-trips byte-exactly, every
// payload Decode accepts under a re-sealed checksum re-encodes to itself,
// and no corruption of a valid frame — truncation at any byte, any single
// bit flip, version/type/length tampering, trailing bytes — decodes
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

/// A counter anywhere in the u32 wire range: one of 2^31 or more decodes
/// negative and must still re-encode to its own bytes.
int DrawCount(Case& c, const char* name) {
  return static_cast<int>(c.Range(name, 0, 0xFFFFFFFFu));
}

overlay::RouteResult DrawRoute(Case& c) {
  overlay::RouteResult r;
  r.success = c.Range("success", 0, 1) != 0;
  r.budget_exhausted = c.Range("budget_exhausted", 0, 1) != 0;
  r.destination = c.Range("destination", 0, ~uint64_t{0});
  r.hops = DrawCount(c, "rhops");
  r.aux_hops = DrawCount(c, "aux_hops");
  r.retries = DrawCount(c, "retries");
  r.dropped_forwards = DrawCount(c, "dropped_forwards");
  r.failstop_skips = DrawCount(c, "failstop_skips");
  r.stale_forwards = DrawCount(c, "stale_forwards");
  r.latency_ms = c.Unit("latency") * 1e4;
  const uint64_t n_path = c.Range("n_path", 0, 8);
  for (uint64_t i = 0; i < n_path; ++i) {
    r.path.push_back(c.Range("path", 0, ~uint64_t{0}));
  }
  const uint64_t n_evict = c.Range("n_evict", 0, 4);
  for (uint64_t i = 0; i < n_evict; ++i) {
    r.dead_evictions.emplace_back(c.Range("holder", 0, ~uint64_t{0}),
                                  c.Range("entry", 0, ~uint64_t{0}));
  }
  return r;
}

std::vector<HopRecord> DrawHops(Case& c) {
  std::vector<HopRecord> hops(c.Range("n_hops", 0, 8));
  for (HopRecord& h : hops) {
    h.from = c.Range("from", 0, ~uint64_t{0});
    h.to = c.Range("to", 0, ~uint64_t{0});
    h.remaining = c.Range("remaining", 0, ~uint64_t{0});
    h.latency_ms = c.Unit("hop_latency") * 1e3;
    h.kind = static_cast<HopEntryKind>(c.Range("hkind", 0, 5));
    h.dropped = c.Range("dropped", 0, 1) != 0;
    h.retried = c.Range("retried", 0, 1) != 0;
  }
  return hops;
}

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
      m.cursor.hops_taken = DrawCount(c, "hops_taken");
      m.cursor.spent = DrawCount(c, "spent");
      m.cursor.attempt = DrawCount(c, "attempt");
      m.cursor.latch = c.Range("latch", 0, 1) != 0;
      m.resilient = c.Range("resilient", 0, 1) != 0;
      m.route = DrawRoute(c);
      m.hops = DrawHops(c);
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
      m.route = DrawRoute(c);
      m.hops = DrawHops(c);
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
    if (Encode(decoded.value()) != frame) return "re-encoding changed bytes";
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
  HopRecord hop;
  hop.kind = static_cast<HopEntryKind>(200);  // beyond kBucket
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
overlay::RouteResult GoldenRoute() {
  overlay::RouteResult r;
  r.success = true;
  r.destination = 0x1122334455667788ULL;
  r.hops = 3;
  r.aux_hops = 1;
  r.retries = 2;
  r.dropped_forwards = 1;
  r.failstop_skips = 4;
  r.stale_forwards = 5;
  r.latency_ms = 12.5;
  r.path = {0xA1, 0xB2C3};
  r.dead_evictions = {{0xD4, 0xE5F6}};
  return r;
}

HopRecord GoldenHop() {
  HopRecord h;
  h.from = 0x0102;
  h.to = 0x0304;
  h.remaining = 0x0506;
  h.latency_ms = 0.25;
  h.kind = HopEntryKind::kAuxiliary;
  h.retried = true;
  return h;
}

/// The traced STEP and DONE that GoldenFrameBytes pins.
LookupStep GoldenStep() {
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
  step.cursor.latch = true;
  step.route = GoldenRoute();
  step.hops = {GoldenHop()};
  return step;
}

LookupDone GoldenDone() {
  LookupDone done;
  done.lookup_id = 7;
  done.client = kClientAddress;
  done.origin = 0x42;
  done.key = 0xFEDC;
  done.status = static_cast<uint8_t>(LookupWireStatus::kOk);
  done.flags = LookupDone::kFlagTraced;
  done.route = GoldenRoute();
  done.hops = {GoldenHop()};
  return done;
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

  EXPECT_EQ(Hex(Encode(GoldenStep())),
            "5043573101000200b50000008895dc5e0700000000000000ffffffffffffffff"
            "420000000000000001a100000000000000dcfe000000000000c3b20000000000"
            "0002000000030000000100000002018877665544332211030000000100000002"
            "000000010000000400000005000000000000000000294002000000a100000000"
            "000000c3b200000000000001000000d400000000000000f6e500000000000001"
            "0000000201000000000000040300000000000006050000000000000000000000"
            "00d03f0402");

  EXPECT_EQ(Hex(Encode(GoldenDone())),
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

// Every frame Decode accepts re-encodes to itself, so no byte of a STEP or
// DONE is silently rewritten on its way through an actor. Each payload
// byte of the golden frames takes each of its 256 values under a re-sealed
// checksum: the decoder rejects the frame (an unknown flag bit, hop kind
// or status, a count that no longer fits) or returns a message whose
// encoding is exactly the mutated bytes.
TEST(WireTest, AcceptedMutationsReEncodeExactly) {
  for (const AnyMessage& golden : {AnyMessage{GoldenStep()},
                                   AnyMessage{GoldenDone()}}) {
    const std::vector<uint8_t> frame = Encode(golden);
    size_t accepted = 0;
    for (size_t at = kWireHeaderSize; at < frame.size(); ++at) {
      for (int value = 0; value < 256; ++value) {
        std::vector<uint8_t> mutated = frame;
        mutated[at] = static_cast<uint8_t>(value);
        const std::span<const uint8_t> bytes(mutated);
        const uint32_t crc = Crc32(bytes.subspan(kWireHeaderSize),
                                   Crc32(bytes.subspan(4, 8)));
        for (int i = 0; i < 4; ++i) {
          mutated[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
        }
        auto decoded = Decode(bytes);
        if (!decoded.ok()) continue;
        ++accepted;
        const std::vector<uint8_t> again = Encode(decoded.value());
        if (again != mutated) {
          FAIL() << "type " << golden.index() << " byte " << at << " value "
                 << value << ": " << Hex(mutated) << " re-encodes as "
                 << Hex(again);
        }
      }
    }
    // Ids, counters and latency bits take any value, so most mutations
    // decode: the property is not vacuous.
    EXPECT_GT(accepted, (frame.size() - kWireHeaderSize) * 200)
        << "type " << golden.index();
  }
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

}  // namespace
}  // namespace peercache::net
