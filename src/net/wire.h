#ifndef PEERCACHE_NET_WIRE_H_
#define PEERCACHE_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/status.h"
#include "common/trace.h"

/// Compact binary wire protocol for the message-driven runtime (cf.
/// pettycoin's protocol_net.h): fixed-layout little-endian fields behind a
/// versioned, checksummed frame header. The payload vocabulary is exactly
/// the repo's existing telemetry vocabulary — HopEntryKind, RouteResult
/// counters, RouteTrace hop records — so every figure and resilience/latency
/// block is derivable from a message log alone. Encoding writes bytes
/// explicitly (no struct memcpy), so layout is identical on every host;
/// decoding is bounds-checked at each field and rejects truncation, bad
/// magic/version/type, length mismatches, trailing garbage, and checksum
/// failures without ever reading out of bounds. See docs/RUNTIME.md.
namespace peercache::net {

/// Frame magic: "PCW1" read as bytes on the wire.
inline constexpr uint32_t kWireMagic = 0x31574350u;
inline constexpr uint16_t kWireVersion = 1;
/// Frame header size: magic u32, version u16, type u16, payload_len u32,
/// checksum u32.
inline constexpr size_t kWireHeaderSize = 16;
/// Hard payload cap (1 MiB): a length field beyond this is rejected before
/// any allocation, bounding adversarial memory use.
inline constexpr uint32_t kMaxPayloadLen = 1u << 20;

/// Reserved bus address for the runtime's client endpoint (lookup issuer);
/// node ids live in the id space (< 2^bits) and can never collide with it.
inline constexpr uint64_t kClientAddress = ~uint64_t{0};
/// STABILIZE target meaning "every live node".
inline constexpr uint64_t kAllNodes = ~uint64_t{0};

enum class MessageType : uint16_t {
  kLookupReq = 1,
  kLookupStep = 2,
  kLookupDone = 3,
  kJoin = 4,
  kLeave = 5,
  kStabilize = 6,
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slicing-by-8: eight
/// 256-entry tables fold eight bytes per step, assembled with explicit
/// little-endian shifts, so the value is the same on every host. `seed`
/// chains incremental updates: Crc32(b, Crc32(a)) == Crc32(a ++ b).
uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed = 0);

/// Appends little-endian primitives to a byte buffer, one whole field per
/// call.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) { Put<2>(v); }
  void U32(uint32_t v) { Put<4>(v); }
  void U64(uint64_t v) { Put<8>(v); }
  /// Doubles travel as their IEEE-754 bit pattern, so a round trip is exact
  /// to the bit (latency sums stay byte-comparable against the direct path).
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

 private:
  template <size_t N>
  void Put(uint64_t v) {
    const size_t at = out_.size();
    out_.resize(at + N);
    uint8_t* p = out_.data() + at;
    for (size_t i = 0; i < N; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }

  std::vector<uint8_t>& out_;
};

/// Bounds-checked little-endian reader: every accessor reports failure
/// instead of reading past the end, and decode routines require the cursor
/// to land exactly on the payload boundary.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> buf)
      : data_(buf.data()), size_(buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  bool U8(uint8_t& v) {
    if (remaining() < 1) return false;
    v = data_[pos_++];
    return true;
  }
  bool U16(uint16_t& v) {
    if (remaining() < 2) return false;
    v = static_cast<uint16_t>(data_[pos_] |
                              (static_cast<uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }
  bool U32(uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool F64(double& v) {
    uint64_t bits;
    if (!U64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// LOOKUP_REQ — client asks `origin` to resolve `key`. flags bit 0 requests
/// a per-hop trace to travel with the route.
struct LookupReq {
  uint64_t lookup_id = 0;
  uint64_t client = kClientAddress;
  uint64_t origin = 0;
  uint64_t key = 0;
  uint8_t flags = 0;

  static constexpr uint8_t kFlagTraced = 1u << 0;
  bool traced() const { return (flags & kFlagTraced) != 0; }

  friend bool operator==(const LookupReq&, const LookupReq&) = default;
};

/// LOOKUP_STEP — a suspended lookup handed to the next node: the routing
/// kernel's own cursor, route state and hop log, exactly as the sender's
/// visit left them. Self-contained: telemetry for the route needs nothing
/// but this message chain.
struct LookupStep {
  uint64_t lookup_id = 0;
  uint64_t client = kClientAddress;
  uint64_t origin = 0;
  uint8_t flags = 0;  // bit 0: traced (hop log travels)
  /// Only the plain fields travel: the node-record hint and `done` bit stay
  /// behind, since a STEP exists only while its route is live.
  overlay::RouteCursor cursor;
  /// The sender's routing policy: set exactly when its host routes under an
  /// enabled fault plan.
  bool resilient = false;
  overlay::RouteResult route;
  std::vector<HopRecord> hops;  // present when traced

  static constexpr uint8_t kFlagTraced = 1u << 0;
  bool traced() const { return (flags & kFlagTraced) != 0; }
};

/// LOOKUP_DONE — final answer back to the client. status 0 is success-path
/// (route ran to completion; route.success says whether it delivered);
/// non-zero mirrors the direct call's error statuses.
struct LookupDone {
  uint64_t lookup_id = 0;
  uint64_t client = kClientAddress;
  uint64_t origin = 0;
  uint64_t key = 0;
  uint8_t status = 0;  // LookupWireStatus
  uint8_t flags = 0;   // bit 0: traced
  overlay::RouteResult route;
  std::vector<HopRecord> hops;

  static constexpr uint8_t kFlagTraced = 1u << 0;
  bool traced() const { return (flags & kFlagTraced) != 0; }
};

enum class LookupWireStatus : uint8_t {
  kOk = 0,
  kOriginNotAlive = 1,
  kEmptyOverlay = 2,
  kProtocolError = 3,
};

struct Join {
  uint64_t node_id = 0;
  friend bool operator==(const Join&, const Join&) = default;
};

struct Leave {
  uint64_t node_id = 0;
  uint8_t forget_state = 0;  // nonzero: drop frequencies and tables too
  friend bool operator==(const Leave&, const Leave&) = default;
};

struct Stabilize {
  uint64_t node_id = kAllNodes;  // kAllNodes = every live node
  friend bool operator==(const Stabilize&, const Stabilize&) = default;
};

using AnyMessage =
    std::variant<LookupReq, LookupStep, LookupDone, Join, Leave, Stabilize>;

/// Encodes one message into a framed wire buffer (header + payload), built
/// in one exactly-sized allocation.
std::vector<uint8_t> Encode(const LookupReq& msg);
std::vector<uint8_t> Encode(const LookupStep& msg);
std::vector<uint8_t> Encode(const LookupDone& msg);
std::vector<uint8_t> Encode(const Join& msg);
std::vector<uint8_t> Encode(const Leave& msg);
std::vector<uint8_t> Encode(const Stabilize& msg);
std::vector<uint8_t> Encode(const AnyMessage& msg);

/// Validates the frame header (magic, version, known type, exact length,
/// checksum) and returns the message type without touching the payload.
Result<MessageType> PeekType(std::span<const uint8_t> frame);

/// Decodes a full frame. Any malformed input — truncated at any byte,
/// flipped bits, unknown version or type, payload longer or shorter than
/// its fields, trailing bytes, an unknown hop kind or an unknown bit in a
/// cursor, route-state or hop flag byte — yields a non-OK status, never UB.
/// Every frame it accepts re-encodes to the same bytes. Counters are u32 on
/// the wire and read back modulo 2^32 into the kernel's ints, so one of
/// 2^31 or more decodes negative; ActorHost rejects it.
Result<AnyMessage> Decode(std::span<const uint8_t> frame);

}  // namespace peercache::net

#endif  // PEERCACHE_NET_WIRE_H_
