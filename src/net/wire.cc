#include "net/wire.h"

#include <array>
#include <cassert>

namespace peercache::net {

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the bytewise table of the
/// reflected polynomial, and kCrcTables[k][b] is the CRC of byte b followed
/// by k zero bytes, so one step folds eight input bytes with eight lookups.
constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}();

/// Little-endian 32-bit field at `p`, assembled byte by byte.
uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void StoreLE32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

// Fixed payload sizes in bytes; the variable parts add per element.
constexpr size_t kReqPayload = 33;        // 4 x u64, flags
constexpr size_t kStepFixedPayload = 62;  // 3 x u64, flags, cursor (37)
constexpr size_t kDoneFixedPayload = 34;  // 4 x u64, status, flags
constexpr size_t kNodePayload = 8;        // JOIN and STABILIZE: node id
constexpr size_t kLeavePayload = 9;       // node id, forget_state
constexpr size_t kRouteStateFixed = 49;   // flags, u64, 6 x u32, f64, 2 counts
constexpr size_t kHopSize = 34;           // 3 x u64, f64, kind, flags
constexpr size_t kEvictionSize = 16;      // holder, entry

size_t RouteStateSize(const overlay::RouteResult& s) {
  return kRouteStateFixed + 8 * s.path.size() +
         kEvictionSize * s.dead_evictions.size();
}

size_t HopsSize(const std::vector<HopRecord>& hops) {
  return 4 + kHopSize * hops.size();
}

// The cursor, route-state and hop flag bytes each hold two bools, in bits
// 0 and 1: (resilient, latch), (success, budget_exhausted) and (dropped,
// retried). Any other bit is a corrupt or future frame, so a decoded frame
// always re-encodes to itself.
void WriteFlags(ByteWriter& w, bool bit0, bool bit1) {
  w.U8(static_cast<uint8_t>((bit0 ? 1u : 0u) | (bit1 ? 2u : 0u)));
}

bool ReadFlags(ByteReader& r, bool& bit0, bool& bit1) {
  uint8_t flags;
  if (!r.U8(flags) || flags > 3) return false;
  bit0 = (flags & 1u) != 0;
  bit1 = (flags & 2u) != 0;
  return true;
}

// Counters travel as u32. One of 2^31 or more reads back negative (C++20
// conversion is modular) and re-encodes to the same bytes; the actor, not
// the decoder, decides which counters a live route can carry.
void WriteCount(ByteWriter& w, int v) { w.U32(static_cast<uint32_t>(v)); }

bool ReadCount(ByteReader& r, int& v) {
  uint32_t u;
  if (!r.U32(u)) return false;
  v = static_cast<int>(u);
  return true;
}

void WriteU64Vector(ByteWriter& w, const std::vector<uint64_t>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (uint64_t x : v) w.U64(x);
}

bool ReadU64Vector(ByteReader& r, std::vector<uint64_t>& v) {
  uint32_t count;
  if (!r.U32(count)) return false;
  if (static_cast<size_t>(count) * 8 > r.remaining()) return false;
  v.clear();
  v.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t x;
    if (!r.U64(x)) return false;
    v.push_back(x);
  }
  return true;
}

void WriteRouteState(ByteWriter& w, const overlay::RouteResult& s) {
  WriteFlags(w, s.success, s.budget_exhausted);
  w.U64(s.destination);
  WriteCount(w, s.hops);
  WriteCount(w, s.aux_hops);
  WriteCount(w, s.retries);
  WriteCount(w, s.dropped_forwards);
  WriteCount(w, s.failstop_skips);
  WriteCount(w, s.stale_forwards);
  w.F64(s.latency_ms);
  WriteU64Vector(w, s.path);
  w.U32(static_cast<uint32_t>(s.dead_evictions.size()));
  for (const auto& [holder, entry] : s.dead_evictions) {
    w.U64(holder);
    w.U64(entry);
  }
}

bool ReadRouteState(ByteReader& r, overlay::RouteResult& s) {
  if (!ReadFlags(r, s.success, s.budget_exhausted) || !r.U64(s.destination) ||
      !ReadCount(r, s.hops) || !ReadCount(r, s.aux_hops) ||
      !ReadCount(r, s.retries) || !ReadCount(r, s.dropped_forwards) ||
      !ReadCount(r, s.failstop_skips) || !ReadCount(r, s.stale_forwards) ||
      !r.F64(s.latency_ms) || !ReadU64Vector(r, s.path)) {
    return false;
  }
  uint32_t count;
  if (!r.U32(count)) return false;
  if (static_cast<size_t>(count) * kEvictionSize > r.remaining()) {
    return false;
  }
  s.dead_evictions.clear();
  s.dead_evictions.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t holder, entry;
    if (!r.U64(holder) || !r.U64(entry)) return false;
    s.dead_evictions.emplace_back(holder, entry);
  }
  return true;
}

void WriteCursor(ByteWriter& w, const overlay::RouteCursor& c,
                 bool resilient) {
  w.U64(c.current);
  w.U64(c.key);
  w.U64(c.truth);
  WriteCount(w, c.hops_taken);
  WriteCount(w, c.spent);
  WriteCount(w, c.attempt);
  WriteFlags(w, resilient, c.latch);
}

bool ReadCursor(ByteReader& r, overlay::RouteCursor& c, bool& resilient) {
  return r.U64(c.current) && r.U64(c.key) && r.U64(c.truth) &&
         ReadCount(r, c.hops_taken) && ReadCount(r, c.spent) &&
         ReadCount(r, c.attempt) && ReadFlags(r, resilient, c.latch);
}

void WriteHops(ByteWriter& w, const std::vector<HopRecord>& hops) {
  w.U32(static_cast<uint32_t>(hops.size()));
  for (const HopRecord& h : hops) {
    w.U64(h.from);
    w.U64(h.to);
    w.U64(h.remaining);
    w.F64(h.latency_ms);
    w.U8(static_cast<uint8_t>(h.kind));
    WriteFlags(w, h.dropped, h.retried);
  }
}

bool ReadHops(ByteReader& r, std::vector<HopRecord>& hops) {
  uint32_t count;
  if (!r.U32(count)) return false;
  if (static_cast<size_t>(count) * kHopSize > r.remaining()) return false;
  hops.clear();
  hops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HopRecord h;
    uint8_t kind;
    if (!r.U64(h.from) || !r.U64(h.to) || !r.U64(h.remaining) ||
        !r.F64(h.latency_ms) || !r.U8(kind) ||
        !ReadFlags(r, h.dropped, h.retried)) {
      return false;
    }
    // Entry kinds are part of the schema: an unknown kind is a corrupt or
    // future frame, not something to propagate into telemetry.
    if (kind > static_cast<uint8_t>(HopEntryKind::kBucket)) return false;
    h.kind = static_cast<HopEntryKind>(kind);
    hops.push_back(h);
  }
  return true;
}

/// Builds one frame in a single exactly-sized buffer: the header goes in
/// with zero payload_len and checksum, `write_payload` appends the payload,
/// and both fields are then patched in place. The checksum covers version,
/// type, payload_len, and the payload (everything after the magic except
/// the checksum field itself).
template <typename WritePayload>
std::vector<uint8_t> BuildFrame(MessageType type, size_t payload_len,
                                WritePayload&& write_payload) {
  std::vector<uint8_t> out;
  out.reserve(kWireHeaderSize + payload_len);
  ByteWriter w(out);
  w.U32(kWireMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<uint16_t>(type));
  w.U32(0);  // payload_len, patched below
  w.U32(0);  // checksum, patched below
  write_payload(w);
  assert(out.size() == kWireHeaderSize + payload_len);
  StoreLE32(out.data() + 8,
            static_cast<uint32_t>(out.size() - kWireHeaderSize));
  const std::span<const uint8_t> frame(out);
  StoreLE32(out.data() + 12, Crc32(frame.subspan(kWireHeaderSize),
                                   Crc32(frame.subspan(4, 8))));
  return out;
}

bool KnownType(uint16_t t) {
  return t >= static_cast<uint16_t>(MessageType::kLookupReq) &&
         t <= static_cast<uint16_t>(MessageType::kStabilize);
}

/// Header validation shared by PeekType and Decode.
Status CheckFrame(std::span<const uint8_t> frame, MessageType& type) {
  if (frame.size() < kWireHeaderSize) {
    return Status::InvalidArgument("wire: frame shorter than header");
  }
  // The size check above guarantees every read succeeds; the fields start
  // at zero so no path reads them uninitialized.
  ByteReader r(frame.data(), kWireHeaderSize);
  uint32_t magic = 0, payload_len = 0, checksum = 0;
  uint16_t version = 0, raw_type = 0;
  (void)r.U32(magic);
  (void)r.U16(version);
  (void)r.U16(raw_type);
  (void)r.U32(payload_len);
  (void)r.U32(checksum);
  if (magic != kWireMagic) return Status::InvalidArgument("wire: bad magic");
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported version");
  }
  if (!KnownType(raw_type)) {
    return Status::InvalidArgument("wire: unknown message type");
  }
  if (payload_len > kMaxPayloadLen) {
    return Status::InvalidArgument("wire: payload length over cap");
  }
  if (frame.size() != kWireHeaderSize + payload_len) {
    return Status::InvalidArgument("wire: frame length mismatch");
  }
  const uint32_t expect =
      Crc32(frame.subspan(kWireHeaderSize), Crc32(frame.subspan(4, 8)));
  if (checksum != expect) {
    return Status::InvalidArgument("wire: checksum mismatch");
  }
  type = static_cast<MessageType>(raw_type);
  return Status::Ok();
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data, uint32_t seed) {
  const auto& t = kCrcTables;
  uint32_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLE32(p);
    const uint32_t hi = LoadLE32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

std::vector<uint8_t> Encode(const LookupReq& msg) {
  return BuildFrame(MessageType::kLookupReq, kReqPayload, [&](ByteWriter& w) {
    w.U64(msg.lookup_id);
    w.U64(msg.client);
    w.U64(msg.origin);
    w.U64(msg.key);
    w.U8(msg.flags);
  });
}

std::vector<uint8_t> Encode(const LookupStep& msg) {
  const size_t len =
      kStepFixedPayload + RouteStateSize(msg.route) + HopsSize(msg.hops);
  return BuildFrame(MessageType::kLookupStep, len, [&](ByteWriter& w) {
    w.U64(msg.lookup_id);
    w.U64(msg.client);
    w.U64(msg.origin);
    w.U8(msg.flags);
    WriteCursor(w, msg.cursor, msg.resilient);
    WriteRouteState(w, msg.route);
    WriteHops(w, msg.hops);
  });
}

std::vector<uint8_t> Encode(const LookupDone& msg) {
  const size_t len =
      kDoneFixedPayload + RouteStateSize(msg.route) + HopsSize(msg.hops);
  return BuildFrame(MessageType::kLookupDone, len, [&](ByteWriter& w) {
    w.U64(msg.lookup_id);
    w.U64(msg.client);
    w.U64(msg.origin);
    w.U64(msg.key);
    w.U8(msg.status);
    w.U8(msg.flags);
    WriteRouteState(w, msg.route);
    WriteHops(w, msg.hops);
  });
}

std::vector<uint8_t> Encode(const Join& msg) {
  return BuildFrame(MessageType::kJoin, kNodePayload,
                    [&](ByteWriter& w) { w.U64(msg.node_id); });
}

std::vector<uint8_t> Encode(const Leave& msg) {
  return BuildFrame(MessageType::kLeave, kLeavePayload, [&](ByteWriter& w) {
    w.U64(msg.node_id);
    w.U8(msg.forget_state);
  });
}

std::vector<uint8_t> Encode(const Stabilize& msg) {
  return BuildFrame(MessageType::kStabilize, kNodePayload,
                    [&](ByteWriter& w) { w.U64(msg.node_id); });
}

std::vector<uint8_t> Encode(const AnyMessage& msg) {
  return std::visit([](const auto& m) { return Encode(m); }, msg);
}

Result<MessageType> PeekType(std::span<const uint8_t> frame) {
  MessageType type;
  if (Status s = CheckFrame(frame, type); !s.ok()) return s;
  return type;
}

Result<AnyMessage> Decode(std::span<const uint8_t> frame) {
  MessageType type;
  if (Status s = CheckFrame(frame, type); !s.ok()) return s;
  ByteReader r(frame.subspan(kWireHeaderSize));
  auto malformed = [] {
    return Status::InvalidArgument("wire: malformed payload");
  };
  switch (type) {
    case MessageType::kLookupReq: {
      LookupReq m;
      if (!r.U64(m.lookup_id) || !r.U64(m.client) || !r.U64(m.origin) ||
          !r.U64(m.key) || !r.U8(m.flags) || !r.AtEnd()) {
        return malformed();
      }
      return AnyMessage{m};
    }
    case MessageType::kLookupStep: {
      LookupStep m;
      if (!r.U64(m.lookup_id) || !r.U64(m.client) || !r.U64(m.origin) ||
          !r.U8(m.flags) || !ReadCursor(r, m.cursor, m.resilient) ||
          !ReadRouteState(r, m.route) || !ReadHops(r, m.hops) || !r.AtEnd()) {
        return malformed();
      }
      return AnyMessage{std::move(m)};
    }
    case MessageType::kLookupDone: {
      LookupDone m;
      if (!r.U64(m.lookup_id) || !r.U64(m.client) || !r.U64(m.origin) ||
          !r.U64(m.key) || !r.U8(m.status) || !r.U8(m.flags) ||
          !ReadRouteState(r, m.route) || !ReadHops(r, m.hops) || !r.AtEnd()) {
        return malformed();
      }
      if (m.status > static_cast<uint8_t>(LookupWireStatus::kProtocolError)) {
        return malformed();
      }
      return AnyMessage{std::move(m)};
    }
    case MessageType::kJoin: {
      Join m;
      if (!r.U64(m.node_id) || !r.AtEnd()) return malformed();
      return AnyMessage{m};
    }
    case MessageType::kLeave: {
      Leave m;
      if (!r.U64(m.node_id) || !r.U8(m.forget_state) || !r.AtEnd()) {
        return malformed();
      }
      return AnyMessage{m};
    }
    case MessageType::kStabilize: {
      Stabilize m;
      if (!r.U64(m.node_id) || !r.AtEnd()) return malformed();
      return AnyMessage{m};
    }
  }
  return Status::Internal("wire: unreachable type");
}

}  // namespace peercache::net
