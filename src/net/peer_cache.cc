#include "net/peer_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "common/random.h"
#include "net/wire.h"

namespace peercache::net {

namespace {

/// File magic: "PCC1" read as bytes on disk.
constexpr uint32_t kCacheMagic = 0x31434350u;
constexpr uint16_t kCacheVersion = 1;
constexpr size_t kHeaderSize = 40;
constexpr uint32_t kRecordUsed = 1;
constexpr uint32_t kMaxSlotCount = 1u << 24;
constexpr uint32_t kMaxListCapacity = 1u << 16;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// CRC seed that ties record checksums to this file's salt: a record copied
/// between files with different salts fails its checksum.
uint32_t SaltSeed(uint64_t salt) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(salt >> (8 * i));
  return Crc32(std::span<const uint8_t>(bytes, 8));
}

/// Opens `path` read-write, with the extra open `flags` (O_CREAT for
/// Create), and takes the file's writer lock; fails when another PeerCache
/// holds it. flock locks belong to the open file description, not to the
/// process, so a second open inside this process is refused too (POSIX
/// record locks would let every actor of one process in).
Result<int> OpenLocked(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), O_RDWR | flags, 0644);
  if (fd < 0) return Errno("open");
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      return Status::FailedPrecondition("peer cache " + path +
                                        " is open in another writer");
    }
    errno = err;
    return Errno("flock");
  }
  return fd;
}

bool ReadExact(int fd, uint64_t offset, uint8_t* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, buf + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

bool WriteExact(int fd, uint64_t offset, const uint8_t* buf, size_t len) {
  size_t put = 0;
  while (put < len) {
    const ssize_t n = ::pwrite(fd, buf + put, len - put,
                               static_cast<off_t>(offset + put));
    if (n <= 0) return false;
    put += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

size_t PeerCache::RecordSize() const {
  return 24 + size_t{8} * config_.aux_capacity +
         size_t{16} * config_.freq_capacity;
}

uint64_t PeerCache::SlotOffset(uint32_t slot) const {
  return kHeaderSize + uint64_t{slot} * RecordSize();
}

uint64_t PeerCache::PlacementHash(uint64_t node_id) const {
  return MixHash64(config_.salt ^ MixHash64(node_id));
}

std::vector<uint8_t> PeerCache::EncodeRecord(const PeerRecord& record) const {
  std::vector<uint8_t> bytes;
  bytes.reserve(RecordSize());
  ByteWriter w(bytes);
  const uint32_t aux_count = static_cast<uint32_t>(std::min<size_t>(
      record.auxiliaries.size(), config_.aux_capacity));
  const uint32_t freq_count = static_cast<uint32_t>(std::min<size_t>(
      record.frequencies.size(), config_.freq_capacity));
  w.U32(kRecordUsed);
  w.U64(record.node_id);
  w.U32(aux_count);
  w.U32(freq_count);
  for (uint32_t i = 0; i < config_.aux_capacity; ++i) {
    w.U64(i < aux_count ? record.auxiliaries[i] : 0);
  }
  for (uint32_t i = 0; i < config_.freq_capacity; ++i) {
    w.U64(i < freq_count ? record.frequencies[i].first : 0);
    w.U64(i < freq_count ? record.frequencies[i].second : 0);
  }
  w.U32(Crc32(std::span<const uint8_t>(bytes.data(), bytes.size()),
              SaltSeed(config_.salt)));
  return bytes;
}

bool PeerCache::DecodeRecord(const std::vector<uint8_t>& bytes,
                             PeerRecord& out) const {
  if (bytes.size() != RecordSize()) return false;
  ByteReader r(bytes.data(), bytes.size());
  uint32_t state = 0;
  uint32_t aux_count = 0;
  uint32_t freq_count = 0;
  if (!r.U32(state) || state != kRecordUsed) return false;
  if (!r.U64(out.node_id)) return false;
  if (!r.U32(aux_count) || aux_count > config_.aux_capacity) return false;
  if (!r.U32(freq_count) || freq_count > config_.freq_capacity) return false;
  out.auxiliaries.clear();
  out.frequencies.clear();
  for (uint32_t i = 0; i < config_.aux_capacity; ++i) {
    uint64_t v = 0;
    if (!r.U64(v)) return false;
    if (i < aux_count) out.auxiliaries.push_back(v);
  }
  for (uint32_t i = 0; i < config_.freq_capacity; ++i) {
    uint64_t peer = 0;
    uint64_t count = 0;
    if (!r.U64(peer) || !r.U64(count)) return false;
    if (i < freq_count) out.frequencies.emplace_back(peer, count);
  }
  uint32_t crc = 0;
  if (!r.U32(crc) || !r.AtEnd()) return false;
  const uint32_t want =
      Crc32(std::span<const uint8_t>(bytes.data(), bytes.size() - 4),
            SaltSeed(config_.salt));
  return crc == want;
}

Result<PeerCache> PeerCache::Create(const std::string& path,
                                    const PeerCacheConfig& config) {
  if (config.slot_count == 0 || config.slot_count > kMaxSlotCount) {
    return Status::InvalidArgument("bad slot_count");
  }
  if (config.aux_capacity > kMaxListCapacity ||
      config.freq_capacity > kMaxListCapacity) {
    return Status::InvalidArgument("bad list capacity");
  }
  Result<int> locked = OpenLocked(path, O_CREAT);
  if (!locked.ok()) return locked.status();
  const int fd = *locked;
  PeerCache cache;
  cache.fd_ = fd;
  cache.config_ = config;
  cache.slot_ids_.assign(config.slot_count, kEmptySlot);
  // Truncating only under the lock never cuts a live writer's file. The
  // second ftruncate zero-fills the slot region: state 0 everywhere == all
  // empty.
  const uint64_t file_size =
      kHeaderSize + uint64_t{config.slot_count} * cache.RecordSize();
  if (::ftruncate(fd, 0) != 0 ||
      ::ftruncate(fd, static_cast<off_t>(file_size)) != 0) {
    return Errno("ftruncate");
  }
  std::vector<uint8_t> header;
  header.reserve(kHeaderSize);
  ByteWriter w(header);
  w.U32(kCacheMagic);
  w.U16(kCacheVersion);
  w.U16(0);  // reserved
  w.U64(config.salt);
  w.U32(config.slot_count);
  w.U32(config.aux_capacity);
  w.U32(config.freq_capacity);
  w.U32(Crc32(std::span<const uint8_t>(header.data(), header.size())));
  w.U64(0);  // pad to kHeaderSize
  if (!WriteExact(fd, 0, header.data(), header.size())) {
    return Errno("write header");
  }
  if (::fsync(fd) != 0) return Errno("fsync");
  return cache;
}

Result<PeerCache> PeerCache::Open(const std::string& path) {
  Result<int> locked = OpenLocked(path, 0);
  if (!locked.ok()) return locked.status();
  const int fd = *locked;
  PeerCache cache;
  cache.fd_ = fd;
  std::vector<uint8_t> header(kHeaderSize);
  if (!ReadExact(fd, 0, header.data(), header.size())) {
    return Status::InvalidArgument("peer cache: truncated header");
  }
  ByteReader r(header.data(), header.size());
  uint32_t magic = 0;
  uint16_t version = 0;
  uint16_t reserved = 0;
  uint32_t crc = 0;
  PeerCacheConfig config;
  if (!r.U32(magic) || magic != kCacheMagic) {
    return Status::InvalidArgument("peer cache: bad magic");
  }
  if (!r.U16(version) || version != kCacheVersion) {
    return Status::InvalidArgument("peer cache: unsupported version");
  }
  if (!r.U16(reserved) || !r.U64(config.salt) || !r.U32(config.slot_count) ||
      !r.U32(config.aux_capacity) || !r.U32(config.freq_capacity) ||
      !r.U32(crc)) {
    return Status::InvalidArgument("peer cache: short header");
  }
  if (crc != Crc32(std::span<const uint8_t>(header.data(), 28))) {
    return Status::InvalidArgument("peer cache: header checksum mismatch");
  }
  if (config.slot_count == 0 || config.slot_count > kMaxSlotCount ||
      config.aux_capacity > kMaxListCapacity ||
      config.freq_capacity > kMaxListCapacity) {
    return Status::InvalidArgument("peer cache: bad geometry");
  }
  cache.config_ = config;
  // The header is only checksummed, not proven: nothing is sized from it
  // until the file is seen to hold every slot it claims. A longer file
  // opens as before.
  struct stat st;
  if (::fstat(fd, &st) != 0) return Errno("fstat");
  if (static_cast<uint64_t>(st.st_size) <
      cache.SlotOffset(config.slot_count)) {
    return Status::InvalidArgument("peer cache: truncated slot region");
  }
  cache.slot_ids_.assign(config.slot_count, kEmptySlot);
  // Scan every slot: a used record with a bad checksum is a torn write —
  // count it and treat the slot as empty.
  std::vector<uint8_t> bytes(cache.RecordSize());
  PeerRecord record;
  for (uint32_t slot = 0; slot < config.slot_count; ++slot) {
    if (!ReadExact(fd, cache.SlotOffset(slot), bytes.data(), bytes.size())) {
      return Status::InvalidArgument("peer cache: truncated slot region");
    }
    uint32_t state = 0;
    std::memcpy(&state, bytes.data(), sizeof(state));
    if (state == 0) continue;
    if (!cache.DecodeRecord(bytes, record) || record.node_id == kEmptySlot) {
      ++cache.stats_.rejected;
      continue;
    }
    cache.slot_ids_[slot] = record.node_id;
    cache.index_.emplace_back(record.node_id, slot);
    ++cache.stats_.used;
  }
  std::sort(cache.index_.begin(), cache.index_.end());
  return cache;
}

PeerCache::PeerCache(PeerCache&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      config_(other.config_),
      stats_(other.stats_),
      index_(std::move(other.index_)),
      slot_ids_(std::move(other.slot_ids_)) {}

PeerCache& PeerCache::operator=(PeerCache&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    config_ = other.config_;
    stats_ = other.stats_;
    index_ = std::move(other.index_);
    slot_ids_ = std::move(other.slot_ids_);
  }
  return *this;
}

PeerCache::~PeerCache() {
  if (fd_ >= 0) ::close(fd_);
}

Status PeerCache::Put(const PeerRecord& record) {
  if (fd_ < 0) return Status::FailedPrecondition("peer cache not open");
  if (record.node_id == kEmptySlot) {
    return Status::InvalidArgument("reserved node id");
  }
  const uint64_t h = PlacementHash(record.node_id);
  const uint32_t start = static_cast<uint32_t>(h % config_.slot_count);
  const uint32_t window = std::min(kProbeWindow, config_.slot_count);
  uint32_t target = config_.slot_count;  // sentinel: not found
  bool have_empty = false;
  for (uint32_t i = 0; i < window; ++i) {
    const uint32_t slot = (start + i) % config_.slot_count;
    if (slot_ids_[slot] == record.node_id) {
      target = slot;  // overwrite in place
      have_empty = true;
      break;
    }
    if (!have_empty && slot_ids_[slot] == kEmptySlot) {
      target = slot;
      have_empty = true;
    }
  }
  if (!have_empty) {
    // Window full of other peers: evict a hash-chosen victim so which record
    // survives a collision storm is a property of the salt, not insert order.
    target = (start + static_cast<uint32_t>((h >> 32) % window)) %
             config_.slot_count;
    const uint64_t victim = slot_ids_[target];
    const auto it = std::lower_bound(index_.begin(), index_.end(),
                                     std::make_pair(victim, uint32_t{0}));
    if (it != index_.end() && it->first == victim) index_.erase(it);
    ++stats_.evictions;
    --stats_.used;
  }
  const std::vector<uint8_t> bytes = EncodeRecord(record);
  if (!WriteExact(fd_, SlotOffset(target), bytes.data(), bytes.size())) {
    return Errno("write record");
  }
  if (slot_ids_[target] != record.node_id) {
    slot_ids_[target] = record.node_id;
    index_.insert(std::lower_bound(index_.begin(), index_.end(),
                                   std::make_pair(record.node_id, uint32_t{0})),
                  {record.node_id, target});
    ++stats_.used;
  }
  ++stats_.writes;
  return Status::Ok();
}

bool PeerCache::Get(uint64_t node_id, PeerRecord& out) const {
  if (fd_ < 0) return false;
  const auto it = std::lower_bound(index_.begin(), index_.end(),
                                   std::make_pair(node_id, uint32_t{0}));
  if (it == index_.end() || it->first != node_id) return false;
  std::vector<uint8_t> bytes(RecordSize());
  if (!ReadExact(fd_, SlotOffset(it->second), bytes.data(), bytes.size())) {
    return false;
  }
  return DecodeRecord(bytes, out) && out.node_id == node_id;
}

std::vector<uint64_t> PeerCache::Ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(index_.size());
  for (uint64_t id : slot_ids_) {
    if (id != kEmptySlot) ids.push_back(id);
  }
  return ids;
}

Status PeerCache::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("peer cache not open");
  if (::fsync(fd_) != 0) return Errno("fsync");
  return Status::Ok();
}

}  // namespace peercache::net
