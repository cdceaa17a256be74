#ifndef PEERCACHE_NET_PEER_CACHE_H_
#define PEERCACHE_NET_PEER_CACHE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace peercache::net {

/// On-disk layout parameters, fixed at Create time and persisted in the
/// file header. Record payloads are truncated to the capacities, so every
/// record — and therefore the whole file — has a fixed size: slot addressing
/// is pure arithmetic and a crashed writer can only tear the one record it
/// was writing.
struct PeerCacheConfig {
  uint32_t slot_count = 1024;
  /// Auxiliary ids persisted per record (selection order, best first).
  uint32_t aux_capacity = 16;
  /// (peer, count) frequency pairs persisted per record.
  uint32_t freq_capacity = 64;
  /// Placement salt: slots are assigned by a salted hash of the node id, so
  /// two caches with different salts scatter the same peers differently
  /// (cf. pettycoin's peer_cache). Also mixed into every record checksum,
  /// which ties records to their file.
  uint64_t salt = 0x9e3779b97f4a7c15ull;
};

/// What one node persists across a crash: its auxiliary list and the
/// frequency observations that produced it.
struct PeerRecord {
  uint64_t node_id = 0;
  std::vector<uint64_t> auxiliaries;
  std::vector<std::pair<uint64_t, uint64_t>> frequencies;  // (peer, count)

  friend bool operator==(const PeerRecord&, const PeerRecord&) = default;
};

struct PeerCacheStats {
  uint32_t used = 0;      ///< valid records found at Open / live now
  uint32_t rejected = 0;  ///< torn or corrupt records dropped at Open
  uint64_t writes = 0;
  uint64_t evictions = 0;  ///< Put displaced a colliding record
};

/// Crash-safe single-file peer cache: a fixed array of hash-addressed,
/// individually checksummed record slots behind a checksummed header.
///
/// A node id maps to a window of kProbeWindow consecutive slots starting at
/// its salted hash; Put overwrites the node's existing slot, else takes the
/// first empty one, else evicts a hash-chosen victim in the window. Every
/// record carries a CRC over (salt ++ record bytes); a record whose write
/// was torn by a crash fails its CRC at Open and is dropped — the cache
/// never serves partial state, it just forgets what was mid-write. The
/// header is written once at Create and never rewritten, so a crash at any
/// moment leaves a file Open can always read.
///
/// Durability: Put writes with pwrite; call Sync to fsync before a point
/// where a crash must not lose accepted records.
///
/// A file has one writer at a time: Create and Open take an exclusive
/// flock on it, held until the PeerCache is destroyed, and fail with
/// FailedPrecondition while another PeerCache, in this process or another,
/// holds it. A file left by a closed or killed writer opens normally.
class PeerCache {
 public:
  static constexpr uint32_t kProbeWindow = 8;

  /// Creates a cache file with the given geometry, truncating an existing
  /// file once it holds the file's lock.
  static Result<PeerCache> Create(const std::string& path,
                                  const PeerCacheConfig& config);

  /// Opens an existing cache file, validating the header and every used
  /// slot's checksum. A file shorter than the slots its header claims is
  /// refused before anything is sized from the header. Torn/corrupt records
  /// are counted in stats().rejected and treated as empty.
  static Result<PeerCache> Open(const std::string& path);

  PeerCache(PeerCache&& other) noexcept;
  PeerCache& operator=(PeerCache&& other) noexcept;
  PeerCache(const PeerCache&) = delete;
  PeerCache& operator=(const PeerCache&) = delete;
  ~PeerCache();

  /// Persists one node's record (lists truncated to the file's capacities).
  Status Put(const PeerRecord& record);

  /// Loads a node's record. False when the node is not cached.
  bool Get(uint64_t node_id, PeerRecord& out) const;

  /// All cached node ids, in slot order.
  std::vector<uint64_t> Ids() const;

  /// Flushes accepted writes to stable storage.
  Status Sync();

  const PeerCacheConfig& config() const { return config_; }
  const PeerCacheStats& stats() const { return stats_; }
  size_t size() const { return index_.size(); }

 private:
  PeerCache() = default;

  size_t RecordSize() const;
  uint64_t SlotOffset(uint32_t slot) const;
  uint64_t PlacementHash(uint64_t node_id) const;
  std::vector<uint8_t> EncodeRecord(const PeerRecord& record) const;
  bool DecodeRecord(const std::vector<uint8_t>& bytes, PeerRecord& out) const;

  int fd_ = -1;
  PeerCacheConfig config_;
  PeerCacheStats stats_;
  /// node_id -> slot for every valid record (rebuilt at Open).
  std::vector<std::pair<uint64_t, uint32_t>> index_;  // sorted by node_id
  std::vector<uint64_t> slot_ids_;  // slot -> node_id (empty sentinel below)
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
};

}  // namespace peercache::net

#endif  // PEERCACHE_NET_PEER_CACHE_H_
