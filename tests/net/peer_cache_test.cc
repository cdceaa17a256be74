// Persistent peer-cache properties: a record survives close/reopen exactly,
// a torn write (partial record, flipped bytes) is rejected at Open instead
// of being served, and collisions evict deterministically.
#include "net/peer_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "net/wire.h"
#include "test_util.h"

namespace peercache::net {
namespace {

using proptest::Case;
using proptest::RunProperty;

std::string TempPath(const char* tag) {
  static int counter = 0;
  return ::testing::TempDir() + "peer_cache_" + tag + "_" +
         std::to_string(counter++) + ".bin";
}

PeerRecord MakeRecord(uint64_t id, size_t n_aux, size_t n_freq) {
  PeerRecord r;
  r.node_id = id;
  for (size_t i = 0; i < n_aux; ++i) {
    r.auxiliaries.push_back(MixHash64(id ^ i));
  }
  for (size_t i = 0; i < n_freq; ++i) {
    r.frequencies.emplace_back(MixHash64(id + i), i + 1);
  }
  return r;
}

TEST(PeerCacheTest, PutGetRoundTrips) {
  const std::string path = TempPath("roundtrip");
  auto cache = PeerCache::Create(path, PeerCacheConfig{});
  ASSERT_TRUE(cache.ok()) << cache.status();
  const PeerRecord rec = MakeRecord(42, 5, 10);
  ASSERT_TRUE(cache->Put(rec).ok());
  PeerRecord back;
  ASSERT_TRUE(cache->Get(42, back));
  EXPECT_EQ(back, rec);
  EXPECT_FALSE(cache->Get(43, back));
  std::remove(path.c_str());
}

TEST(PeerCacheTest, ReopenRecoversEveryRecord) {
  auto outcome = RunProperty(21, 30, [](Case& c) -> std::string {
    const std::string path = TempPath("reopen");
    PeerCacheConfig config;
    config.slot_count = static_cast<uint32_t>(c.Range("slots", 64, 256));
    config.aux_capacity = static_cast<uint32_t>(c.Range("aux_cap", 1, 16));
    config.freq_capacity = static_cast<uint32_t>(c.Range("freq_cap", 1, 32));
    config.salt = c.Range("salt", 0, ~uint64_t{0} - 1);
    const size_t n = c.Range("n", 1, 40);
    // Records still resident after all puts (collisions may have evicted
    // some); reopen must recover exactly this set.
    std::vector<PeerRecord> resident;
    size_t size_before = 0;
    {
      auto cache = PeerCache::Create(path, config);
      if (!cache.ok()) return "create failed: " + cache.status().ToString();
      std::vector<PeerRecord> put;
      for (size_t i = 0; i < n; ++i) {
        PeerRecord rec = MakeRecord(
            1000 + i * 7, c.Range("n_aux", 0, config.aux_capacity),
            c.Range("n_freq", 0, config.freq_capacity));
        if (!cache->Put(rec).ok()) return "put failed";
        put.push_back(std::move(rec));
      }
      if (!cache->Sync().ok()) return "sync failed";
      size_before = cache->size();
      for (PeerRecord& rec : put) {
        PeerRecord back;
        if (cache->Get(rec.node_id, back)) {
          if (!(back == rec)) return "record changed before reopen";
          resident.push_back(std::move(rec));
        }
      }
      if (resident.size() != size_before) return "index/size mismatch";
    }
    auto cache = PeerCache::Open(path);
    if (!cache.ok()) return "open failed: " + cache.status().ToString();
    if (cache->stats().rejected != 0) return "clean file reported torn records";
    if (cache->size() != size_before) {
      return "recovered " + std::to_string(cache->size()) + " of " +
             std::to_string(size_before) + " records";
    }
    for (const PeerRecord& rec : resident) {
      PeerRecord back;
      if (!cache->Get(rec.node_id, back)) return "record lost across reopen";
      if (!(back == rec)) return "record changed across reopen";
    }
    std::remove(path.c_str());
    return "";
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(PeerCacheTest, TornWriteIsRejectedAtOpen) {
  const std::string path = TempPath("torn");
  PeerCacheConfig config;
  config.slot_count = 32;
  {
    auto cache = PeerCache::Create(path, config);
    ASSERT_TRUE(cache.ok());
    ASSERT_TRUE(cache->Put(MakeRecord(7, 3, 3)).ok());
    ASSERT_TRUE(cache->Sync().ok());
  }
  // Flip one byte in every slot's node-id field. The used slot's checksum
  // now fails (a torn write); empty slots stay state-0 and stay empty.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const size_t record_size = 24 + 8 * config.aux_capacity +
                               16 * config.freq_capacity;
    for (uint32_t slot = 0; slot < config.slot_count; ++slot) {
      const std::streamoff off =
          static_cast<std::streamoff>(40 + slot * record_size + 6);
      f.seekg(off);
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x5a);
      f.seekp(off);
      f.write(&byte, 1);
    }
  }
  auto cache = PeerCache::Open(path);
  ASSERT_TRUE(cache.ok()) << cache.status();
  EXPECT_EQ(cache->stats().rejected, 1u);
  EXPECT_EQ(cache->size(), 0u);
  PeerRecord back;
  EXPECT_FALSE(cache->Get(7, back));
  std::remove(path.c_str());
}

TEST(PeerCacheTest, TruncatedFileIsRejected) {
  const std::string path = TempPath("short");
  {
    std::ofstream f(path, std::ios::binary);
    f << "PC";  // not even a full header
  }
  EXPECT_FALSE(PeerCache::Open(path).ok());
  std::remove(path.c_str());
}

// A header with a valid checksum still proves nothing about the file's
// length: Open refuses a file shorter than the slots its header claims
// before it sizes anything from that header.
TEST(PeerCacheTest, ShortSlotRegionIsRefused) {
  const std::string hostile = TempPath("hostile");
  {
    // Header only, claiming 2^24 slots of 2^16-entry lists (1.5 MB each).
    std::vector<uint8_t> header;
    ByteWriter w(header);
    w.U32(0x31434350u);  // "PCC1"
    w.U16(1);            // version
    w.U16(0);            // reserved
    w.U64(0x1234);       // salt
    w.U32(1u << 24);     // slot_count
    w.U32(1u << 16);     // aux_capacity
    w.U32(1u << 16);     // freq_capacity
    w.U32(Crc32(std::span<const uint8_t>(header)));
    w.U64(0);  // pad to the 40-byte header
    std::ofstream f(hostile, std::ios::binary);
    f.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  }
  auto opened = PeerCache::Open(hostile);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  std::remove(hostile.c_str());

  // A real file cut inside its slot region, then the same file with bytes
  // past its last slot, which still opens.
  const std::string path = TempPath("cut");
  PeerCacheConfig config;
  config.slot_count = 32;
  const uintmax_t record_size =
      24 + 8 * config.aux_capacity + 16 * config.freq_capacity;
  const uintmax_t full_size = 40 + config.slot_count * record_size;
  {
    auto cache = PeerCache::Create(path, config);
    ASSERT_TRUE(cache.ok());
    ASSERT_TRUE(cache->Put(MakeRecord(7, 3, 3)).ok());
  }
  ASSERT_EQ(std::filesystem::file_size(path), full_size);
  std::filesystem::resize_file(path, full_size - record_size / 2);
  opened = PeerCache::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::resize_file(path, full_size + 100);
  opened = PeerCache::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->size(), 1u);
  std::remove(path.c_str());
}

TEST(PeerCacheTest, HeaderCorruptionIsRejected) {
  const std::string path = TempPath("header");
  {
    auto cache = PeerCache::Create(path, PeerCacheConfig{});
    ASSERT_TRUE(cache.ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(17);  // inside slot_count
    const char byte = 0x7f;
    f.write(&byte, 1);
  }
  EXPECT_FALSE(PeerCache::Open(path).ok());
  std::remove(path.c_str());
}

TEST(PeerCacheTest, ListsTruncateToFileCapacities) {
  const std::string path = TempPath("capacity");
  PeerCacheConfig config;
  config.aux_capacity = 4;
  config.freq_capacity = 3;
  auto cache = PeerCache::Create(path, config);
  ASSERT_TRUE(cache.ok());
  const PeerRecord rec = MakeRecord(9, 10, 10);
  ASSERT_TRUE(cache->Put(rec).ok());
  PeerRecord back;
  ASSERT_TRUE(cache->Get(9, back));
  ASSERT_EQ(back.auxiliaries.size(), 4u);
  ASSERT_EQ(back.frequencies.size(), 3u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.auxiliaries[i], rec.auxiliaries[i]);
  }
  std::remove(path.c_str());
}

TEST(PeerCacheTest, CollisionsEvictInsteadOfGrowing) {
  const std::string path = TempPath("evict");
  PeerCacheConfig config;
  config.slot_count = 8;  // window covers the whole file
  auto cache = PeerCache::Create(path, config);
  ASSERT_TRUE(cache.ok());
  for (uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(cache->Put(MakeRecord(id, 2, 2)).ok());
  }
  EXPECT_EQ(cache->size(), 8u);
  EXPECT_EQ(cache->stats().evictions, 12u);
  // Survivors still round-trip.
  size_t found = 0;
  for (uint64_t id = 1; id <= 20; ++id) {
    PeerRecord back;
    if (cache->Get(id, back)) {
      ++found;
      EXPECT_EQ(back, MakeRecord(id, 2, 2));
    }
  }
  EXPECT_EQ(found, 8u);
  std::remove(path.c_str());
}

TEST(PeerCacheTest, OverwriteReplacesInPlace) {
  const std::string path = TempPath("overwrite");
  auto cache = PeerCache::Create(path, PeerCacheConfig{});
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(cache->Put(MakeRecord(5, 2, 2)).ok());
  const PeerRecord updated = MakeRecord(5, 6, 6);
  ASSERT_TRUE(cache->Put(updated).ok());
  EXPECT_EQ(cache->size(), 1u);
  PeerRecord back;
  ASSERT_TRUE(cache->Get(5, back));
  EXPECT_EQ(back, updated);
  std::remove(path.c_str());
}

std::string Hex(const std::vector<uint8_t>& bytes, size_t from, size_t len) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = from; i < from + len; ++i) {
    out += kDigits[bytes[i] >> 4];
    out += kDigits[bytes[i] & 0xF];
  }
  return out;
}

// A live file has one writer: a second Create must not truncate it under
// its owner and a second Open must not interleave writes with the owner's,
// even inside one process (every actor of a cluster shares one).
TEST(PeerCacheTest, LiveFileRefusesASecondWriter) {
  const std::string path = TempPath("locked");
  PeerCacheConfig config;
  config.slot_count = 64;
  std::vector<PeerRecord> records;
  for (uint64_t id = 1; id <= 5; ++id) records.push_back(MakeRecord(id, 3, 4));
  {
    auto owner = PeerCache::Create(path, config);
    ASSERT_TRUE(owner.ok()) << owner.status();
    for (const PeerRecord& rec : records) ASSERT_TRUE(owner->Put(rec).ok());
    ASSERT_TRUE(owner->Sync().ok());

    auto second_create = PeerCache::Create(path, config);
    ASSERT_FALSE(second_create.ok());
    EXPECT_EQ(second_create.status().code(), StatusCode::kFailedPrecondition);
    auto second_open = PeerCache::Open(path);
    ASSERT_FALSE(second_open.ok());
    EXPECT_EQ(second_open.status().code(), StatusCode::kFailedPrecondition);

    for (const PeerRecord& rec : records) {
      PeerRecord back;
      ASSERT_TRUE(owner->Get(rec.node_id, back)) << rec.node_id;
      EXPECT_EQ(back, rec);
    }
    ASSERT_TRUE(owner->Put(MakeRecord(6, 1, 1)).ok());
  }
  // The refused Create truncated nothing: every record is still on disk.
  auto reopened = PeerCache::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->size(), records.size() + 1);
  for (const PeerRecord& rec : records) {
    PeerRecord back;
    ASSERT_TRUE(reopened->Get(rec.node_id, back)) << rec.node_id;
    EXPECT_EQ(back, rec);
  }
  std::remove(path.c_str());
}

// A file left by a closed writer stays re-creatable and re-openable, and
// Create over it starts empty at its own geometry.
TEST(PeerCacheTest, ClosedFileReopensAndRecreates) {
  const std::string path = TempPath("released");
  PeerCacheConfig big;
  big.slot_count = 64;
  {
    auto cache = PeerCache::Create(path, big);
    ASSERT_TRUE(cache.ok()) << cache.status();
    for (uint64_t id = 1; id <= 20; ++id) {
      ASSERT_TRUE(cache->Put(MakeRecord(id, 2, 2)).ok());
    }
  }
  {
    auto reopened = PeerCache::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened->size(), 20u);
  }
  PeerCacheConfig small;
  small.slot_count = 8;
  {
    auto recreated = PeerCache::Create(path, small);
    ASSERT_TRUE(recreated.ok()) << recreated.status();
    EXPECT_EQ(recreated->size(), 0u);
  }
  auto reopened = PeerCache::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->config().slot_count, 8u);
  EXPECT_EQ(reopened->size(), 0u);
  EXPECT_EQ(reopened->stats().rejected, 0u);
  std::remove(path.c_str());
}

// Pins the cache-file format: the header and both used slots of a small
// file, byte for byte. A faster encoder or CRC must reproduce them exactly.
TEST(PeerCacheTest, GoldenFileBytes) {
  const std::string path = TempPath("golden");
  PeerCacheConfig config;
  config.slot_count = 8;
  config.aux_capacity = 2;
  config.freq_capacity = 2;
  config.salt = 0x0123456789ABCDEFULL;
  {
    auto cache = PeerCache::Create(path, config);
    ASSERT_TRUE(cache.ok()) << cache.status();
    PeerRecord a;
    a.node_id = 0x11;
    a.auxiliaries = {0x21, 0x22};
    a.frequencies = {{0x31, 5}};
    PeerRecord b;
    b.node_id = 0x12;
    b.auxiliaries = {0x41};
    b.frequencies = {{0x51, 7}, {0x52, 9}};
    ASSERT_TRUE(cache->Put(a).ok());
    ASSERT_TRUE(cache->Put(b).ok());
  }
  std::ifstream f(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  const size_t record_size = 24 + 8 * 2 + 16 * 2;
  ASSERT_EQ(file.size(), 40 + 8 * record_size);
  EXPECT_EQ(Hex(file, 0, 40),
            "5043433101000000efcdab8967452301080000000200000002000000d8fa92af"
            "0000000000000000");
  std::string used;
  for (size_t slot = 0; slot < 8; ++slot) {
    const size_t off = 40 + slot * record_size;
    if (file[off] == 0) continue;
    used += std::to_string(slot) + ":" + Hex(file, off, record_size) + "\n";
  }
  EXPECT_EQ(used,
            "0:"
            "0100000012000000000000000100000002000000410000000000000000000000"
            "0000000051000000000000000700000000000000520000000000000009000000"
            "00000000f88ae5af"
            "\n7:"
            "0100000011000000000000000200000001000000210000000000000022000000"
            "0000000031000000000000000500000000000000000000000000000000000000"
            "00000000823447bf"
            "\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace peercache::net
