// Message-bus determinism: delivery order is a pure function of (seed,
// posted messages), certified by running the same traffic on thread pools
// of different sizes and comparing the serialized event log byte for byte.
#include "net/bus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "test_util.h"

namespace peercache::net {
namespace {

using proptest::Case;
using proptest::RunProperty;

constexpr uint64_t kCollector = ~uint64_t{0};

std::vector<uint8_t> Payload(uint64_t a, uint64_t b) {
  std::vector<uint8_t> p(16);
  for (int i = 0; i < 8; ++i) {
    p[static_cast<size_t>(i)] = static_cast<uint8_t>(a >> (8 * i));
    p[static_cast<size_t>(8 + i)] = static_cast<uint8_t>(b >> (8 * i));
  }
  return p;
}

/// Runs a deterministic ping chain: each worker message (dst, hops-left h)
/// reports to the collector and, while h > 0, forwards to a hash-derived
/// next worker with a hash-derived delay. Returns the collector's event log
/// (serial: the collector is one mailbox) plus the bus counters.
std::string RunChain(int threads, uint64_t seed, int n_workers, int n_seeds,
                     int hops) {
  ThreadPool pool(threads);
  BusConfig config;
  config.seed = seed;
  config.tick_ms = 1.0;
  MessageBus bus(config, &pool);
  for (int i = 0; i < n_seeds; ++i) {
    bus.Post(kCollector, static_cast<uint64_t>(i % n_workers), 0.0,
             Payload(static_cast<uint64_t>(i), static_cast<uint64_t>(hops)));
  }
  std::string log;
  bus.Run([&](const Envelope& env, std::vector<Outbound>& out) {
    if (env.dst == kCollector) {
      log += std::to_string(env.tick) + ":" + std::to_string(env.src) + ":" +
             std::to_string(env.payload[0]) + ";";
      return;
    }
    uint64_t chain = 0, left = 0;
    for (int i = 0; i < 8; ++i) {
      chain |= static_cast<uint64_t>(env.payload[static_cast<size_t>(i)])
               << (8 * i);
      left |= static_cast<uint64_t>(env.payload[static_cast<size_t>(8 + i)])
              << (8 * i);
    }
    Outbound note;
    note.dst = kCollector;
    note.payload = Payload(chain, left);
    out.push_back(std::move(note));
    if (left > 0) {
      const uint64_t h = MixHash64(chain ^ (left << 8) ^ env.dst);
      Outbound next;
      next.dst = h % static_cast<uint64_t>(n_workers);
      next.delay_ms = static_cast<double>(h % 7);
      next.payload = Payload(chain, left - 1);
      out.push_back(std::move(next));
    }
  });
  log += "|delivered=" + std::to_string(bus.delivered()) +
         " last_tick=" + std::to_string(bus.last_tick());
  return log;
}

TEST(BusTest, DeliveryOrderIsThreadCountInvariant) {
  auto outcome = RunProperty(11, 25, [](Case& c) -> std::string {
    const uint64_t seed = c.Range("seed", 0, 1000);
    const int workers = static_cast<int>(c.Range("workers", 1, 40));
    const int seeds = static_cast<int>(c.Range("seeds", 1, 30));
    const int hops = static_cast<int>(c.Range("hops", 0, 12));
    const std::string serial = RunChain(1, seed, workers, seeds, hops);
    const std::string parallel = RunChain(4, seed, workers, seeds, hops);
    if (serial != parallel) {
      return "threads=1 log differs from threads=4 log:\n  " + serial +
             "\n  " + parallel;
    }
    return "";
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(BusTest, MessagesNeverDeliverOnTheirSendTick) {
  ThreadPool pool(1);
  MessageBus bus(BusConfig{}, &pool);
  bus.Post(0, 1, 0.0, {1});
  uint64_t send_tick = 0, reply_tick = 0;
  bus.Run([&](const Envelope& env, std::vector<Outbound>& out) {
    if (env.dst == 1) {
      send_tick = env.tick;
      out.push_back({2, 0.0, {2}});
    } else {
      reply_tick = env.tick;
    }
  });
  EXPECT_GT(reply_tick, send_tick);
  EXPECT_EQ(bus.delivered(), 2u);
}

TEST(BusTest, DelayQuantizesToTicks) {
  ThreadPool pool(1);
  BusConfig config;
  config.tick_ms = 10.0;
  MessageBus bus(config, &pool);
  bus.Post(0, 1, 35.0, {1});  // ceil(35/10) = 4 ticks after tick 0
  uint64_t tick = 0;
  bus.Run([&](const Envelope& env, std::vector<Outbound>&) {
    tick = env.tick;
  });
  EXPECT_EQ(tick, 4u);
}

TEST(BusTest, MaxTicksStopsRunawayTraffic) {
  ThreadPool pool(1);
  BusConfig config;
  config.max_ticks = 50;
  MessageBus bus(config, &pool);
  bus.Post(0, 1, 0.0, {});
  bus.Run([&](const Envelope& env, std::vector<Outbound>& out) {
    out.push_back({env.dst, 0.0, {}});  // ping self forever
  });
  EXPECT_LE(bus.last_tick(), 50u);
  EXPECT_GT(bus.pending(), 0u);  // the runaway message is still queued
}

/// Folds every delivery of a seeded multi-tick forwarding run, as (tick,
/// dst, src, seq) in delivery order, into an FNV-1a digest. Each mailbox
/// logs its own deliveries (mailboxes are handled serially), and a stable
/// sort by (tick, dst) restores the bus's global order.
uint64_t DeliveryDigest(int threads) {
  constexpr uint64_t kWorkers = 24;
  ThreadPool pool(threads);
  BusConfig config;
  config.seed = 77;
  config.tick_ms = 2.0;
  MessageBus bus(config, &pool);
  for (uint64_t i = 0; i < 40; ++i) {
    bus.Post(kCollector, i % kWorkers, static_cast<double>(i % 3),
             Payload(i, 6));
  }
  struct Event {
    uint64_t tick, dst, src, seq;
  };
  std::vector<std::vector<Event>> logs(kWorkers);
  bus.Run([&](const Envelope& env, std::vector<Outbound>& out) {
    logs[env.dst].push_back({env.tick, env.dst, env.src, env.seq});
    uint64_t chain = 0, left = 0;
    for (int i = 0; i < 8; ++i) {
      chain |= static_cast<uint64_t>(env.payload[static_cast<size_t>(i)])
               << (8 * i);
      left |= static_cast<uint64_t>(env.payload[static_cast<size_t>(8 + i)])
              << (8 * i);
    }
    if (left == 0) return;
    // Fan out to two workers so mailboxes collect several arrivals a tick.
    for (uint64_t fork = 0; fork < 2; ++fork) {
      const uint64_t h = MixHash64(chain ^ (left << 8) ^ env.dst ^ fork);
      Outbound next;
      next.dst = h % kWorkers;
      next.delay_ms = static_cast<double>(h % 5);
      next.payload = Payload(chain ^ (fork << 32), left - 1);
      out.push_back(std::move(next));
    }
  });
  std::vector<Event> order;
  for (const auto& log : logs) order.insert(order.end(), log.begin(), log.end());
  std::stable_sort(order.begin(), order.end(),
                   [](const Event& a, const Event& b) {
                     return a.tick != b.tick ? a.tick < b.tick
                                             : a.dst < b.dst;
                   });
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto fold = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  for (const Event& e : order) {
    fold(e.tick);
    fold(e.dst);
    fold(e.src);
    fold(e.seq);
  }
  fold(bus.delivered());
  return digest;
}

// Pins the delivery order itself, not just its thread-count invariance: a
// faster tie-break must reproduce the recorded order.
TEST(BusTest, DeliveryOrderMatchesRecordedDigest) {
  EXPECT_EQ(DeliveryDigest(1), 0xce3294fc5aaa35aULL);
  EXPECT_EQ(DeliveryDigest(4), 0xce3294fc5aaa35aULL);
}

}  // namespace
}  // namespace peercache::net
