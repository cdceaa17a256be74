#ifndef PEERCACHE_COMMON_RANDOM_H_
#define PEERCACHE_COMMON_RANDOM_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace peercache {

/// SplitMix64: used to seed larger generators and as a cheap mixing hash.
/// Reference: Vigna, "Further scramblings of Marsaglia's xorshift generators".
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Stateless 64-bit mixing hash (SplitMix64 finalizer). Used for item -> id
/// assignment so item placement is deterministic given the item index.
constexpr uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derives the seed of an independent RNG stream from a base seed and a
/// stream index (node id, round number, ...). Both arguments pass through
/// the SplitMix64 finalizer, so structured inputs (small integers, ids that
/// share low bits) still land in unrelated streams: Rng(SplitSeed(s, id))
/// per node replaces a shared sequential RNG wherever loop iterations must
/// not depend on execution order (the parallel experiment drivers).
constexpr uint64_t SplitSeed(uint64_t base_seed, uint64_t stream) {
  return MixHash64(base_seed ^ MixHash64(~stream));
}

/// xoshiro256++ deterministic PRNG. All randomness in the library flows
/// through explicitly seeded instances of this class; there is no global
/// RNG state, so every simulation is reproducible from its seed.
class Rng {
 public:
  /// Seeds the generator; distinct seeds give independent-looking streams.
  explicit Rng(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  /// Uniform over all 64-bit values.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be nonzero. Uses Lemire's
  /// nearly-divisionless method with rejection for exact uniformity.
  uint64_t UniformU64(uint64_t bound) {
    assert(bound != 0);
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = (0 - bound) % bound;
      while (l < t) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    UniformU64(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] — safe as a log() argument.
  double UniformDoublePositive() { return 1.0 - UniformDouble(); }

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Fisher-Yates shuffle, backward: UniformU64(i) for i = size … 2, so an
  /// empty or one-element range draws nothing.
  template <typename T>
  void Shuffle(std::span<T> v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformU64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    Shuffle(std::span<T>(v));
  }

  /// Draws `count` distinct uint64 ids, each < bound. count must not exceed
  /// bound. Expected O(count) when count << bound.
  std::vector<uint64_t> SampleDistinct(uint64_t bound, size_t count);

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace peercache

#endif  // PEERCACHE_COMMON_RANDOM_H_
