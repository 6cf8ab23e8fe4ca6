/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All workload synthesis and simulation randomness flows through Rng so that
 * every experiment in the repository is reproducible bit-for-bit from its
 * seed. The core generator is SplitMix64 feeding xoshiro256**, both public
 * domain algorithms.
 */

#pragma once

#include <cmath>

#include "common/types.h"

namespace buddy {

/** Deterministic 64-bit PRNG (xoshiro256** seeded via SplitMix64). */
class Rng
{
  public:
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void
    reseed(u64 seed)
    {
        u64 x = seed;
        for (auto &s : state_) {
            // SplitMix64 step.
            x += 0x9e3779b97f4a7c15ull;
            u64 z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            s = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    u64
    next()
    {
        const u64 result = rotl(state_[1] * 5, 7) * 9;
        const u64 t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    u64
    below(u64 bound)
    {
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // bounds used here (all far below 2^64).
        return static_cast<u64>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /** Geometrically-distributed run length >= 1 with mean 1/p. */
    u64
    geometric(double p)
    {
        if (p >= 1.0)
            return 1;
        if (p <= 0.0)
            return 1ull << 32;
        const double u = uniform();
        return 1 + static_cast<u64>(std::log1p(-u) / std::log1p(-p));
    }

  private:
    static constexpr u64
    rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    u64 state_[4] = {};
};

} // namespace buddy
