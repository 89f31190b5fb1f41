/**
 * @file
 * Deterministic pseudo-random streams for workload generation.
 *
 * Every stochastic element of a simulation draws from its own Rng
 * instance seeded from the experiment configuration, so runs are exactly
 * reproducible and independent streams do not interact.
 *
 * The generator is xoshiro256** (public domain, Blackman & Vigna),
 * seeded through SplitMix64 as its authors recommend.
 */

#ifndef TTDA_COMMON_RANDOM_HH
#define TTDA_COMMON_RANDOM_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"

namespace sim
{

/** A small, fast, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x1badb002) { reseed(seed); }

    /** Re-initialize the stream from a 64-bit seed. */
    void
    reseed(std::uint64_t seed)
    {
        seed_ = seed;
        // SplitMix64 expansion of the seed into the full state.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        SIM_ASSERT(bound != 0);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t limit = ~std::uint64_t{0} -
                                    (~std::uint64_t{0} % bound);
        std::uint64_t v;
        do {
            v = next();
        } while (v >= limit);
        return v % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    between(std::int64_t lo, std::int64_t hi)
    {
        SIM_ASSERT(lo <= hi);
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Geometric-ish bounded delay: uniform in [min, max]. */
    std::uint64_t
    delay(std::uint64_t min, std::uint64_t max)
    {
        SIM_ASSERT(min <= max);
        return min + below(max - min + 1);
    }

    /** Replay the stream from the start: reseed with the last seed. */
    void rewind() { reseed(seed_); }

    /** Raw generator state, for checkpointing mid-stream. */
    const std::array<std::uint64_t, 4> &
    state() const
    {
        return state_;
    }

    /** Resume a stream exactly where state() captured it. */
    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        state_ = s;
    }

  private:
    std::uint64_t seed_ = 0;
    std::array<std::uint64_t, 4> state_{};
};

} // namespace sim

#endif // TTDA_COMMON_RANDOM_HH
