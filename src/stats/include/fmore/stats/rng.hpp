#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace fmore::stats {

/// Deterministic, seedable random source used across the whole project.
///
/// All stochastic components (cost-parameter draws, resource dynamics,
/// dataset synthesis, tie-breaking coin flips, psi-FMore acceptance) take a
/// `Rng&` so experiments are reproducible from a single seed, mirroring the
/// paper's "average of five experiments" protocol where each trial gets its
/// own derived seed.
class Rng {
public:
    using engine_type = std::mt19937_64;

    explicit Rng(std::uint64_t seed = 0x5eedf00dULL) : engine_(seed) {}

    /// Uniform real in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Standard normal draw scaled to (mean, stddev).
    double normal(double mean, double stddev);

    /// Fill `out` with normal draws scaled to (mean, stddev): bit-identical
    /// to `out.size()` successive `normal(mean, stddev)` calls, and it
    /// leaves the engine in the same state. The per-call Marsaglia polar
    /// loop mispredicts its rejection branch and serializes its
    /// log/div/sqrt chain; this fill draws the engine outputs in batches,
    /// compacts the accepted pairs without branches and then runs the
    /// transcendental stages as straight loops.
    void normal_fill(std::span<double> out, double mean, double stddev);

    /// Bernoulli trial; the paper's coin flip for score ties and the
    /// psi-FMore per-node acceptance test.
    bool bernoulli(double p_true);

    /// Fisher-Yates shuffle of an index vector.
    void shuffle(std::vector<std::size_t>& items);

    /// Sample `k` distinct indices from [0, n) without replacement.
    std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

    /// Derive an independent child generator (for per-trial / per-node
    /// streams); uses splitmix-style mixing of the next engine output.
    Rng split();

    engine_type& engine() { return engine_; }

private:
    engine_type engine_;
};

/// Counter-derived random stream (splitmix64): a few arithmetic ops per
/// draw and O(1) construction, unlike the 312-word mt19937_64 state. This
/// is what makes per-node RNG streams affordable at million-node scale —
/// `mec::PopulationStore::evolve` seeds one stream per node from
/// (round salt, node id), so any partition of the nodes over threads
/// replays exactly the same draws.
class SplitMix64 {
public:
    /// Counter increment (the golden-ratio gamma of splitmix64).
    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /// The splitmix64 finalizer. The stream is counter-based: draw k
    /// (1-based) of a stream seeded with `s` is `mix(s + k * kGamma)`, so
    /// lane kernels can compute any draw straight from its index.
    static std::uint64_t mix(std::uint64_t z) {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /// Uniform real in [0, 1) from the top 53 bits of one draw.
    static double unit(std::uint64_t bits) {
        return static_cast<double>(bits >> 11) * 0x1.0p-53;
    }

    /// splitmix64 finalizer over an incrementing counter — the same mixing
    /// `Rng::split` uses for child streams.
    std::uint64_t next_u64() { return mix(state_ += kGamma); }

    /// Uniform real in [lo, hi) from one draw.
    double uniform(double lo, double hi) {
        const double u = unit(next_u64());
        return lo + (hi - lo) * u;
    }

private:
    std::uint64_t state_;
};

/// Well-separated stream seed for (salt, index) pairs: one splitmix64
/// finalize of the xor — cheap, and distinct indices under the same salt
/// land in statistically independent streams.
inline std::uint64_t derive_stream_seed(std::uint64_t salt, std::uint64_t index) {
    return SplitMix64::mix((salt ^ (index * SplitMix64::kGamma)) + SplitMix64::kGamma);
}

} // namespace fmore::stats
