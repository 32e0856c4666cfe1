#include "fmore/stats/rng.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace fmore::stats {

double Rng::uniform(double lo, double hi) {
    if (!(lo <= hi)) throw std::invalid_argument("Rng::uniform: lo > hi");
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

void Rng::normal_fill(std::span<double> out, double mean, double stddev) {
    // Replays libstdc++'s normal_distribution (bits/random.tcc), polar
    // method. `normal()` builds a fresh distribution per call, so each
    // output is the `y` variate of one accepted pair and the spare `x`
    // variate is discarded.
    //
    // Exact engine consumption: an output still missing needs at least one
    // more pair, so with `need` outputs missing the sequential loop is
    // certain to consume the next 2 * need engine outputs. Each pass draws
    // exactly those, keeps the pairs that pass the acceptance test in
    // order, and the next pass draws for the outputs still missing. The
    // engine never runs ahead of the per-call loop.
    constexpr std::size_t kBlock = 256;
    // generate_canonical<double, 64> over mt19937_64: one draw scaled by
    // 2^-64, where a result that rounds up to 1 is clamped below it.
    constexpr double kBelowOne = 0x1.fffffffffffffp-1;
    std::array<std::uint64_t, 2 * kBlock> bits{};
    std::array<double, kBlock> pair_y{};
    std::array<double, kBlock> pair_r2{};
    std::array<double, kBlock> ys{};
    std::array<double, kBlock> r2s{};
    std::array<double, kBlock> logs{};

    for (std::size_t base = 0; base < out.size(); base += kBlock) {
        const std::size_t m = std::min(kBlock, out.size() - base);
        std::size_t have = 0;
        while (have < m) {
            const std::size_t need = m - have;
            for (std::size_t k = 0; k < 2 * need; ++k) bits[k] = engine_();
            for (std::size_t p = 0; p < need; ++p) {
                const double ux = std::min(static_cast<double>(bits[2 * p]) * 0x1p-64, kBelowOne);
                const double uy =
                    std::min(static_cast<double>(bits[2 * p + 1]) * 0x1p-64, kBelowOne);
                const double x = 2.0 * ux - 1.0;
                const double y = 2.0 * uy - 1.0;
                pair_y[p] = y;
                pair_r2[p] = x * x + y * y;
            }
            // Branch-free compaction: every pair is written at the next
            // free slot, and only an accepted one advances it.
            for (std::size_t p = 0; p < need; ++p) {
                const double r2 = pair_r2[p];
                ys[have] = pair_y[p];
                r2s[have] = r2;
                have += static_cast<std::size_t>((r2 <= 1.0) & (r2 != 0.0));
            }
        }
        // Scalar glibc log, the same libm function the per-call path uses;
        // a vector libm would round differently.
        for (std::size_t i = 0; i < m; ++i) logs[i] = std::log(r2s[i]);
        // sqrt, division and the affine scale are IEEE-exact in any lane
        // width, so this loop vectorizes (rng.cpp builds with
        // -fno-math-errno, which drops sqrt's errno branch; the argument
        // is never negative).
        for (std::size_t i = 0; i < m; ++i) {
            out[base + i] = ys[i] * std::sqrt(-2 * logs[i] / r2s[i]) * stddev + mean;
        }
    }
}

bool Rng::bernoulli(double p_true) {
    p_true = std::clamp(p_true, 0.0, 1.0);
    std::bernoulli_distribution dist(p_true);
    return dist(engine_);
}

void Rng::shuffle(std::vector<std::size_t>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
    if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    // Partial Fisher-Yates: only the first k positions need to be shuffled.
    for (std::size_t i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(uniform_int(static_cast<std::int64_t>(i),
                                                            static_cast<std::int64_t>(n - 1)));
        std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
}

Rng Rng::split() {
    // splitmix64 finalizer over the next raw output gives a well-separated
    // child stream.
    std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    return Rng(z);
}

} // namespace fmore::stats
