#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fmore/stats/rng.hpp"

namespace fmore::stats {
namespace {

// `Rng::normal_fill` is the bulk path every dataset, embedding table and
// latency-factor vector is drawn through. Its spec is the per-call loop:
// the same doubles bit for bit, and the engine left in the same state, so
// the checkpointed engine text and every later draw are unchanged.

std::string engine_text(Rng& rng) {
    std::ostringstream os;
    os << rng.engine();
    return os.str();
}

void expect_fill_matches_calls(Rng& fill_rng, Rng& call_rng, std::size_t n, double mean,
                               double stddev) {
    std::vector<double> filled(n, -1.0);
    fill_rng.normal_fill(filled, mean, stddev);
    for (std::size_t i = 0; i < n; ++i) {
        const double want = call_rng.normal(mean, stddev);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(filled[i]), std::bit_cast<std::uint64_t>(want))
            << "n=" << n << " i=" << i << " mean=" << mean << " stddev=" << stddev;
    }
    ASSERT_EQ(engine_text(fill_rng), engine_text(call_rng)) << "n=" << n;
}

constexpr std::size_t kSizes[] = {0, 1, 2, 63, 64, 65, 144, 588, 4097};

struct Params {
    double mean;
    double stddev;
    std::uint64_t seed;
};

constexpr Params kParams[] = {
    {0.0, 1.0, 1},
    {0.0, 0.35, 2},
    {-3.25, 0.85, 0x5eedf00dULL},
    {1e6, 1e-3, 977},
};

TEST(RngNormalFill, MatchesSuccessiveNormalCalls) {
    for (const Params& p : kParams) {
        for (const std::size_t n : kSizes) {
            Rng a(p.seed);
            Rng b(p.seed);
            expect_fill_matches_calls(a, b, n, p.mean, p.stddev);
        }
    }
}

TEST(RngNormalFill, MatchesMidStreamAfterOtherDraws) {
    // Start after draws of every other kind, and chain fills of different
    // sizes back to back against the per-call loop.
    for (const Params& p : kParams) {
        Rng a(p.seed);
        Rng b(p.seed);
        for (Rng* r : {&a, &b}) {
            r->uniform(0.0, 1.0);
            r->uniform_int(0, 9);
            r->normal(0.0, 1.0);
            r->bernoulli(0.3);
        }
        for (const std::size_t n : kSizes) {
            expect_fill_matches_calls(a, b, n, p.mean, p.stddev);
            EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
        }
    }
}

TEST(RngNormalFill, LeavesCheckpointableEngineState) {
    // The text form is what run checkpoints store; a fill must leave it
    // exactly where the per-call loop does, also across the 312-word
    // refill boundary of the engine.
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 7; ++i) a.engine()();
    for (int i = 0; i < 7; ++i) b.engine()();
    std::vector<double> buf(1000);
    a.normal_fill(buf, 0.0, 1.0);
    for (std::size_t i = 0; i < buf.size(); ++i) b.normal(0.0, 1.0);
    EXPECT_EQ(engine_text(a), engine_text(b));

    std::istringstream is(engine_text(a));
    Rng restored;
    is >> restored.engine();
    EXPECT_EQ(restored.normal(0.0, 1.0), b.normal(0.0, 1.0));
}

TEST(RngNormalFill, FillsASubspanOnly) {
    Rng a(5);
    Rng b(5);
    std::vector<double> buf(10, 7.0);
    a.normal_fill(std::span<double>(buf).subspan(3, 4), 0.0, 1.0);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        if (i >= 3 && i < 7) {
            EXPECT_EQ(buf[i], b.normal(0.0, 1.0));
        } else {
            EXPECT_EQ(buf[i], 7.0);
        }
    }
}

} // namespace
} // namespace fmore::stats
