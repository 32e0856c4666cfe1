// The market round's lane kernels against their per-node scalar oracles,
// bit for bit: `PopulationStore`'s counter-indexed drift against drawing
// each node's SplitMix64 stream one call at a time, and `collect_bid_rows`'
// chunked phases against quoting each row on its own (`quality_into` +
// `quote_span` + the broadcast rule's `score_span`). The oracles below are
// the per-node loops the kernels replaced; they live here, not in src/.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/cost.hpp"
#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/stats/distributions.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::mec {
namespace {

// ---------------------------------------------------------------------------
// Drift oracle
// ---------------------------------------------------------------------------

// PopulationSnapshot column order.
constexpr std::size_t kTheta = 0, kData = 1, kBandwidth = 3, kCpu = 4, kDataCap = 5,
                      kBandwidthCap = 7, kCpuCap = 8;

/// One round of drift for row i, one stream call at a time.
void evolve_node_oracle(PopulationSnapshot& s, const ResourceDynamics& dyn, double theta_lo,
                        double theta_hi, std::size_t i, std::uint64_t salt) {
    stats::SplitMix64 stream(stats::derive_stream_seed(salt, s.node_offset + i));
    std::vector<std::vector<double>>& c = s.columns;
    const double jitter = dyn.resource_jitter;
    if (jitter > 0.0) {
        if (c[kBandwidthCap][i] > 0.0) {
            const double step = c[kBandwidthCap][i] * jitter;
            c[kBandwidth][i] = std::clamp(c[kBandwidth][i] + stream.uniform(-step, step),
                                          0.05 * c[kBandwidthCap][i], c[kBandwidthCap][i]);
        }
        if (c[kCpuCap][i] > 0.0) {
            const double step = c[kCpuCap][i] * jitter;
            c[kCpu][i] = std::clamp(c[kCpu][i] + stream.uniform(-step, step),
                                    0.05 * c[kCpuCap][i], c[kCpuCap][i]);
        }
        if (c[kDataCap][i] > 0.0) {
            const double step = c[kDataCap][i] * jitter;
            c[kData][i] = std::clamp(c[kData][i] + stream.uniform(0.0, step), 0.0,
                                     c[kDataCap][i]);
        }
    }
    if (dyn.theta_jitter > 0.0) {
        c[kTheta][i] =
            std::clamp(c[kTheta][i] + stream.uniform(-dyn.theta_jitter, dyn.theta_jitter),
                       theta_lo, theta_hi);
    }
}

void expect_columns_bit_identical(const PopulationSnapshot& want,
                                  const PopulationSnapshot& got) {
    ASSERT_EQ(want.columns.size(), got.columns.size());
    for (std::size_t c = 0; c < want.columns.size(); ++c) {
        ASSERT_EQ(want.columns[c].size(), got.columns[c].size());
        for (std::size_t i = 0; i < want.columns[c].size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(want.columns[c][i]),
                      std::bit_cast<std::uint64_t>(got.columns[c][i]))
                << "column " << c << " row " << i;
    }
}

PopulationStore make_synthetic_store(std::size_t n, double resource_jitter,
                                     double theta_jitter, std::uint64_t seed = 11) {
    const stats::UniformDistribution theta(0.5, 1.5);
    PopulationSpec spec;
    spec.dynamics.resource_jitter = resource_jitter;
    spec.dynamics.theta_jitter = theta_jitter;
    stats::Rng rng(seed);
    return PopulationStore(n, SyntheticDataSpec{}, theta, spec, rng);
}

/// Drift `store` for `rounds` rounds and check every column against the
/// oracle replayed on a snapshot taken before.
void expect_drift_matches_oracle(PopulationStore& store, std::size_t rounds) {
    PopulationSnapshot want = store.snapshot();
    stats::Rng salts(0xd21f7);
    for (std::size_t round = 0; round < rounds; ++round) {
        const std::uint64_t salt = salts.engine()();
        for (std::size_t i = 0; i < store.size(); ++i)
            evolve_node_oracle(want, store.dynamics(), store.theta_lo(), store.theta_hi(), i,
                               salt);
        store.evolve_with_salt(salt);
        expect_columns_bit_identical(want, store.snapshot());
        if (::testing::Test::HasFatalFailure()) return;
    }
}

TEST(LaneOracleEvolve, RaggedSizesMatchTheScalarStreams) {
    for (std::size_t n = 1; n <= 37; ++n) {
        SCOPED_TRACE(n);
        PopulationStore store = make_synthetic_store(n, 0.15, 0.05, 100 + n);
        expect_drift_matches_oracle(store, 3);
        if (HasFatalFailure()) return;
    }
    PopulationStore big = make_synthetic_store(4097, 0.15, 0.05);
    expect_drift_matches_oracle(big, 3);
}

TEST(LaneOracleEvolve, ShardSlicesKeepTheirGlobalStreams) {
    const PopulationStore whole = make_synthetic_store(4200, 0.15, 0.05);
    std::vector<PopulationStore> shards = whole.split({5, 37, 4101});
    ASSERT_EQ(shards.size(), 4U);
    for (PopulationStore& shard : shards) {
        SCOPED_TRACE(shard.node_offset());
        expect_drift_matches_oracle(shard, 3);
        if (HasFatalFailure()) return;
    }
}

TEST(LaneOracleEvolve, ZeroCapsInEverySubsetShiftTheDrawIndex) {
    // Row i zeroes the caps named by the bits of i % 8, so every subset of
    // {bandwidth, cpu, data} sits next to every other in the same lanes.
    for (const double theta_jitter : {0.0, 0.05}) {
        for (const double resource_jitter : {0.0, 0.15}) {
            SCOPED_TRACE(::testing::Message()
                         << "resource_jitter=" << resource_jitter
                         << " theta_jitter=" << theta_jitter);
            PopulationStore store = make_synthetic_store(61, resource_jitter, theta_jitter);
            PopulationSnapshot snap = store.snapshot();
            for (std::size_t i = 0; i < store.size(); ++i) {
                const std::size_t mask = i % 8;
                if ((mask & 1U) != 0) snap.columns[kBandwidthCap][i] = 0.0;
                if ((mask & 2U) != 0) snap.columns[kCpuCap][i] = 0.0;
                if ((mask & 4U) != 0) snap.columns[kDataCap][i] = 0.0;
            }
            store.restore(snap);
            expect_drift_matches_oracle(store, 4);
            if (HasFatalFailure()) return;
        }
    }
}

TEST(LaneOracleEvolve, ShardWithZeroCapsAndThetaAtTheSupportEnds) {
    PopulationStore whole = make_synthetic_store(300, 0.2, 0.3);
    PopulationSnapshot snap = whole.snapshot();
    for (std::size_t i = 0; i < whole.size(); ++i) {
        if (i % 3 == 0) snap.columns[kTheta][i] = whole.theta_lo();
        if (i % 3 == 1) snap.columns[kTheta][i] = whole.theta_hi();
        if (i % 5 == 0) snap.columns[kCpuCap][i] = 0.0;
        if (i % 7 == 0) snap.columns[kBandwidthCap][i] = 0.0;
    }
    whole.restore(snap);
    std::vector<PopulationStore> shards = whole.split({131});
    expect_drift_matches_oracle(shards[1], 5);
}

// ---------------------------------------------------------------------------
// Bid-row oracle
// ---------------------------------------------------------------------------

/// The per-row collect pass the lane kernel replaced.
void collect_oracle(const PopulationStore& store, std::size_t lo, std::size_t hi,
                    const QualityLayout& layout, const auction::EquilibriumStrategy& strategy,
                    const auction::ScoringRule& scoring, bool strategy_scores_broadcast_rule,
                    auction::PaymentMethod method, const Blacklist& blacklist,
                    auction::BidFrame& frame, std::size_t frame_base) {
    const std::size_t dims = layout.size();
    for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t row = frame_base + (i - lo);
        if (blacklist.contains(store.node_offset() + i)) {
            frame.set_active(row, false);
            continue;
        }
        double* q = frame.quality_row(row);
        const double theta = store.theta(i);
        strategy.quality_into(theta, q);
        for (std::size_t d = 0; d < dims; ++d) {
            const double avail = store.column(layout[d])[i];
            if (q[d] > avail) q[d] = avail;
        }
        const auction::EquilibriumStrategy::SealedQuote quote =
            strategy.quote_span(q, dims, theta, method);
        frame.payment(row) = quote.payment;
        frame.score(row) = strategy_scores_broadcast_rule
                               ? quote.quality_score - quote.payment
                               : scoring.score_span(q, dims, quote.payment);
    }
}

void expect_frames_bit_identical(const auction::BidFrame& want, const auction::BidFrame& got) {
    ASSERT_EQ(want.rows(), got.rows());
    ASSERT_EQ(want.dims(), got.dims());
    for (auction::NodeId row = 0; row < want.rows(); ++row) {
        ASSERT_EQ(want.active(row), got.active(row)) << "row " << row;
        if (!want.active(row)) continue;
        for (std::size_t d = 0; d < want.dims(); ++d)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(want.quality_row(row)[d]),
                      std::bit_cast<std::uint64_t>(got.quality_row(row)[d]))
                << "row " << row << " dim " << d;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want.payment(row)),
                  std::bit_cast<std::uint64_t>(got.payment(row)))
            << "row " << row;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want.score(row)),
                  std::bit_cast<std::uint64_t>(got.score(row)))
            << "row " << row;
    }
}

/// A scoring rule with no row override: the default adapter runs.
class SqrtBlendScoring final : public auction::ScoringRule {
public:
    [[nodiscard]] double quality_score(const auction::QualityVector& q) const override {
        return 3.0 * std::sqrt(q[0] / 150.0) * q[1] + 0.25 * q[1];
    }
    [[nodiscard]] std::size_t dimensions() const override { return 2; }
};

/// A cost model with no row override: the default adapter runs.
class QuadraticDataCost final : public auction::CostModel {
public:
    [[nodiscard]] double cost(const auction::QualityVector& q, double theta) const override {
        const double x = q[0] / 150.0;
        return theta * (0.8 * x * x + 0.5 * q[1]);
    }
    [[nodiscard]] double cost_theta_derivative(const auction::QualityVector& q,
                                               double) const override {
        const double x = q[0] / 150.0;
        return 0.8 * x * x + 0.5 * q[1];
    }
    [[nodiscard]] std::size_t dimensions() const override { return 2; }
};

/// A cost that ignores the type: every type reaches the same score, so
/// the solved strategy is degenerate (zero markup everywhere).
class TypeFreeCost final : public auction::CostModel {
public:
    [[nodiscard]] double cost(const auction::QualityVector& q, double) const override {
        return 0.01 * q[0] + 0.5 * q[1];
    }
    [[nodiscard]] double cost_theta_derivative(const auction::QualityVector&,
                                               double) const override {
        return 0.0;
    }
    [[nodiscard]] std::size_t dimensions() const override { return 2; }
};

/// A solved market: scoring, cost, theta law and the equilibrium strategy.
struct Market {
    std::unique_ptr<auction::ScoringRule> scoring;
    std::unique_ptr<auction::CostModel> cost;
    std::unique_ptr<stats::UniformDistribution> theta;
    std::unique_ptr<auction::EquilibriumStrategy> strategy;
    QualityLayout layout;
};

Market solve_market(std::unique_ptr<auction::ScoringRule> scoring,
                    std::unique_ptr<auction::CostModel> cost, QualityLayout layout,
                    auction::QualityVector q_lo, auction::QualityVector q_hi) {
    Market m;
    m.scoring = std::move(scoring);
    m.cost = std::move(cost);
    m.theta = std::make_unique<stats::UniformDistribution>(0.5, 1.5);
    m.layout = std::move(layout);
    auction::EquilibriumConfig eq;
    eq.num_bidders = 200;
    eq.num_winners = 20;
    const auction::EquilibriumSolver solver(*m.scoring, *m.cost, *m.theta, std::move(q_lo),
                                            std::move(q_hi), eq);
    m.strategy = std::make_unique<auction::EquilibriumStrategy>(solver.solve());
    return m;
}

/// The simulator's market: alpha * q1 * q2 over a normalized data dim.
Market simulation_market() {
    std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, 150.0),
                                               stats::MinMaxNormalizer(0.0, 1.0)};
    return solve_market(
        std::make_unique<auction::ScaledProductScoring>(25.0, 2, norms),
        std::make_unique<auction::AdditiveCost>(std::vector<double>{6.0 / 150.0, 2.0}),
        {ResourceDim::data_size, ResourceDim::category_proportion}, {1.0, 0.05},
        {150.0, 1.0});
}

/// The testbed's market: additive scoring over three normalized dims.
Market testbed_market() {
    std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, 8.0),
                                               stats::MinMaxNormalizer(0.0, 1000.0),
                                               stats::MinMaxNormalizer(0.0, 150.0)};
    return solve_market(
        std::make_unique<auction::AdditiveScoring>(std::vector<double>{0.4, 0.3, 0.3}, norms),
        std::make_unique<auction::AdditiveCost>(
            std::vector<double>{0.15 / 8.0, 0.10 / 1000.0, 0.20 / 150.0}),
        {ResourceDim::cpu, ResourceDim::bandwidth, ResourceDim::data_size}, {0.5, 10.0, 1.0},
        {8.0, 1000.0, 150.0});
}

Market custom_market() {
    return solve_market(std::make_unique<SqrtBlendScoring>(),
                        std::make_unique<QuadraticDataCost>(),
                        {ResourceDim::data_size, ResourceDim::category_proportion},
                        {1.0, 0.05}, {150.0, 1.0});
}

/// A store whose rows cover the awkward cases: theta exactly at, below and
/// above the strategy's grid ends, and availability caps small enough to
/// clip the equilibrium quality (which pushes u below the score grid).
PopulationStore awkward_store(std::size_t n, const auction::EquilibriumStrategy& strategy) {
    PopulationStore store = make_synthetic_store(n, 0.1, 0.02, 31);
    PopulationSnapshot snap = store.snapshot();
    const double lo = strategy.theta_lo();
    const double hi = strategy.theta_hi();
    for (std::size_t i = 0; i < n; ++i) {
        switch (i % 9) {
            case 0: snap.columns[kTheta][i] = lo; break;
            case 1: snap.columns[kTheta][i] = hi; break;
            case 2:
                // Below the grid with everything available: the cheapest
                // type's quality at a lower cost scores above the grid.
                snap.columns[kTheta][i] = lo - 0.25;
                for (const std::size_t c : {kData, std::size_t{2}, kBandwidth, kCpu})
                    snap.columns[c][i] = 1e6;
                continue;
            case 3: snap.columns[kTheta][i] = hi + 0.25; break;
            case 4: snap.columns[kTheta][i] = std::nextafter(lo, hi); break;
            default: break;
        }
        if (i % 4 == 0) {
            snap.columns[kData][i] = 1.5;
            snap.columns[kCpu][i] = 0.6;
        }
        if (i % 6 == 0) snap.columns[2][i] = 0.06;  // category proportion
    }
    store.restore(snap);
    return store;
}

/// Run the kernel and the oracle over the same rows and compare frames.
void expect_collect_matches_oracle(const Market& m, const auction::ScoringRule& broadcast,
                                   const PopulationStore& store, const Blacklist& banned,
                                   std::size_t lo, std::size_t hi, std::size_t frame_base,
                                   bool parallel) {
    const bool reuse = m.strategy->scoring_rule() == &broadcast;
    const std::size_t rows = frame_base + (hi - lo);
    for (const auction::PaymentMethod method :
         {auction::PaymentMethod::integral, auction::PaymentMethod::euler_ode,
          auction::PaymentMethod::rk4_ode}) {
        SCOPED_TRACE(static_cast<int>(method));
        auction::BidFrame want(rows, m.layout.size());
        auction::BidFrame got(rows, m.layout.size());
        collect_oracle(store, lo, hi, m.layout, *m.strategy, broadcast, reuse, method, banned,
                       want, frame_base);
        std::vector<const double*> columns;
        collect_bid_rows(store, lo, hi, m.layout, *m.strategy, broadcast, reuse, method,
                         banned, got, frame_base, columns, parallel);
        expect_frames_bit_identical(want, got);
        if (::testing::Test::HasFatalFailure()) return;
    }
}

/// Rows whose score u = s(q) - c falls below / above the score grid —
/// the two ends the markup lookup clamps.
std::pair<std::size_t, std::size_t> off_grid_rows(const Market& m,
                                                  const PopulationStore& store) {
    const std::size_t dims = m.layout.size();
    std::vector<double> q(dims);
    std::size_t below = 0;
    std::size_t above = 0;
    for (std::size_t i = 0; i < store.size(); ++i) {
        m.strategy->quality_into(store.theta(i), q.data());
        for (std::size_t d = 0; d < dims; ++d)
            q[d] = std::min(q[d], store.column(m.layout[d])[i]);
        const double u = m.scoring->quality_score_span(q.data(), dims)
                         - m.cost->cost_span(q.data(), dims, store.theta(i));
        below += u < m.strategy->score_lo() ? 1 : 0;
        above += u > m.strategy->score_hi() ? 1 : 0;
    }
    return {below, above};
}

void expect_market_matches_oracle(const Market& m) {
    const PopulationStore store = awkward_store(1500, *m.strategy);
    const auto [below, above] = off_grid_rows(m, store);
    EXPECT_GT(below, 0U) << "no row clamps u at the low end of the score grid";
    EXPECT_GT(above, 0U) << "no row clamps u at the high end of the score grid";
    Blacklist banned;
    for (const std::size_t node : {0UL, 1UL, 2UL, 513UL, 514UL, 1023UL, 1499UL})
        banned.ban(node);
    // Whole store; a range landing at a frame offset (the sharded gather
    // lane); and a single row.
    expect_collect_matches_oracle(m, *m.scoring, store, banned, 0, store.size(), 0, false);
    expect_collect_matches_oracle(m, *m.scoring, store, banned, 300, 1201, 57, false);
    expect_collect_matches_oracle(m, *m.scoring, store, banned, 7, 8, 0, false);
    // Empty blacklist: one lane chunk after another, no gaps.
    expect_collect_matches_oracle(m, *m.scoring, store, Blacklist{}, 0, store.size(), 0,
                                  false);
}

TEST(LaneOracleBidRows, SimulationMarketMatchesThePerRowQuotes) {
    expect_market_matches_oracle(simulation_market());
}

TEST(LaneOracleBidRows, TestbedMarketMatchesThePerRowQuotes) {
    expect_market_matches_oracle(testbed_market());
}

TEST(LaneOracleBidRows, CustomRuleAndCostRunTheDefaultRowAdapters) {
    expect_market_matches_oracle(custom_market());
}

TEST(LaneOracleBidRows, DegenerateStrategyQuotesZeroMarkup) {
    std::vector<stats::MinMaxNormalizer> norms{stats::MinMaxNormalizer(0.0, 150.0),
                                               stats::MinMaxNormalizer(0.0, 1.0)};
    const Market m = solve_market(
        std::make_unique<auction::ScaledProductScoring>(25.0, 2, norms),
        std::make_unique<TypeFreeCost>(),
        {ResourceDim::data_size, ResourceDim::category_proportion}, {1.0, 0.05}, {150.0, 1.0});
    ASSERT_EQ(m.strategy->score_lo(), m.strategy->score_hi());
    const PopulationStore store = awkward_store(600, *m.strategy);
    Blacklist banned;
    banned.ban(10);
    expect_collect_matches_oracle(m, *m.scoring, store, banned, 0, store.size(), 0, false);
}

TEST(LaneOracleBidRows, ForeignBroadcastRuleRescoresTheRows) {
    // The strategy was solved against its own rule; the selector broadcasts
    // a different one, so the quote's s(q) cannot be reused.
    const Market m = simulation_market();
    const auction::LeontiefScoring broadcast(
        {2.0, 3.0}, {stats::MinMaxNormalizer(0.0, 150.0), stats::MinMaxNormalizer(0.0, 1.0)});
    const PopulationStore store = awkward_store(700, *m.strategy);
    Blacklist banned;
    banned.ban(3);
    banned.ban(4);
    expect_collect_matches_oracle(m, broadcast, store, banned, 0, store.size(), 0, false);
    const SqrtBlendScoring custom;
    expect_collect_matches_oracle(m, custom, store, banned, 0, store.size(), 0, false);
}

TEST(LaneOracleBidRows, ParallelChunksMatchTheOracle) {
    const Market m = simulation_market();
    const PopulationStore store = awkward_store(9000, *m.strategy);
    Blacklist banned;
    for (std::size_t node = 0; node < store.size(); node += 997) banned.ban(node);
    expect_collect_matches_oracle(m, *m.scoring, store, banned, 0, store.size(), 0, true);
}

TEST(LaneOracleBidRows, ShardStoreUsesGlobalBlacklistIds) {
    const Market m = testbed_market();
    const PopulationStore whole = awkward_store(1200, *m.strategy);
    const std::vector<PopulationStore> shards = whole.split({450});
    Blacklist banned;
    banned.ban(449);
    banned.ban(450);
    banned.ban(451);
    banned.ban(1199);
    expect_collect_matches_oracle(m, *m.scoring, shards[1], banned, 0, shards[1].size(), 0,
                                  false);
}

TEST(LaneOracleBidRows, StrategyRowFormsMatchTheSpanForms) {
    for (const Market& m : {simulation_market(), testbed_market(), custom_market()}) {
        const auction::EquilibriumStrategy& s = *m.strategy;
        const std::size_t dims = s.dimensions();
        // Every knot of the solver's theta grid, the midpoints between
        // them, both ends and beyond.
        const std::size_t g = auction::EquilibriumConfig{}.theta_grid_points;
        std::vector<double> thetas{s.theta_lo() - 1.0, s.theta_hi() + 1.0};
        for (std::size_t j = 0; j < g; ++j) {
            const double knot = s.theta_lo()
                                + (s.theta_hi() - s.theta_lo()) * static_cast<double>(j)
                                      / static_cast<double>(g - 1);
            thetas.push_back(knot);
            thetas.push_back(std::nextafter(knot, 0.0));
            thetas.push_back(knot + 0.37 * (s.theta_hi() - s.theta_lo()) / (g - 1));
        }
        const std::size_t rows = thetas.size();
        std::vector<double> q(rows * dims);
        s.quality_rows(thetas.data(), rows, q.data());
        std::vector<double> one(dims);
        for (std::size_t r = 0; r < rows; ++r) {
            s.quality_into(thetas[r], one.data());
            for (std::size_t d = 0; d < dims; ++d)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(one[d]),
                          std::bit_cast<std::uint64_t>(q[r * dims + d]))
                    << "theta " << thetas[r] << " dim " << d;
        }
        // Clip a few rows hard so their scores fall off the grid's low end.
        for (std::size_t r = 0; r < rows; r += 5) q[r * dims] *= 0.01;
        std::vector<double> payment(rows), score(rows), markup(rows);
        for (const auction::PaymentMethod method :
             {auction::PaymentMethod::integral, auction::PaymentMethod::euler_ode,
              auction::PaymentMethod::rk4_ode}) {
            s.quote_rows(q.data(), rows, thetas.data(), method, payment.data(), score.data(),
                         markup.data());
            for (std::size_t r = 0; r < rows; ++r) {
                const auction::EquilibriumStrategy::SealedQuote quote =
                    s.quote_span(q.data() + r * dims, dims, thetas[r], method);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(quote.payment),
                          std::bit_cast<std::uint64_t>(payment[r]))
                    << "row " << r;
                ASSERT_EQ(std::bit_cast<std::uint64_t>(quote.quality_score),
                          std::bit_cast<std::uint64_t>(score[r]))
                    << "row " << r;
            }
        }
    }
}

} // namespace
} // namespace fmore::mec
