// The auction-side lane kernels against their scalar oracles, bit for bit:
// the built-in scoring rules' and cost models' row hooks against their
// `_span` forms, and the score-gated bounded-heap scans (`collect_shard_head`,
// `rank_frame`'s fused top-K and `StreamingMarket::offer`'s heaps) against
// the unfiltered heap and the vector/batch ranking, with many exactly tied
// scores at the cutoff in both tie modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/auction/cost.hpp"
#include "fmore/auction/mechanism.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/shard_merge.hpp"
#include "fmore/auction/streaming_market.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::auction {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// ---------------------------------------------------------------------------
// Row hooks
// ---------------------------------------------------------------------------

/// Row-major quality rows: values inside, at and outside the normalizer
/// ranges, including exact zeros.
std::vector<double> quality_rows(std::size_t rows, std::size_t dims, std::uint64_t seed) {
    stats::Rng rng(seed);
    std::vector<double> q(rows * dims);
    for (std::size_t i = 0; i < q.size(); ++i) {
        switch (i % 7) {
            case 0: q[i] = 0.0; break;
            case 1: q[i] = 1.0; break;
            case 2: q[i] = rng.uniform(1.0, 3.0); break;  // past a [0, 1] range
            default: q[i] = rng.uniform(0.0, 1.0); break;
        }
    }
    return q;
}

void expect_score_rows_match_span(const ScoringRule& rule, std::size_t dims) {
    // 37 rows: every SIMD width leaves a tail.
    for (const std::size_t rows : {std::size_t{1}, std::size_t{2}, std::size_t{37}}) {
        const std::vector<double> q = quality_rows(rows, dims, 5 + rows);
        std::vector<double> got(rows, -1.0);
        rule.quality_score_rows(q.data(), rows, dims, got.data());
        for (std::size_t r = 0; r < rows; ++r)
            ASSERT_EQ(bits(rule.quality_score_span(q.data() + r * dims, dims)), bits(got[r]))
                << "row " << r << " of " << rows;
    }
}

std::vector<stats::MinMaxNormalizer> norms(std::size_t dims) {
    std::vector<stats::MinMaxNormalizer> out;
    for (std::size_t d = 0; d < dims; ++d) out.emplace_back(0.0, 0.5 + static_cast<double>(d));
    return out;
}

/// A rule with no row override: the default adapter runs.
class HarmonicScoring final : public ScoringRule {
public:
    [[nodiscard]] double quality_score(const QualityVector& q) const override {
        double total = 0.0;
        for (const double x : q) total += 1.0 / (1.0 + x);
        return total;
    }
    [[nodiscard]] std::size_t dimensions() const override { return 3; }
};

TEST(LaneOracleRowHooks, BuiltInScoringRowsMatchTheirSpanForms) {
    for (const std::size_t dims : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE(dims);
        const std::vector<double> alpha{0.4, 0.35, 0.25};
        const std::vector<double> a(alpha.begin(), alpha.begin() + dims);
        expect_score_rows_match_span(AdditiveScoring(a), dims);
        expect_score_rows_match_span(AdditiveScoring(a, norms(dims)), dims);
        expect_score_rows_match_span(LeontiefScoring(a), dims);
        expect_score_rows_match_span(LeontiefScoring(a, norms(dims)), dims);
        expect_score_rows_match_span(CobbDouglasScoring(a), dims);
        expect_score_rows_match_span(CobbDouglasScoring(a, norms(dims)), dims);
        expect_score_rows_match_span(ScaledProductScoring(25.0, dims), dims);
        expect_score_rows_match_span(ScaledProductScoring(25.0, dims, norms(dims)), dims);
    }
    expect_score_rows_match_span(HarmonicScoring(), 3);
}

TEST(LaneOracleRowHooks, ScoringRowsKeepTheSpanFormsErrors) {
    const std::vector<double> q{0.5, -1.0, 0.5, 0.5};
    std::vector<double> out(2);
    EXPECT_THROW(CobbDouglasScoring({0.5, 0.5}).quality_score_rows(q.data(), 2, 2, out.data()),
                 std::domain_error);
    EXPECT_THROW(AdditiveScoring({0.5, 0.5}).quality_score_rows(q.data(), 1, 3, out.data()),
                 std::invalid_argument);
    EXPECT_THROW(LeontiefScoring({0.5, 0.5}).quality_score_rows(q.data(), 1, 3, out.data()),
                 std::invalid_argument);
    EXPECT_THROW(ScaledProductScoring(2.0, 2).quality_score_rows(q.data(), 1, 3, out.data()),
                 std::invalid_argument);
    EXPECT_THROW(AdditiveCost({1.0, 2.0}).cost_rows(q.data(), 1, 3, q.data(), out.data()),
                 std::invalid_argument);
}

TEST(LaneOracleRowHooks, CostRowsMatchTheirSpanForms) {
    const std::size_t rows = 37;
    for (const std::size_t dims : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        SCOPED_TRACE(dims);
        const std::vector<double> betas(dims, 0.7);
        const AdditiveCost additive(betas);
        const QuadraticCost quadratic(betas);  // default adapter
        const std::vector<double> q = quality_rows(rows, dims, 17 + dims);
        std::vector<double> theta(rows);
        for (std::size_t r = 0; r < rows; ++r) theta[r] = 0.5 + 0.03 * static_cast<double>(r);
        for (const CostModel* model : {static_cast<const CostModel*>(&additive),
                                       static_cast<const CostModel*>(&quadratic)}) {
            std::vector<double> got(rows, -1.0);
            model->cost_rows(q.data(), rows, dims, theta.data(), got.data());
            for (std::size_t r = 0; r < rows; ++r)
                ASSERT_EQ(bits(model->cost_span(q.data() + r * dims, dims, theta[r])),
                          bits(got[r]))
                    << "row " << r;
        }
    }
}

// ---------------------------------------------------------------------------
// Score-gated head scans
// ---------------------------------------------------------------------------

/// A scored frame whose scores take only six values, so thousands of rows
/// tie exactly at any cutoff; every 11th row is inactive.
BidFrame tied_frame(std::size_t rows, std::uint64_t seed) {
    stats::Rng rng(seed);
    BidFrame frame(rows, 2);
    for (NodeId row = 0; row < rows; ++row) {
        frame.quality_row(row)[0] = std::floor(rng.uniform(0.0, 4.0));
        frame.quality_row(row)[1] = std::floor(rng.uniform(0.0, 3.0));
        frame.payment(row) = 0.0;
        if (row % 11 == 3) frame.set_active(row, false);
    }
    const AdditiveScoring scoring({1.0, 1.0});
    for (NodeId row = 0; row < rows; ++row)
        frame.score(row) = scoring.score_span(frame.quality_row(row), 2, frame.payment(row));
    frame.set_scored(true);
    return frame;
}

/// The bounded-heap scan without the score gate.
void collect_head_oracle(const BidFrame& frame, std::size_t begin_row, std::size_t end_row,
                         std::size_t node_offset, const TieKeys& keys, std::size_t limit,
                         ShardHead& out) {
    out.clear();
    out.dims = frame.dims();
    if (limit == 0) return;
    std::vector<HeadRow>& heap = out.rows;
    for (NodeId row = begin_row; row < end_row; ++row) {
        if (!frame.active(row)) continue;
        const NodeId global = node_offset + row;
        const HeadRow cand{global, frame.score(row), keys.key(global), frame.payment(row)};
        if (heap.size() < limit) {
            heap.push_back(cand);
            std::push_heap(heap.begin(), heap.end(), head_row_better);
        } else if (head_row_better(cand, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), head_row_better);
            heap.back() = cand;
            std::push_heap(heap.begin(), heap.end(), head_row_better);
        }
    }
    std::sort(heap.begin(), heap.end(), head_row_better);
    out.quality.resize(heap.size() * out.dims);
    for (std::size_t r = 0; r < heap.size(); ++r) {
        const double* q = frame.quality_row(heap[r].node - node_offset);
        std::copy(q, q + out.dims, out.quality.begin() + r * out.dims);
    }
}

void expect_heads_equal(const ShardHead& want, const ShardHead& got) {
    ASSERT_EQ(want.rows.size(), got.rows.size());
    for (std::size_t r = 0; r < want.rows.size(); ++r) {
        EXPECT_EQ(want.rows[r].node, got.rows[r].node) << "rank " << r;
        EXPECT_EQ(bits(want.rows[r].score), bits(got.rows[r].score)) << "rank " << r;
        EXPECT_EQ(want.rows[r].key, got.rows[r].key) << "rank " << r;
        EXPECT_EQ(bits(want.rows[r].payment), bits(got.rows[r].payment)) << "rank " << r;
    }
    EXPECT_EQ(want.quality, got.quality);
}

TEST(LaneOracleHeadScan, GatedShardHeadMatchesTheUnfilteredHeap) {
    const std::size_t n = 3000;
    const BidFrame frame = tied_frame(n, 9);
    // Shuffle mode: a coin-flip permutation of global ids; salted mode: a
    // round salt hashed with the global id.
    std::vector<std::size_t> order(n + 500);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    stats::Rng rng(4);
    rng.shuffle(order);
    std::vector<std::uint32_t> pos(order.size());
    for (std::size_t j = 0; j < order.size(); ++j) pos[order[j]] = static_cast<std::uint32_t>(j);
    TieKeys shuffle;
    shuffle.pos = pos.data();
    TieKeys salted;
    salted.salted = true;
    salted.salt = 0x5a17ed;

    for (const TieKeys& keys : {shuffle, salted}) {
        for (const std::size_t limit : {std::size_t{1}, std::size_t{8}, std::size_t{33},
                                        std::size_t{400}, std::size_t{5000}}) {
            SCOPED_TRACE(::testing::Message() << "salted=" << keys.salted << " limit=" << limit);
            ShardHead want;
            ShardHead got;
            collect_head_oracle(frame, 0, n, 500, keys, limit, want);
            collect_shard_head(frame, 500, keys, limit, got);
            expect_heads_equal(want, got);
            // A virtual shard of the same frame (row-range overload).
            collect_head_oracle(frame, 777, 2048, 0, keys, limit, want);
            collect_shard_head(frame, 777, 2048, 0, keys, limit, got);
            expect_heads_equal(want, got);
        }
    }
}

TEST(LaneOracleHeadScan, GatedRankFrameMatchesTheVectorRanking) {
    const std::size_t n = 2500;
    const BidFrame frame = tied_frame(n, 12);
    std::vector<Bid> bids;
    frame.to_bids(bids);
    const AdditiveScoring scoring({1.0, 1.0});
    for (const TieBreak tie : {TieBreak::shuffle, TieBreak::salted}) {
        for (const PaymentRule rule : {PaymentRule::first_price, PaymentRule::second_price}) {
            for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{200}}) {
                SCOPED_TRACE(::testing::Message()
                             << "salted=" << (tie == TieBreak::salted)
                             << " second=" << (rule == PaymentRule::second_price) << " k=" << k);
                MechanismSpec spec;
                spec.num_winners = k;
                spec.payment_rule = rule;
                spec.full_ranking = false;
                spec.tie_break = tie;
                const ScoreAuctionMechanism engine(spec);
                stats::Rng rng_vec(77);
                stats::Rng rng_frame(77);
                const std::vector<ScoredBid> want = engine.rank(scoring, bids, rng_vec);
                RankScratch scratch;
                std::vector<ScoredBid> got;
                engine.rank_frame(scoring, frame, rng_frame, scratch, got);
                ASSERT_EQ(want.size(), got.size());
                for (std::size_t r = 0; r < want.size(); ++r) {
                    EXPECT_EQ(want[r].bid.node, got[r].bid.node) << "rank " << r;
                    EXPECT_EQ(bits(want[r].score), bits(got[r].score)) << "rank " << r;
                    EXPECT_EQ(bits(want[r].bid.payment), bits(got[r].bid.payment));
                    EXPECT_EQ(want[r].bid.quality, got[r].bid.quality) << "rank " << r;
                }
                // Same generator draws consumed.
                EXPECT_EQ(rng_vec.engine()(), rng_frame.engine()());
            }
        }
    }
}

/// Evictions an unfiltered bounded heap of `cap` makes over `arrivals`
/// once full — the live head's churn without the score gate.
std::size_t churn_oracle(const std::vector<RankScratch::Candidate>& arrivals, std::size_t cap) {
    const auto better = [](const RankScratch::Candidate& a, const RankScratch::Candidate& b) {
        if (a.score != b.score) return a.score > b.score;
        if (a.key != b.key) return a.key < b.key;
        return a.node < b.node;
    };
    std::vector<RankScratch::Candidate> heap;
    std::size_t churn = 0;
    for (const RankScratch::Candidate& cand : arrivals) {
        if (heap.size() < cap) {
            heap.push_back(cand);
            std::push_heap(heap.begin(), heap.end(), better);
        } else if (better(cand, heap.front())) {
            std::pop_heap(heap.begin(), heap.end(), better);
            heap.back() = cand;
            std::push_heap(heap.begin(), heap.end(), better);
            ++churn;
        }
    }
    return churn;
}

TEST(LaneOracleHeadScan, GatedStreamingOffersMatchTheBatchRanking) {
    const std::size_t n = 2500;
    const BidFrame frame = tied_frame(n, 21);
    const AdditiveScoring scoring({1.0, 1.0});
    std::vector<NodeId> order;
    for (NodeId row = 0; row < n; ++row)
        if (frame.active(row)) order.push_back(row);
    stats::Rng shuffler(8);
    for (const TieBreak tie : {TieBreak::shuffle, TieBreak::salted}) {
        for (const std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{200}}) {
            SCOPED_TRACE(::testing::Message()
                         << "salted=" << (tie == TieBreak::salted) << " k=" << k);
            MechanismSpec spec;
            spec.num_winners = k;
            spec.full_ranking = false;
            spec.tie_break = tie;
            const std::shared_ptr<const Mechanism> engine(make_mechanism(spec));
            std::vector<std::size_t> shuffled(order.begin(), order.end());
            shuffler.shuffle(shuffled);

            stats::Rng rng_batch(91);
            RankScratch scratch;
            AuctionOutcome batch;
            engine->run_frame(scoring, frame, rng_batch, scratch, batch);

            stats::Rng rng_stream(91);
            stats::Rng rng_salt(91);
            const std::uint64_t salt =
                tie == TieBreak::salted ? rng_salt.engine()() : std::uint64_t{0};
            StreamingMarket market(engine, scoring);
            StreamingRoundSpec round;
            round.expected_bids = shuffled.size();
            market.open_round(n, 2, round, rng_stream);
            std::vector<RankScratch::Candidate> arrivals;
            double clock = 0.0;
            for (const std::size_t node : shuffled) {
                ASSERT_TRUE(market.offer(node, frame.quality_row(node), frame.payment(node),
                                         frame.score(node), clock));
                clock += 1e-6;
                const std::uint64_t key =
                    tie == TieBreak::salted ? stats::derive_stream_seed(salt, node) : 0;
                arrivals.push_back({frame.score(node), key, node});
            }
            EXPECT_EQ(churn_oracle(arrivals, k), market.head_churn());
            const AuctionOutcome& got = market.close_round(rng_stream);
            ASSERT_EQ(batch.ranking.size(), got.ranking.size());
            for (std::size_t r = 0; r < batch.ranking.size(); ++r) {
                EXPECT_EQ(batch.ranking[r].bid.node, got.ranking[r].bid.node) << "rank " << r;
                EXPECT_EQ(bits(batch.ranking[r].score), bits(got.ranking[r].score));
            }
            ASSERT_EQ(batch.winners.size(), got.winners.size());
            for (std::size_t w = 0; w < batch.winners.size(); ++w) {
                EXPECT_EQ(batch.winners[w].node, got.winners[w].node) << "winner " << w;
                EXPECT_EQ(bits(batch.winners[w].payment), bits(got.winners[w].payment));
            }
        }
    }
}

} // namespace
} // namespace fmore::auction
