#include "fmore/auction/streaming_market.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <typeinfo>

namespace fmore::auction {

namespace {

using Candidate = RankScratch::Candidate;

/// The market's strict total order — identical to the `rank_frame` and
/// `head_row_better` comparators, which is the whole bit-identity argument.
bool better(const Candidate& a, const Candidate& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.key != b.key) return a.key < b.key;
    return a.node < b.node;
}

} // namespace

const char* to_string(CloseReason reason) {
    switch (reason) {
        case CloseReason::open: return "open";
        case CloseReason::quorum: return "quorum";
        case CloseReason::deadline: return "deadline";
        case CloseReason::exhausted: return "exhausted";
    }
    return "?";
}

StreamingMarket::StreamingMarket(std::shared_ptr<const Mechanism> mechanism,
                                 const ScoringRule& scoring)
    : mechanism_(std::move(mechanism)), scoring_(scoring) {
    if (!mechanism_)
        throw std::invalid_argument("StreamingMarket: null mechanism");
    // Same exact-type dispatch as run_frame/rank_frame: the incremental
    // fast lane replicates the BASE engine's ranking only, so any subclass
    // (which may override rank/select/price) closes through its own
    // run_frame instead.
    if (typeid(*mechanism_) == typeid(ScoreAuctionMechanism))
        engine_ = static_cast<const ScoreAuctionMechanism*>(mechanism_.get());
    salted_incremental_ =
        engine_ != nullptr && engine_->spec().tie_break == TieBreak::salted;
}

void StreamingMarket::open_round(std::size_t rows, std::size_t dims,
                                 const StreamingRoundSpec& spec, stats::Rng& rng) {
    if (spec.expected_bids > rows)
        throw std::invalid_argument("StreamingMarket: expected_bids = "
                                    + std::to_string(spec.expected_bids)
                                    + " exceeds the " + std::to_string(rows)
                                    + "-row bid arena");
    if (!(spec.deadline_s >= 0.0))
        throw std::invalid_argument("StreamingMarket: deadline_s must be >= 0");
    round_ = spec;
    expected_ = spec.expected_bids == 0 ? rows : spec.expected_bids;
    arrived_ = 0;
    reason_ = CloseReason::open;
    finalized_ = false;
    close_time_s_ = 0.0;
    last_arrival_s_ = 0.0;
    head_churn_ = 0;

    frame_.reset(rows, dims);
    // reset() marks every row active (the batch collector's convention);
    // a streaming arena starts EMPTY and rows light up as bids land.
    for (NodeId row = 0; row < rows; ++row) frame_.set_active(row, false);
    frame_.set_scored(true);

    cands_.clear();
    head_.clear();
    if (salted_incremental_) {
        // The batch path's one pre-selection draw, made at open so the
        // generator stream matches run_frame's bit for bit.
        tie_salt_ = rng.engine()();
        const MechanismSpec& ms = engine_->spec();
        const bool probabilistic = ms.psi < 1.0 || !ms.psi_per_node.empty();
        if (ms.full_ranking || probabilistic) {
            cand_cap_ = 0; // the close needs the whole board anyway
        } else {
            cand_cap_ = ms.num_winners
                        + (ms.payment_rule == PaymentRule::second_price ? 1 : 0);
        }
    }
    head_cap_ = round_.head_k != 0 ? round_.head_k
                : engine_ != nullptr ? engine_->spec().num_winners
                                     : 0;
}

void StreamingMarket::track_head(const Candidate& cand) {
    if (head_cap_ == 0) return;
    if (head_.size() < head_cap_) {
        head_.push_back(cand);
        std::push_heap(head_.begin(), head_.end(), better);
    } else if (better(cand, head_.front())) {
        std::pop_heap(head_.begin(), head_.end(), better);
        head_.back() = cand;
        std::push_heap(head_.begin(), head_.end(), better);
        ++head_churn_;
    }
}

bool StreamingMarket::offer(NodeId node, const double* quality, double payment,
                            double score, double arrival_s) {
    if (closed()) return false;
    if (node >= frame_.rows())
        throw std::invalid_argument("StreamingMarket: node " + std::to_string(node)
                                    + " is outside the "
                                    + std::to_string(frame_.rows()) + "-row arena");
    if (frame_.active(node))
        throw std::invalid_argument("StreamingMarket: duplicate bid from node "
                                    + std::to_string(node));
    if (arrival_s < last_arrival_s_)
        throw std::invalid_argument(
            "StreamingMarket: the virtual clock ran backwards (arrival at "
            + std::to_string(arrival_s) + "s after "
            + std::to_string(last_arrival_s_) + "s)");
    // Strictly-later-than-the-deadline misses the round — the same rule the
    // sharded selector applies to a slow shard's head.
    if (round_.deadline_s > 0.0 && arrival_s > round_.deadline_s) {
        reason_ = CloseReason::deadline;
        close_time_s_ = round_.deadline_s;
        return false;
    }
    last_arrival_s_ = arrival_s;

    frame_.set_active(node, true);
    double* q = frame_.quality_row(node);
    for (std::size_t d = 0; d < frame_.dims(); ++d) q[d] = quality[d];
    frame_.payment(node) = payment;
    frame_.score(node) = score;
    ++arrived_;

    // Score gate, as in rank_frame's fused heap: a bid scoring below the
    // root of a full bounded heap can never enter it, so its tie key is
    // hashed only when one of the two heaps may take it.
    const bool cands_may_take =
        salted_incremental_
        && (cand_cap_ == 0 || cands_.size() < cand_cap_ || !(score < cands_.front().score));
    const bool head_may_take =
        head_cap_ != 0 && (head_.size() < head_cap_ || !(score < head_.front().score));
    if (cands_may_take || head_may_take) {
        const std::uint64_t key =
            salted_incremental_ ? stats::derive_stream_seed(tie_salt_, node) : 0;
        const Candidate cand{score, key, node};
        if (cands_may_take) {
            // The same bounded-heap fold rank_frame's fused top-K pass runs
            // per chunk, applied per ARRIVAL: root = worst kept candidate,
            // replace when the newcomer beats it. O(log K) per bid.
            if (cand_cap_ == 0 || cands_.size() < cand_cap_) {
                cands_.push_back(cand);
                if (cand_cap_ != 0)
                    std::push_heap(cands_.begin(), cands_.end(), better);
            } else if (better(cand, cands_.front())) {
                std::pop_heap(cands_.begin(), cands_.end(), better);
                cands_.back() = cand;
                std::push_heap(cands_.begin(), cands_.end(), better);
            }
        }
        if (head_may_take) track_head(cand);
    }

    if (round_.quorum > 0 && arrived_ >= round_.quorum) {
        reason_ = CloseReason::quorum;
        close_time_s_ = arrival_s;
    } else if (arrived_ >= expected_) {
        reason_ = CloseReason::exhausted;
        close_time_s_ = arrival_s;
    }
    return true;
}

const AuctionOutcome& StreamingMarket::close_round_sharded(
    stats::Rng& rng, const std::vector<std::size_t>& shard_starts) {
    if (finalized_) return outcome_;
    if (shard_starts.empty() || shard_starts.front() != 0
        || !std::is_sorted(shard_starts.begin(), shard_starts.end())
        || shard_starts.back() > frame_.rows())
        throw std::invalid_argument(
            "StreamingMarket: shard_starts must be sorted, begin at row 0 and "
            "stay inside the bid arena");
    if (!salted_incremental_) return close_round(rng);  // batch replay is exact
    if (reason_ == CloseReason::open) {
        reason_ = CloseReason::exhausted;
        close_time_s_ = last_arrival_s_;
    }
    // Per virtual shard: the same bounded head collection the forked
    // workers run, over this shard's slice of the arrived frame; then the
    // incremental merge. Both sides of the equivalence truncate the same
    // strict total order at the same cutoff, so the ranking — and the
    // selection and pricing over it — matches close_round bit for bit.
    const std::size_t cutoff = engine_->ranking_cutoff(arrived_);
    TieKeys keys;
    keys.salted = true;
    keys.salt = tie_salt_;
    StreamingHeadMerge merge;
    merge.open(frame_.dims(), cutoff);
    ShardHead head;
    for (std::size_t s = 0; s < shard_starts.size(); ++s) {
        const std::size_t begin = shard_starts[s];
        const std::size_t end =
            s + 1 < shard_starts.size() ? shard_starts[s + 1] : frame_.rows();
        collect_shard_head(frame_, begin, end, 0, keys, cutoff, head);
        merge.ingest(head);
    }
    merge.finish(outcome_.ranking);
    engine_->select_into(outcome_.ranking, rng, scratch_.chosen);
    engine_->price_into(scoring_, outcome_.ranking, scratch_.chosen,
                        outcome_.winners);
    finalized_ = true;
    return outcome_;
}

const AuctionOutcome& StreamingMarket::close_round(stats::Rng& rng) {
    if (finalized_) return outcome_;
    if (reason_ == CloseReason::open) {
        // Caller-initiated close with the feed dry: exhausted semantics.
        reason_ = CloseReason::exhausted;
        close_time_s_ = last_arrival_s_;
    }
    if (salted_incremental_) {
        // The arrivals already folded the board; what remains is exactly
        // the tail of rank_frame's salted lane: sort the kept candidates
        // under the market order, truncate at the engine's cutoff, and
        // materialize the head from the frame.
        std::sort(cands_.begin(), cands_.end(), better);
        const std::size_t top = engine_->ranking_cutoff(arrived_);
        if (cands_.size() > top) cands_.resize(top);
        const std::size_t dims = frame_.dims();
        outcome_.ranking.resize(cands_.size());
        for (std::size_t r = 0; r < cands_.size(); ++r) {
            const NodeId row = cands_[r].node;
            ScoredBid& sb = outcome_.ranking[r];
            sb.bid.node = row;
            sb.bid.quality.assign(frame_.quality_row(row),
                                  frame_.quality_row(row) + dims);
            sb.bid.payment = frame_.payment(row);
            sb.score = cands_[r].score;
        }
        engine_->select_into(outcome_.ranking, rng, scratch_.chosen);
        engine_->price_into(scoring_, outcome_.ranking, scratch_.chosen,
                            outcome_.winners);
    } else {
        // Shuffle-mode engine or a custom mechanism: the tie permutation /
        // the mechanism's own semantics are a function of the FINAL arrived
        // set, so the close replays the batch pass over the arrived frame —
        // no draws were consumed during ingestion, so the streams align.
        mechanism_->run_frame(scoring_, frame_, rng, scratch_, outcome_);
    }
    finalized_ = true;
    return outcome_;
}

// ---------------------------------------------------------------------------
// StreamingHeadMerge
// ---------------------------------------------------------------------------

void StreamingHeadMerge::open(std::size_t dims, std::size_t cutoff) {
    dims_ = dims;
    cutoff_ = cutoff;
    ingested_ = 0;
    heap_.clear();
    arena_.resize(cutoff * dims);
    free_.clear();
    for (std::size_t s = cutoff; s-- > 0;)
        free_.push_back(static_cast<std::uint32_t>(s));
}

void StreamingHeadMerge::ingest(const ShardHead& head) {
    if (!head.rows.empty() && head.dims != dims_)
        throw std::invalid_argument("StreamingHeadMerge: head dims = "
                                    + std::to_string(head.dims) + ", expected "
                                    + std::to_string(dims_));
    for (std::size_t r = 0; r < head.rows.size(); ++r)
        ingest_row(head.rows[r], head.quality_row(r));
    ++ingested_;
}

void StreamingHeadMerge::ingest_row(const HeadRow& row, const double* quality) {
    const auto slot_better = [](const Slot& a, const Slot& b) {
        return head_row_better(a.row, b.row);
    };
    if (heap_.size() < cutoff_) {
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        std::copy(quality, quality + dims_, arena_.data() + slot * dims_);
        heap_.push_back(Slot{row, slot});
        std::push_heap(heap_.begin(), heap_.end(), slot_better);
    } else if (cutoff_ > 0 && head_row_better(row, heap_.front().row)) {
        // Evict the worst kept row and park the newcomer's quality in
        // the slot it vacates — the arena never grows past cutoff.
        const std::uint32_t slot = heap_.front().arena;
        std::pop_heap(heap_.begin(), heap_.end(), slot_better);
        heap_.back() = Slot{row, slot};
        std::copy(quality, quality + dims_, arena_.data() + slot * dims_);
        std::push_heap(heap_.begin(), heap_.end(), slot_better);
    }
}

void StreamingHeadMerge::finish(std::vector<ScoredBid>& ranking) {
    // `merge_heads` sorts the concatenated rows and truncates at cutoff;
    // the bounded heap kept exactly the rows that survive that truncation
    // (the order is strict and total), so sorting them reproduces its
    // output bit for bit.
    std::sort(heap_.begin(), heap_.end(), [](const Slot& a, const Slot& b) {
        return head_row_better(a.row, b.row);
    });
    ranking.resize(heap_.size());
    for (std::size_t r = 0; r < heap_.size(); ++r) {
        const double* q = arena_.data() + heap_[r].arena * dims_;
        ScoredBid& sb = ranking[r];
        sb.bid.node = heap_[r].row.node;
        sb.bid.quality.assign(q, q + dims_);
        sb.bid.payment = heap_[r].row.payment;
        sb.score = heap_[r].row.score;
    }
}

} // namespace fmore::auction
