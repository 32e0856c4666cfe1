#include "fmore/auction/shard_merge.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fmore::auction {

namespace {

template <typename T>
void put(std::vector<std::uint8_t>& out, const T& value) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T get(const std::uint8_t* data, std::size_t size, std::size_t& at) {
    if (at + sizeof(T) > size)
        throw std::invalid_argument("ShardHead::deserialize: truncated payload");
    T value;
    std::memcpy(&value, data + at, sizeof(T));
    at += sizeof(T);
    return value;
}

} // namespace

void ShardHead::serialize(std::vector<std::uint8_t>& out) const {
    put<std::uint64_t>(out, rows.size());
    put<std::uint64_t>(out, dims);
    for (const HeadRow& row : rows) {
        put<std::uint64_t>(out, row.node);
        put<double>(out, row.score);
        put<std::uint64_t>(out, row.key);
        put<double>(out, row.payment);
    }
    for (const double q : quality) put<double>(out, q);
}

ShardHead ShardHead::deserialize(const std::uint8_t* data, std::size_t size) {
    std::size_t at = 0;
    ShardHead head;
    const std::uint64_t count = get<std::uint64_t>(data, size, at);
    head.dims = static_cast<std::size_t>(get<std::uint64_t>(data, size, at));
    head.rows.reserve(count);
    for (std::uint64_t r = 0; r < count; ++r) {
        HeadRow row;
        row.node = static_cast<NodeId>(get<std::uint64_t>(data, size, at));
        row.score = get<double>(data, size, at);
        row.key = get<std::uint64_t>(data, size, at);
        row.payment = get<double>(data, size, at);
        head.rows.push_back(row);
    }
    head.quality.reserve(count * head.dims);
    for (std::uint64_t q = 0; q < count * head.dims; ++q)
        head.quality.push_back(get<double>(data, size, at));
    if (at != size)
        throw std::invalid_argument("ShardHead::deserialize: trailing bytes");
    return head;
}

void collect_shard_head(const BidFrame& frame, std::size_t node_offset,
                        const TieKeys& keys, std::size_t limit, ShardHead& out) {
    collect_shard_head(frame, 0, frame.rows(), node_offset, keys, limit, out);
}

void collect_shard_head(const BidFrame& frame, std::size_t begin_row,
                        std::size_t end_row, std::size_t node_offset,
                        const TieKeys& keys, std::size_t limit, ShardHead& out) {
    if (!frame.scored())
        throw std::logic_error(
            "collect_shard_head: frame must carry the aggregator score column");
    out.clear();
    out.dims = frame.dims();
    if (limit == 0) return;

    // Bounded heap, root = worst kept row — the same structure the fused
    // monolithic pass keeps per worker slot, here per shard. Once the heap
    // is full, a row scoring below the root is rejected before its
    // candidate (and tie key) is built: head_row_better(cand, root) is
    // false whenever cand.score < root.score, so the gate is exact.
    std::vector<HeadRow>& heap = out.rows;
    heap.reserve(limit);
    for (NodeId row = begin_row; row < end_row; ++row) {
        if (!frame.active(row)) continue;
        if (heap.size() == limit && frame.score(row) < heap.front().score) continue;
        const NodeId global = node_offset + row;
        const HeadRow cand{global, frame.score(row), keys.key(global),
                           frame.payment(row)};
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

    // Quality vectors of the kept rows only — the payload stays O(limit·d)
    // no matter how large the shard is.
    out.quality.resize(heap.size() * out.dims);
    for (std::size_t r = 0; r < heap.size(); ++r) {
        const NodeId local = heap[r].node - node_offset;
        const double* q = frame.quality_row(local);
        std::copy(q, q + out.dims, out.quality.begin() + r * out.dims);
    }
}

void merge_heads(const std::vector<ShardHead>& heads, std::size_t cutoff,
                 std::vector<ScoredBid>& ranking) {
    struct Tagged {
        HeadRow row;
        std::uint32_t shard = 0;
        std::uint32_t idx = 0;
    };
    std::vector<Tagged> all;
    std::size_t total = 0;
    for (const ShardHead& head : heads) total += head.rows.size();
    all.reserve(total);
    for (std::size_t s = 0; s < heads.size(); ++s) {
        for (std::size_t r = 0; r < heads[s].rows.size(); ++r) {
            all.push_back(Tagged{heads[s].rows[r], static_cast<std::uint32_t>(s),
                                 static_cast<std::uint32_t>(r)});
        }
    }
    std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
        return head_row_better(a.row, b.row);
    });
    if (all.size() > cutoff) all.resize(cutoff);

    ranking.resize(all.size());
    for (std::size_t r = 0; r < all.size(); ++r) {
        const ShardHead& head = heads[all[r].shard];
        const double* q = head.quality_row(all[r].idx);
        ScoredBid& sb = ranking[r];
        sb.bid.node = all[r].row.node;
        sb.bid.quality.assign(q, q + head.dims);
        sb.bid.payment = all[r].row.payment;
        sb.score = all[r].row.score;
    }
}

} // namespace fmore::auction
