#include "fmore/ml/partition.hpp"

#include <numeric>
#include <stdexcept>

namespace fmore::ml {

std::size_t ClientShard::distinct_labels() const {
    std::size_t count = 0;
    for (const std::size_t c : label_count) {
        if (c > 0) ++count;
    }
    return count;
}

double ClientShard::category_proportion(std::size_t num_classes) const {
    if (num_classes == 0) return 0.0;
    return static_cast<double>(distinct_labels()) / static_cast<double>(num_classes);
}

namespace {

void rebuild_label_histogram(ClientShard& shard, const Dataset& data) {
    shard.label_count.assign(data.num_classes, 0);
    for (const std::size_t idx : shard.indices) {
        ++shard.label_count[static_cast<std::size_t>(data.labels[idx])];
    }
}

} // namespace

std::vector<std::size_t> order_by_label(const std::vector<int>& labels,
                                        std::size_t num_classes) {
    // Counting sort: histogram, exclusive prefix sum into bucket starts,
    // then one stable scatter in index order.
    std::vector<std::size_t> start(num_classes + 1, 0);
    for (const int l : labels) {
        if (l < 0 || static_cast<std::size_t>(l) >= num_classes)
            throw std::invalid_argument("order_by_label: label outside [0, num_classes)");
        ++start[static_cast<std::size_t>(l) + 1];
    }
    for (std::size_t c = 1; c <= num_classes; ++c) start[c] += start[c - 1];
    std::vector<std::size_t> order(labels.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
        order[start[static_cast<std::size_t>(labels[i])]++] = i;
    }
    return order;
}

std::vector<ClientShard> partition_non_iid(const Dataset& data, std::size_t clients,
                                           std::size_t shards_per_client, stats::Rng& rng) {
    if (clients == 0 || shards_per_client == 0)
        throw std::invalid_argument("partition_non_iid: zero clients or shards");
    const std::size_t total_shards = clients * shards_per_client;
    if (data.size() < total_shards)
        throw std::invalid_argument("partition_non_iid: dataset smaller than shard count");

    const std::vector<std::size_t> by_label = order_by_label(data.labels, data.num_classes);

    // Cut into contiguous shards and deal them out randomly.
    std::vector<std::size_t> shard_order(total_shards);
    std::iota(shard_order.begin(), shard_order.end(), std::size_t{0});
    rng.shuffle(shard_order);

    const std::size_t shard_len = data.size() / total_shards;
    std::vector<ClientShard> result(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t s = 0; s < shards_per_client; ++s) {
            const std::size_t shard_id = shard_order[c * shards_per_client + s];
            const std::size_t begin = shard_id * shard_len;
            const std::size_t end =
                (shard_id == total_shards - 1) ? data.size() : begin + shard_len;
            for (std::size_t i = begin; i < end; ++i) {
                result[c].indices.push_back(by_label[i]);
            }
        }
        rebuild_label_histogram(result[c], data);
    }
    return result;
}

std::vector<ClientShard> partition_non_iid_variable(const Dataset& data,
                                                    std::size_t clients,
                                                    std::size_t shards_lo,
                                                    std::size_t shards_hi,
                                                    stats::Rng& rng) {
    if (clients == 0) throw std::invalid_argument("partition_non_iid_variable: zero clients");
    if (shards_lo == 0 || shards_lo > shards_hi)
        throw std::invalid_argument("partition_non_iid_variable: bad shard range");

    std::vector<std::size_t> per_client(clients);
    std::size_t total_shards = 0;
    for (std::size_t c = 0; c < clients; ++c) {
        per_client[c] = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(shards_lo),
                            static_cast<std::int64_t>(shards_hi)));
        total_shards += per_client[c];
    }
    if (data.size() < total_shards)
        throw std::invalid_argument("partition_non_iid_variable: dataset too small");

    const std::vector<std::size_t> by_label = order_by_label(data.labels, data.num_classes);

    std::vector<std::size_t> shard_order(total_shards);
    std::iota(shard_order.begin(), shard_order.end(), std::size_t{0});
    rng.shuffle(shard_order);

    const std::size_t shard_len = data.size() / total_shards;
    std::vector<ClientShard> result(clients);
    std::size_t next = 0;
    for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t s = 0; s < per_client[c]; ++s) {
            const std::size_t shard_id = shard_order[next++];
            const std::size_t begin = shard_id * shard_len;
            const std::size_t end =
                (shard_id == total_shards - 1) ? data.size() : begin + shard_len;
            for (std::size_t i = begin; i < end; ++i) {
                result[c].indices.push_back(by_label[i]);
            }
        }
        rebuild_label_histogram(result[c], data);
    }
    return result;
}

std::vector<ClientShard> partition_iid(const Dataset& data, std::size_t clients,
                                       stats::Rng& rng) {
    if (clients == 0) throw std::invalid_argument("partition_iid: zero clients");
    if (data.size() < clients)
        throw std::invalid_argument("partition_iid: dataset smaller than client count");
    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);

    std::vector<ClientShard> result(clients);
    const std::size_t per_client = data.size() / clients;
    for (std::size_t c = 0; c < clients; ++c) {
        const std::size_t begin = c * per_client;
        const std::size_t end = (c == clients - 1) ? data.size() : begin + per_client;
        result[c].indices.assign(order.begin() + static_cast<std::ptrdiff_t>(begin),
                                 order.begin() + static_cast<std::ptrdiff_t>(end));
        rebuild_label_histogram(result[c], data);
    }
    return result;
}

void resize_shards(std::vector<ClientShard>& shards, const Dataset& data,
                   std::size_t min_size, std::size_t max_size, stats::Rng& rng) {
    if (min_size > max_size)
        throw std::invalid_argument("resize_shards: min_size > max_size");
    for (ClientShard& shard : shards) {
        const auto target = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(min_size),
                            static_cast<std::int64_t>(max_size)));
        if (shard.indices.size() > target) {
            rng.shuffle(shard.indices);
            shard.indices.resize(target);
        }
        rebuild_label_histogram(shard, data);
    }
}

} // namespace fmore::ml
