#pragma once

#include <vector>

#include "fmore/ml/dataset.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {

/// One client's shard of the global dataset.
struct ClientShard {
    std::vector<std::size_t> indices;     ///< sample indices into the dataset
    std::vector<std::size_t> label_count; ///< histogram over classes
    /// Number of classes with at least one sample — the paper's "data
    /// category" quality q2 is distinct_labels / num_classes.
    [[nodiscard]] std::size_t distinct_labels() const;
    [[nodiscard]] double category_proportion(std::size_t num_classes) const;
};

/// Sample indices grouped by label, ascending, ties in index order: the
/// permutation `std::stable_sort` by label yields, built by a counting sort
/// in O(n + num_classes). Throws std::invalid_argument for a label outside
/// [0, num_classes).
std::vector<std::size_t> order_by_label(const std::vector<int>& labels,
                                        std::size_t num_classes);

/// Label-sharded non-IID partition in the style of McMahan et al. (the
/// paper: "non-IID data distribution of sample data is studied across
/// different edge nodes"). The dataset is sorted by label, cut into
/// `clients * shards_per_client` contiguous shards, and each client gets
/// `shards_per_client` random shards — so most clients see only a few
/// classes.
std::vector<ClientShard> partition_non_iid(const Dataset& data, std::size_t clients,
                                           std::size_t shards_per_client, stats::Rng& rng);

/// Variable-shards variant: client c draws its shard count uniformly from
/// [shards_lo, shards_hi], so clients differ in label diversity as well as
/// data volume — the heterogeneity FMore's q2 (category proportion) prices.
std::vector<ClientShard> partition_non_iid_variable(const Dataset& data,
                                                    std::size_t clients,
                                                    std::size_t shards_lo,
                                                    std::size_t shards_hi, stats::Rng& rng);

/// IID control partition: a random equal split.
std::vector<ClientShard> partition_iid(const Dataset& data, std::size_t clients,
                                       stats::Rng& rng);

/// Rescale client shard sizes to a target distribution: each client keeps a
/// random subset of its shard so that sizes land in [min_size, max_size]
/// (uniformly drawn), emulating the paper's heterogeneous data sizes
/// ("data size ... over the range of [1000, 5000]"). Shards smaller than
/// the drawn target keep everything. Label histograms are rebuilt from
/// `data`.
void resize_shards(std::vector<ClientShard>& shards, const Dataset& data,
                   std::size_t min_size, std::size_t max_size, stats::Rng& rng);

} // namespace fmore::ml
