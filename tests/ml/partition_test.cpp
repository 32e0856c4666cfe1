#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "fmore/ml/partition.hpp"
#include "fmore/ml/synthetic.hpp"

namespace fmore::ml {
namespace {

Dataset image_data(std::size_t n, std::uint64_t seed) {
    stats::Rng rng(seed);
    ImageDatasetSpec spec;
    spec.samples = n;
    return make_synthetic_images(spec, rng);
}

TEST(PartitionNonIid, CoversDatasetWithoutOverlap) {
    const Dataset data = image_data(1000, 1);
    stats::Rng rng(2);
    const auto shards = partition_non_iid(data, 20, 2, rng);
    ASSERT_EQ(shards.size(), 20u);
    std::set<std::size_t> seen;
    std::size_t total = 0;
    for (const auto& shard : shards) {
        for (const std::size_t idx : shard.indices) {
            EXPECT_TRUE(seen.insert(idx).second) << "duplicate sample " << idx;
        }
        total += shard.indices.size();
    }
    EXPECT_EQ(total, data.size());
}

TEST(PartitionNonIid, ShardsHaveFewLabels) {
    // With 2 contiguous label shards each, clients should see far fewer
    // classes than the full 10 (the non-IID property of McMahan et al.).
    const Dataset data = image_data(2000, 3);
    stats::Rng rng(4);
    const auto shards = partition_non_iid(data, 50, 2, rng);
    double mean_labels = 0.0;
    for (const auto& shard : shards) {
        mean_labels += static_cast<double>(shard.distinct_labels());
    }
    mean_labels /= 50.0;
    EXPECT_LT(mean_labels, 4.5);
    EXPECT_GE(mean_labels, 1.0);
}

TEST(PartitionNonIid, HistogramsMatchIndices) {
    const Dataset data = image_data(500, 5);
    stats::Rng rng(6);
    const auto shards = partition_non_iid(data, 10, 2, rng);
    for (const auto& shard : shards) {
        std::size_t total = 0;
        for (const std::size_t c : shard.label_count) total += c;
        EXPECT_EQ(total, shard.indices.size());
        for (const std::size_t idx : shard.indices) {
            EXPECT_GT(shard.label_count[static_cast<std::size_t>(data.labels[idx])], 0u);
        }
    }
}

TEST(PartitionNonIid, RejectsBadArguments) {
    const Dataset data = image_data(100, 7);
    stats::Rng rng(8);
    EXPECT_THROW(partition_non_iid(data, 0, 2, rng), std::invalid_argument);
    EXPECT_THROW(partition_non_iid(data, 10, 0, rng), std::invalid_argument);
    EXPECT_THROW(partition_non_iid(data, 200, 2, rng), std::invalid_argument);
}

TEST(PartitionNonIidVariable, ShardCountsVaryWithinRange) {
    const Dataset data = image_data(3000, 9);
    stats::Rng rng(10);
    const auto shards = partition_non_iid_variable(data, 60, 1, 5, rng);
    ASSERT_EQ(shards.size(), 60u);
    std::set<std::size_t> label_counts;
    for (const auto& shard : shards) {
        EXPECT_FALSE(shard.indices.empty());
        label_counts.insert(shard.distinct_labels());
    }
    // Diversity must actually vary across clients.
    EXPECT_GE(label_counts.size(), 3u);
}

TEST(PartitionNonIidVariable, CategoryProportionInUnitRange) {
    const Dataset data = image_data(1500, 11);
    stats::Rng rng(12);
    const auto shards = partition_non_iid_variable(data, 30, 1, 4, rng);
    for (const auto& shard : shards) {
        const double q2 = shard.category_proportion(data.num_classes);
        EXPECT_GT(q2, 0.0);
        EXPECT_LE(q2, 1.0);
    }
}

TEST(PartitionIid, BalancedAndDiverse) {
    const Dataset data = image_data(1000, 13);
    stats::Rng rng(14);
    const auto shards = partition_iid(data, 10, rng);
    for (const auto& shard : shards) {
        EXPECT_NEAR(static_cast<double>(shard.indices.size()), 100.0, 1.0);
        // Random splits see most classes.
        EXPECT_GE(shard.distinct_labels(), 7u);
    }
}

TEST(ResizeShards, RespectsBoundsAndRebuildsHistograms) {
    const Dataset data = image_data(2000, 15);
    stats::Rng rng(16);
    auto shards = partition_non_iid_variable(data, 20, 2, 4, rng);
    resize_shards(shards, data, 10, 40, rng);
    for (const auto& shard : shards) {
        EXPECT_LE(shard.indices.size(), 40u);
        EXPECT_GE(shard.indices.size(), 1u);
        std::size_t total = 0;
        for (const std::size_t c : shard.label_count) total += c;
        EXPECT_EQ(total, shard.indices.size());
    }
    EXPECT_THROW(resize_shards(shards, data, 50, 40, rng), std::invalid_argument);
}

/// The comparison sort the counting sort replaced, kept as its oracle.
std::vector<std::size_t> stable_sort_oracle(const std::vector<int>& labels) {
    std::vector<std::size_t> order(labels.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return labels[a] < labels[b]; });
    return order;
}

TEST(OrderByLabel, MatchesStableSortOracle) {
    stats::Rng rng(31);
    for (const std::size_t classes : {1, 2, 10, 37}) {
        for (const std::size_t n : {0, 1, 9, 500, 4096}) {
            std::vector<int> labels(n);
            // Draw from the lower half of the classes only when there are
            // several, so empty buckets (including the top ones) occur.
            const auto hi = static_cast<std::int64_t>(classes > 2 ? classes / 2 : classes) - 1;
            for (int& l : labels) l = static_cast<int>(rng.uniform_int(0, hi));
            EXPECT_EQ(order_by_label(labels, classes), stable_sort_oracle(labels))
                << "classes=" << classes << " n=" << n;
        }
    }
}

TEST(OrderByLabel, SingleClassKeepsIndexOrder) {
    const std::vector<int> labels(50, 0);
    const std::vector<std::size_t> order = order_by_label(labels, 1);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(OrderByLabel, RejectsLabelsOutsideClassRange) {
    EXPECT_THROW((void)order_by_label({0, 1, 3}, 3), std::invalid_argument);
    EXPECT_THROW((void)order_by_label({0, -1}, 3), std::invalid_argument);
    EXPECT_THROW((void)order_by_label({0}, 0), std::invalid_argument);
    Dataset data = image_data(100, 4);
    data.labels[17] = static_cast<int>(data.num_classes);
    stats::Rng rng(1);
    EXPECT_THROW((void)partition_non_iid(data, 5, 2, rng), std::invalid_argument);
    EXPECT_THROW((void)partition_non_iid_variable(data, 5, 1, 2, rng), std::invalid_argument);
}

TEST(SplitPool, MovesTrainAndCopiesTestTail) {
    Dataset pool = image_data(50, 8);
    const Dataset whole = pool;
    const float* storage = pool.features.data();
    auto [train, test] = split_pool(std::move(pool), 42);
    const std::size_t vol = whole.sample_volume();
    EXPECT_EQ(train.features.data(), storage) << "train must take over the pool's buffer";
    EXPECT_EQ(train.size(), 42u);
    EXPECT_EQ(test.size(), 8u);
    for (const Dataset* part : {&train, &test}) {
        EXPECT_EQ(part->sample_shape, whole.sample_shape);
        EXPECT_EQ(part->num_classes, whole.num_classes);
    }
    EXPECT_TRUE(std::equal(train.features.begin(), train.features.end(), whole.features.begin()));
    EXPECT_TRUE(std::equal(test.features.begin(), test.features.end(),
                           whole.features.begin() + 42 * static_cast<std::ptrdiff_t>(vol)));
    EXPECT_EQ(train.features.size(), 42 * vol);
    EXPECT_EQ(test.features.size(), 8 * vol);
    EXPECT_TRUE(std::equal(test.labels.begin(), test.labels.end(), whole.labels.begin() + 42));

    auto [all, none] = split_pool(image_data(10, 8), 10);
    EXPECT_EQ(all.size(), 10u);
    EXPECT_EQ(none.size(), 0u);
    EXPECT_THROW((void)split_pool(image_data(10, 8), 11), std::invalid_argument);
}

TEST(ClientShard, DistinctLabelHelpers) {
    ClientShard shard;
    shard.label_count = {3, 0, 1, 0};
    EXPECT_EQ(shard.distinct_labels(), 2u);
    EXPECT_DOUBLE_EQ(shard.category_proportion(4), 0.5);
    EXPECT_DOUBLE_EQ(shard.category_proportion(0), 0.0);
}

} // namespace
} // namespace fmore::ml
