#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "fmore/ml/tensor.hpp"

namespace fmore::ml {

/// In-memory labelled dataset. Features are stored flat; `sample_shape` is
/// the per-sample tensor shape (e.g. {1, 12, 12} for mono images or {16}
/// for token sequences).
struct Dataset {
    std::vector<std::size_t> sample_shape;
    std::vector<float> features;
    std::vector<int> labels;
    std::size_t num_classes = 0;

    [[nodiscard]] std::size_t size() const { return labels.size(); }
    [[nodiscard]] std::size_t sample_volume() const { return shape_volume(sample_shape); }

    /// Materialize a batch tensor [B, ...sample_shape] for the given sample
    /// indices.
    [[nodiscard]] Tensor gather(const std::vector<std::size_t>& indices) const;
    [[nodiscard]] std::vector<int> gather_labels(const std::vector<std::size_t>& indices) const;
};

/// Split one generated pool into {train, test}: train is its first
/// `train_n` samples, test the rest, so both share the generator's class
/// prototypes. Train takes over the pool's storage; only the test tail is
/// copied. Throws std::invalid_argument if `train_n` exceeds the pool.
std::pair<Dataset, Dataset> split_pool(Dataset&& pool, std::size_t train_n);

} // namespace fmore::ml
