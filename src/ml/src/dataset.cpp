#include "fmore/ml/dataset.hpp"

#include <stdexcept>

namespace fmore::ml {

Tensor Dataset::gather(const std::vector<std::size_t>& indices) const {
    const std::size_t vol = sample_volume();
    std::vector<std::size_t> shape;
    shape.push_back(indices.size());
    for (const std::size_t d : sample_shape) shape.push_back(d);
    Tensor batch(std::move(shape));
    float* dst = batch.data();
    for (std::size_t i = 0; i < indices.size(); ++i) {
        if (indices[i] >= size()) throw std::out_of_range("Dataset::gather: bad index");
        const float* src = features.data() + indices[i] * vol;
        for (std::size_t j = 0; j < vol; ++j) dst[i * vol + j] = src[j];
    }
    return batch;
}

std::vector<int> Dataset::gather_labels(const std::vector<std::size_t>& indices) const {
    std::vector<int> out(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        if (indices[i] >= size())
            throw std::out_of_range("Dataset::gather_labels: bad index");
        out[i] = labels[indices[i]];
    }
    return out;
}

std::pair<Dataset, Dataset> split_pool(Dataset&& pool, std::size_t train_n) {
    if (train_n > pool.size()) throw std::invalid_argument("split_pool: train_n > pool size");
    const auto tail = static_cast<std::ptrdiff_t>(train_n * pool.sample_volume());
    Dataset test;
    test.sample_shape = pool.sample_shape;
    test.num_classes = pool.num_classes;
    test.features.assign(pool.features.begin() + tail, pool.features.end());
    test.labels.assign(pool.labels.begin() + static_cast<std::ptrdiff_t>(train_n),
                       pool.labels.end());
    Dataset train = std::move(pool);
    train.features.resize(static_cast<std::size_t>(tail));
    train.labels.resize(train_n);
    return {std::move(train), std::move(test)};
}

} // namespace fmore::ml
