#include "fmore/ml/embedding.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace fmore::ml {

Embedding::Embedding(std::size_t vocab_size, std::size_t embed_dim)
    : vocab_(vocab_size),
      dim_(embed_dim),
      table_(vocab_size * embed_dim, 0.0F),
      table_grad_(vocab_size * embed_dim, 0.0F) {
    if (vocab_ == 0 || dim_ == 0) throw std::invalid_argument("Embedding: zero-sized");
}

void Embedding::initialize(stats::Rng& rng) {
    const double scale = 1.0 / std::sqrt(static_cast<double>(dim_));
    std::vector<double> draws(table_.size());
    rng.normal_fill(draws, 0.0, scale);
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = static_cast<float>(draws[i]);
}

Tensor Embedding::forward(const Tensor& input, bool /*training*/) {
    if (input.rank() != 2)
        throw std::invalid_argument("Embedding::forward: expected [B, T] token ids");
    const std::size_t batch = input.dim(0);
    const std::size_t seq = input.dim(1);
    cached_shape_ = {batch, seq};
    cached_ids_.resize(batch * seq);
    Tensor out({batch, seq, dim_});
    float* y = out.data();
    for (std::size_t i = 0; i < batch * seq; ++i) {
        const auto id = static_cast<std::size_t>(input[i]);
        if (id >= vocab_) throw std::out_of_range("Embedding::forward: token id out of range");
        cached_ids_[i] = id;
        const float* row = table_.data() + id * dim_;
        float* dst = y + i * dim_;
        for (std::size_t e = 0; e < dim_; ++e) dst[e] = row[e];
    }
    return out;
}

Tensor Embedding::backward(const Tensor& grad_output) {
    if (grad_output.size() != cached_ids_.size() * dim_)
        throw std::invalid_argument("Embedding::backward: grad shape mismatch");
    const float* gy = grad_output.data();
    for (std::size_t i = 0; i < cached_ids_.size(); ++i) {
        float* grow = table_grad_.data() + cached_ids_[i] * dim_;
        const float* src = gy + i * dim_;
        for (std::size_t e = 0; e < dim_; ++e) grow[e] += src[e];
    }
    // Token ids carry no gradient; return an empty sentinel.
    return Tensor({cached_shape_[0], cached_shape_[1]});
}

std::vector<ParamBlock> Embedding::parameters() {
    return {{&table_, &table_grad_}};
}

} // namespace fmore::ml
