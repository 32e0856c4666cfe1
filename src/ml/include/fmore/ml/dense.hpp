#pragma once

#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// Fully connected layer: y = x W^T + b with x of shape [B, in], W of shape
/// [out, in], b of shape [out]. The default path runs on the `ml::gemm`
/// micro-kernel, the forward as y^T = W x^T with the batch in lanes
/// (bit-identical to the textbook loops, which `FMORE_NAIVE_KERNELS=1`
/// keeps selectable as the reference).
class Dense final : public Layer {
public:
    Dense(std::size_t in_features, std::size_t out_features);

    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    void backward_params(const Tensor& grad_output, Tensor& scratch) override;
    std::vector<ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Dense>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Dense"; }

    [[nodiscard]] std::size_t in_features() const { return in_; }
    [[nodiscard]] std::size_t out_features() const { return out_; }

private:
    /// Batch size of the cached input; checks `grad_output` against it.
    [[nodiscard]] std::size_t backward_batch(const Tensor& grad_output) const;
    /// Fast-path bias and weight gradients.
    void accumulate_param_grads(const Tensor& grad_output, std::size_t batch);

    std::size_t in_;
    std::size_t out_;
    std::vector<float> weight_;      // [out, in]
    std::vector<float> bias_;        // [out]
    std::vector<float> weight_grad_;
    std::vector<float> bias_grad_;
    Tensor cached_input_;
    std::vector<float> scratch_;     // x^T and y^T of the forward GEMM
};

} // namespace fmore::ml
