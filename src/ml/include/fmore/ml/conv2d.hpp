#pragma once

#include "fmore/ml/gemm.hpp"
#include "fmore/ml/layer.hpp"

namespace fmore::ml {

/// 2-D convolution, stride 1, valid padding. Input [B, C, H, W], kernel
/// [OC, C, KH, KW], output [B, OC, H-KH+1, W-KW+1]. The default path
/// lowers each image through im2col onto the `ml::gemm` micro-kernel and
/// runs the backward pass on its lane-layout kernels (gemm.hpp);
/// `FMORE_NAIVE_KERNELS=1` selects the original direct loops, which the
/// fast path matches bit-for-bit.
class Conv2d final : public Layer {
public:
    Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel);

    [[nodiscard]] Tensor forward(const Tensor& input, bool training) override;
    [[nodiscard]] Tensor backward(const Tensor& grad_output) override;
    void forward_into(const Tensor& input, Tensor& out, bool training) override;
    void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
    void backward_params(const Tensor& grad_output, Tensor& scratch) override;
    std::vector<ParamBlock> parameters() override;
    void initialize(stats::Rng& rng) override;
    [[nodiscard]] std::unique_ptr<Layer> clone() const override {
        return std::make_unique<Conv2d>(*this);
    }
    [[nodiscard]] std::string name() const override { return "Conv2d"; }

private:
    /// Geometry of one h x w input image.
    [[nodiscard]] ConvShape conv_shape(std::size_t h, std::size_t w) const;
    /// Geometry of the cached input; checks `grad_output` against it.
    [[nodiscard]] ConvShape backward_shape(const Tensor& grad_output) const;
    /// Fast-path bias and weight gradients.
    void accumulate_param_grads(const Tensor& grad_output, const ConvShape& shape);

    std::size_t in_c_;
    std::size_t out_c_;
    std::size_t k_;
    std::vector<float> weight_;      // [out_c, in_c, k, k]
    std::vector<float> bias_;        // [out_c]
    std::vector<float> weight_grad_;
    std::vector<float> bias_grad_;
    Tensor cached_input_;
    std::vector<float> scratch_;     // kernel scratch, reused across batches
};

} // namespace fmore::ml
