#include "fmore/ml/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fmore/ml/gemm.hpp"

namespace fmore::ml {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_(in_features * out_features, 0.0F),
      bias_(out_features, 0.0F),
      weight_grad_(in_features * out_features, 0.0F),
      bias_grad_(out_features, 0.0F) {
    if (in_ == 0 || out_ == 0) throw std::invalid_argument("Dense: zero-sized layer");
}

void Dense::initialize(stats::Rng& rng) {
    // He/Kaiming-uniform: suits the ReLU nets we build.
    const double bound = std::sqrt(6.0 / static_cast<double>(in_));
    for (float& w : weight_) w = static_cast<float>(rng.uniform(-bound, bound));
    for (float& b : bias_) b = 0.0F;
}

void Dense::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
    if (input.rank() < 2 || input.size() % in_ != 0)
        throw std::invalid_argument("Dense::forward: input incompatible with in_features");
    const std::size_t batch = input.size() / in_;
    cached_input_ = input;
    out.reshape_to({batch, out_});
    const float* x = input.data();
    float* y = out.data();

    if (!use_naive_kernels()) {
        // y^T = bias; y^T += W x^T. Transposing the [batch, in] activation
        // (not the [out, in] weight) puts the batch in the GEMM's unit-stride
        // lanes while W is read in place as the A operand.
        scratch_.resize((in_ + out_) * batch);
        float* xt = scratch_.data();
        float* yt = xt + in_ * batch;
        transpose(batch, in_, x, xt);
        for (std::size_t o = 0; o < out_; ++o) {
            std::fill(yt + o * batch, yt + (o + 1) * batch, bias_[o]);
        }
        gemm_acc(out_, batch, in_,
                 weight_.data(), static_cast<std::ptrdiff_t>(in_), 1,
                 xt, static_cast<std::ptrdiff_t>(batch),
                 yt, static_cast<std::ptrdiff_t>(batch));
        transpose(out_, batch, yt, y);
        return;
    }

    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * in_;
        float* yb = y + b * out_;
        for (std::size_t o = 0; o < out_; ++o) {
            const float* wrow = weight_.data() + o * in_;
            float acc = bias_[o];
            for (std::size_t i = 0; i < in_; ++i) acc += wrow[i] * xb[i];
            yb[o] = acc;
        }
    }
}

Tensor Dense::forward(const Tensor& input, bool training) {
    Tensor out;
    forward_into(input, out, training);
    return out;
}

std::size_t Dense::backward_batch(const Tensor& grad_output) const {
    const std::size_t batch = cached_input_.size() / in_;
    if (grad_output.size() != batch * out_)
        throw std::invalid_argument("Dense::backward: grad shape mismatch");
    return batch;
}

void Dense::accumulate_param_grads(const Tensor& grad_output, std::size_t batch) {
    const float* gy = grad_output.data();
    for (std::size_t b = 0; b < batch; ++b) {
        const float* gyb = gy + b * out_;
        for (std::size_t o = 0; o < out_; ++o) bias_grad_[o] += gyb[o];
    }
    // dW[o][i] += sum_b gy[b][o] * x[b][i]: A indexed transposed via
    // strides, no materialized copy.
    gemm_acc(out_, in_, batch,
             gy, 1, static_cast<std::ptrdiff_t>(out_),
             cached_input_.data(), static_cast<std::ptrdiff_t>(in_),
             weight_grad_.data(), static_cast<std::ptrdiff_t>(in_));
}

void Dense::backward_params(const Tensor& grad_output, Tensor& scratch) {
    if (use_naive_kernels()) {
        backward_into(grad_output, scratch);
        return;
    }
    accumulate_param_grads(grad_output, backward_batch(grad_output));
}

void Dense::backward_into(const Tensor& grad_output, Tensor& grad_input) {
    const std::size_t batch = backward_batch(grad_output);
    grad_input.reshape_to(cached_input_.shape());
    grad_input.fill(0.0F);
    const float* x = cached_input_.data();
    const float* gy = grad_output.data();
    float* gx = grad_input.data();

    if (!use_naive_kernels()) {
        accumulate_param_grads(grad_output, batch);
        // dx = gy * W (W's [out, in] layout is already what the kernel
        // wants: the summed dimension indexes rows).
        gemm_acc(batch, in_, out_,
                 gy, static_cast<std::ptrdiff_t>(out_), 1,
                 weight_.data(), static_cast<std::ptrdiff_t>(in_),
                 gx, static_cast<std::ptrdiff_t>(in_));
        return;
    }

    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * in_;
        const float* gyb = gy + b * out_;
        float* gxb = gx + b * in_;
        for (std::size_t o = 0; o < out_; ++o) {
            const float g = gyb[o];
            bias_grad_[o] += g;
            float* wgrow = weight_grad_.data() + o * in_;
            const float* wrow = weight_.data() + o * in_;
            for (std::size_t i = 0; i < in_; ++i) {
                wgrow[i] += g * xb[i];
                gxb[i] += g * wrow[i];
            }
        }
    }
}

Tensor Dense::backward(const Tensor& grad_output) {
    Tensor grad_input;
    backward_into(grad_output, grad_input);
    return grad_input;
}

std::vector<ParamBlock> Dense::parameters() {
    return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

} // namespace fmore::ml
