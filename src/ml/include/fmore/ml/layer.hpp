#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fmore/ml/tensor.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {

/// A trainable parameter block: values plus the gradient accumulated by the
/// most recent backward pass. Layers expose their blocks so the model can
/// flatten/restore parameters (FedAvg needs that) and run SGD generically.
struct ParamBlock {
    std::vector<float>* values = nullptr;
    std::vector<float>* grads = nullptr;
};

/// Base class for all layers. The training loop is single-threaded per
/// model: forward caches whatever backward needs, and backward must be
/// called with the gradient of the loss w.r.t. this layer's output,
/// returning the gradient w.r.t. its input. Concurrency happens one level
/// up — `Model::clone()` gives each worker its own layer stack.
class Layer {
public:
    virtual ~Layer() = default;

    [[nodiscard]] virtual Tensor forward(const Tensor& input, bool training) = 0;
    [[nodiscard]] virtual Tensor backward(const Tensor& grad_output) = 0;

    /// Buffer-reusing twins of forward/backward: results land in the
    /// caller-owned tensor, whose storage is reused across calls. The
    /// model's activation chain keeps one persistent slot per layer, so a
    /// layer that overrides these (the elementwise family: ReLU, Tanh,
    /// Flatten, MaxPool2d, Dropout) stops paying one tensor allocation per
    /// call — the ROADMAP's "scratch arena" for the cheap layers. The
    /// defaults delegate to the allocating versions (then move into `out`),
    /// so existing custom layers are unaffected. Arithmetic is identical
    /// by contract: outputs are bit-identical to forward/backward.
    virtual void forward_into(const Tensor& input, Tensor& out, bool training) {
        out = forward(input, training);
    }
    virtual void backward_into(const Tensor& grad_output, Tensor& grad_input) {
        grad_input = backward(grad_output);
    }

    /// Parameters-only backward: accumulate this layer's parameter
    /// gradients from `grad_output` without being asked for the input
    /// gradient. `Model::backward` calls it for the first layer, whose
    /// input gradient nothing reads. The default runs `backward_into` with
    /// `scratch` as the (discarded) input gradient; layers with a costly
    /// input gradient (Conv2d, Dense) override it to skip that work.
    /// Parameter gradients are bit-identical to `backward_into`'s.
    virtual void backward_params(const Tensor& grad_output, Tensor& scratch) {
        backward_into(grad_output, scratch);
    }

    /// Deep copy (parameters, gradients and caches). The copy still points
    /// at the source's RNG until the owning model re-attaches its own —
    /// `Model::clone()` does; manual callers must `attach_rng` themselves.
    [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

    /// Parameter blocks (empty for stateless layers).
    virtual std::vector<ParamBlock> parameters() { return {}; }

    /// Initialize parameters (weight init draws from `rng`); stateless
    /// layers ignore it. Called once when the layer joins a model.
    virtual void initialize(stats::Rng& /*rng*/) {}

    /// Stochastic layers (dropout) draw from the model's generator.
    virtual void attach_rng(stats::Rng* /*rng*/) {}

    [[nodiscard]] virtual std::string name() const = 0;
};

} // namespace fmore::ml
