// Dropout behaviour through the Model container: stochastic at train time
// (wired to the model RNG), deterministic identity at eval, and training
// with dropout still converges on a separable task.

#include <gtest/gtest.h>

#include "fmore/ml/activations.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/dropout.hpp"
#include "fmore/ml/model.hpp"

namespace fmore::ml {
namespace {

Model dropout_model(std::uint64_t seed, double rate) {
    Model model(seed);
    model.add(std::make_unique<Dense>(6, 16));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Dropout>(rate));
    model.add(std::make_unique<Dense>(16, 3));
    return model;
}

TEST(DropoutModel, EvalIsDeterministic) {
    Model model = dropout_model(1, 0.5);
    Tensor x({2, 6});
    x.fill(0.5F);
    const Tensor a = model.forward(x, false);
    const Tensor b = model.forward(x, false);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(DropoutModel, TrainForwardIsStochastic) {
    Model model = dropout_model(2, 0.5);
    Tensor x({2, 6});
    x.fill(0.5F);
    const Tensor a = model.forward(x, true);
    const Tensor b = model.forward(x, true);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(DropoutModel, StillLearnsSeparableTask) {
    Model model = dropout_model(3, 0.3);
    Dataset data;
    data.sample_shape = {6};
    data.num_classes = 3;
    stats::Rng rng(4);
    for (int i = 0; i < 90; ++i) {
        std::vector<float> feat(6);
        const int label = i % 3;
        for (auto& f : feat) f = static_cast<float>(rng.uniform(-0.3, 0.3));
        feat[static_cast<std::size_t>(label)] += 2.0F;
        data.features.insert(data.features.end(), feat.begin(), feat.end());
        data.labels.push_back(label);
    }
    std::vector<std::size_t> idx(90);
    for (std::size_t i = 0; i < 90; ++i) idx[i] = i;
    for (int e = 0; e < 40; ++e) model.train_epoch(data, idx, 16, 0.1);
    EXPECT_GT(model.evaluate(data, idx).accuracy, 0.9);
}

TEST(DropoutModel, ParameterRoundTripUnaffectedByDropout) {
    Model model = dropout_model(5, 0.4);
    const auto params = model.get_parameters();
    Tensor x({1, 6});
    x.fill(1.0F);
    (void)model.forward(x, true); // dropout draws RNG, must not touch params
    EXPECT_EQ(model.get_parameters(), params);
}

} // namespace
} // namespace fmore::ml
