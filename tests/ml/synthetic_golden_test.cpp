#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "fmore/ml/synthetic.hpp"

namespace fmore::ml {
namespace {

// Bit-level goldens for the dataset generators. Every trial's training and
// test data comes out of these functions, so a change to their draw order,
// their arithmetic or their engine consumption shifts every accuracy curve
// in the repo. The digests below were recorded from the per-pixel
// `Rng::normal` generator; the bulk `normal_fill` path must reproduce them.

/// FNV-1a over 64-bit words.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
};

/// Digest of the feature bit patterns, the labels, the shape, and the next
/// engine output (which pins how many draws the generator consumed).
std::uint64_t digest(const Dataset& data, stats::Rng& after) {
    Fnv1a f;
    for (const std::size_t d : data.sample_shape) f.add(d);
    f.add(data.num_classes);
    for (const float x : data.features) f.add(std::bit_cast<std::uint32_t>(x));
    for (const int l : data.labels) f.add(static_cast<std::uint32_t>(l));
    f.add(after.engine()());
    return f.h;
}

std::uint64_t image_digest(const ImageDatasetSpec& spec, std::uint64_t seed) {
    stats::Rng rng(seed);
    const Dataset data = make_synthetic_images(spec, rng);
    return digest(data, rng);
}

TEST(SyntheticGolden, MnistO) {
    EXPECT_EQ(image_digest(mnist_o_spec(2000), 11), 0xa03cc214cf853b1dULL);
}

TEST(SyntheticGolden, Cifar10) {
    EXPECT_EQ(image_digest(cifar10_spec(2000), 12), 0x85db086bbb9c91beULL);
}

TEST(SyntheticGolden, TestbedCifar) {
    // The testbed's harder proxy (core::ExperimentTrial on a testbed spec).
    ImageDatasetSpec spec = cifar10_spec(2000);
    spec.noise = 0.85;
    spec.prototype_overlap = 0.35;
    EXPECT_EQ(image_digest(spec, 13), 0xc41d20f50152ae09ULL);
}

TEST(SyntheticGolden, HpNewsText) {
    stats::Rng rng(14);
    const Dataset data = make_synthetic_text(hpnews_spec(2000), rng);
    EXPECT_EQ(digest(data, rng), 0xeccd9f29ddbc2b49ULL);
}

} // namespace
} // namespace fmore::ml
