// Kernel-equivalence suite: the GEMM-backed fast paths must match the
// naive reference loops to <= 1e-10 (they are in fact designed to be
// bit-identical — see gemm.hpp's order contract), across random shapes
// including non-square inputs, non-square kernels, and the stride/pad
// generality of the im2col/col2im helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "fmore/ml/conv2d.hpp"
#include "fmore/ml/dense.hpp"
#include "fmore/ml/gemm.hpp"
#include "fmore/ml/lstm.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/ml/tensor.hpp"
#include "fmore/stats/rng.hpp"

namespace fmore::ml {
namespace {

constexpr double kTol = 1e-10;

/// RAII kernel-path override so a failing assertion cannot leak the mode.
struct KernelMode {
    explicit KernelMode(int mode) { set_naive_kernels(mode); }
    ~KernelMode() { set_naive_kernels(-1); }
};

Tensor random_tensor(std::vector<std::size_t> shape, stats::Rng& rng) {
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

void expect_close(const Tensor& a, const Tensor& b, const std::string& what) {
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NEAR(a[i], b[i], kTol) << what << " element " << i;
    }
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_NEAR(a[i], b[i], kTol) << what << " element " << i;
    }
}

/// Stricter than expect_close: equal bit patterns, so even the sign of a
/// zero must agree.
void expect_bit_identical(const std::vector<float>& a, const std::vector<float>& b,
                          const std::string& what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
            << what << " element " << i << ": " << a[i] << " vs " << b[i];
    }
}

// ---------------------------------------------------------------------------
// Test-side lowering helpers. No layer runs these; they live here so the
// suites below keep checking the production kernels they are built from.
// ---------------------------------------------------------------------------

/// gemm_acc with K split into consecutive groups of `group` terms, each
/// summed in a fresh accumulator that is then added to C. Composed from
/// gemm_acc calls on K-slices, so it checks that slicing K through the
/// production kernel keeps every chain intact.
void gemm_acc_grouped(std::size_t m, std::size_t n, std::size_t kk, const float* a,
                      std::ptrdiff_t a_row, std::ptrdiff_t a_col, const float* b,
                      std::ptrdiff_t b_row, float* c, std::ptrdiff_t c_row,
                      std::size_t group) {
    if (group == 0) group = kk;
    std::vector<float> part(m * n);
    for (std::size_t k0 = 0; k0 < kk; k0 += group) {
        const std::size_t ks = std::min(group, kk - k0);
        std::fill(part.begin(), part.end(), 0.0F);
        gemm_acc(m, n, ks, a + static_cast<std::ptrdiff_t>(k0) * a_col, a_row, a_col,
                 b + static_cast<std::ptrdiff_t>(k0) * b_row, b_row, part.data(),
                 static_cast<std::ptrdiff_t>(n));
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                c[static_cast<std::ptrdiff_t>(i) * c_row + static_cast<std::ptrdiff_t>(j)] +=
                    part[i * n + j];
            }
        }
    }
}

/// The column matrix transposed, colt[col_cols][col_rows], via im2col.
void im2col_t(const float* x, const ConvShape& s, float* colt) {
    std::vector<float> col(s.col_rows() * s.col_cols());
    im2col(x, s, col.data());
    transpose(s.col_rows(), s.col_cols(), col.data(), colt);
}

/// Adjoint of im2col, textbook scatter: col[col_rows][col_cols] is added
/// back into gx[in_c][h][w]; out-of-bounds (padding) taps are dropped.
void col2im_add(const float* col, const ConvShape& s, float* gx) {
    const std::size_t oh = s.out_h();
    const std::size_t ow = s.out_w();
    std::size_t row = 0;
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
        for (std::size_t ky = 0; ky < s.kh; ++ky) {
            for (std::size_t kx = 0; kx < s.kw; ++kx, ++row) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const auto iy = static_cast<std::ptrdiff_t>(oy * s.stride_h + ky)
                                        - static_cast<std::ptrdiff_t>(s.pad_h);
                        const auto ix = static_cast<std::ptrdiff_t>(ox * s.stride_w + kx)
                                        - static_cast<std::ptrdiff_t>(s.pad_w);
                        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.h) || ix < 0
                            || ix >= static_cast<std::ptrdiff_t>(s.w)) {
                            continue;
                        }
                        gx[(ic * s.h + static_cast<std::size_t>(iy)) * s.w
                           + static_cast<std::size_t>(ix)] += col[row * oh * ow + oy * ow + ox];
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Raw kernel vs scalar reference
// ---------------------------------------------------------------------------

TEST(GemmKernelTest, MatchesScalarReferenceOnRandomShapes) {
    stats::Rng rng(31);
    // Shapes chosen to hit every tile path: full 4x16 tiles, 8/4-wide
    // tails, scalar tails, 1-3 row tails, tiny and skinny extremes.
    const std::vector<std::array<std::size_t, 3>> shapes = {
        {4, 16, 8},  {8, 100, 9}, {5, 17, 3},  {3, 7, 11},  {1, 1, 1},
        {2, 37, 64}, {16, 9, 100}, {7, 23, 5}, {13, 52, 21}, {4, 4, 200},
    };
    for (const auto& [m, n, k] : shapes) {
        std::vector<float> a(m * k);
        std::vector<float> b(k * n);
        std::vector<float> c_ref(m * n);
        for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : c_ref) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> c_fast = c_ref;

        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                float acc = c_ref[i * n + j];
                for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
                c_ref[i * n + j] = acc;
            }
        }
        gemm_acc(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                 static_cast<std::ptrdiff_t>(n), c_fast.data(),
                 static_cast<std::ptrdiff_t>(n));
        expect_close(c_fast, c_ref,
                     "gemm " + std::to_string(m) + "x" + std::to_string(n) + "x"
                         + std::to_string(k));
    }
}

TEST(GemmKernelTest, EveryEdgeTileShapeMatchesScalarReference) {
    // m = 1..9 and n = 1..37 reach every register-tile shape: 4/3/2/1 rows
    // against 16/8/4/3/2/1 lanes, alone and behind full tiles.
    stats::Rng rng(36);
    const std::size_t k = 7;
    for (std::size_t m = 1; m <= 9; ++m) {
        for (std::size_t n = 1; n <= 37; ++n) {
            std::vector<float> a(m * k);
            std::vector<float> b(k * n);
            std::vector<float> c_ref(m * n);
            for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
            for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
            for (float& v : c_ref) v = static_cast<float>(rng.uniform(-1.0, 1.0));
            std::vector<float> c_fast = c_ref;
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    float acc = c_ref[i * n + j];
                    for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
                    c_ref[i * n + j] = acc;
                }
            }
            gemm_acc(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                     static_cast<std::ptrdiff_t>(n), c_fast.data(),
                     static_cast<std::ptrdiff_t>(n));
            expect_bit_identical(c_fast, c_ref,
                                 "gemm " + std::to_string(m) + "x" + std::to_string(n));
        }
    }
}

TEST(GemmKernelTest, StridedATransposeMatchesMaterializedTranspose) {
    stats::Rng rng(32);
    const std::size_t m = 6, n = 21, k = 13;
    std::vector<float> at(k * m); // a stored transposed [k x m]
    std::vector<float> b(k * n);
    std::vector<float> c_ref(m * n, 0.25F);
    for (float& v : at) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> c_fast = c_ref;

    // Reference through a materialized row-major A.
    std::vector<float> a(m * k);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk) a[i * k + kk] = at[kk * m + i];
    gemm_acc(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
             static_cast<std::ptrdiff_t>(n), c_ref.data(),
             static_cast<std::ptrdiff_t>(n));
    // Same multiply via strides: row stride 1, column stride m.
    gemm_acc(m, n, k, at.data(), 1, static_cast<std::ptrdiff_t>(m), b.data(),
             static_cast<std::ptrdiff_t>(n), c_fast.data(),
             static_cast<std::ptrdiff_t>(n));
    expect_close(c_fast, c_ref, "strided-A gemm");
}

TEST(GemmKernelTest, GroupedAccumulationMatchesGroupedReference) {
    stats::Rng rng(33);
    const std::size_t m = 5, n = 19, k = 18, group = 6;
    std::vector<float> a(m * k);
    std::vector<float> b(k * n);
    std::vector<float> c_ref(m * n, 1.0F);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> c_fast = c_ref;

    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c_ref[i * n + j];
            for (std::size_t g0 = 0; g0 < k; g0 += group) {
                float part = 0.0F;
                for (std::size_t kk = g0; kk < std::min(k, g0 + group); ++kk) {
                    part += a[i * k + kk] * b[kk * n + j];
                }
                acc += part;
            }
            c_ref[i * n + j] = acc;
        }
    }
    gemm_acc_grouped(m, n, k, a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                     static_cast<std::ptrdiff_t>(n), c_fast.data(),
                     static_cast<std::ptrdiff_t>(n), group);
    expect_close(c_fast, c_ref, "grouped gemm");
}

// ---------------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------------

ConvShape make_shape(std::size_t in_c, std::size_t h, std::size_t w, std::size_t kh,
                     std::size_t kw, std::size_t stride, std::size_t pad) {
    ConvShape s;
    s.in_c = in_c;
    s.h = h;
    s.w = w;
    s.kh = kh;
    s.kw = kw;
    s.stride_h = s.stride_w = stride;
    s.pad_h = s.pad_w = pad;
    return s;
}

/// Reference im2col: the textbook definition, no fast paths.
std::vector<float> im2col_reference(const std::vector<float>& x, const ConvShape& s) {
    const std::size_t oh = s.out_h();
    const std::size_t ow = s.out_w();
    std::vector<float> col(s.col_rows() * s.col_cols(), -1.0F);
    std::size_t row = 0;
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
        for (std::size_t ky = 0; ky < s.kh; ++ky) {
            for (std::size_t kx = 0; kx < s.kw; ++kx, ++row) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const auto iy = static_cast<std::ptrdiff_t>(oy * s.stride_h + ky)
                                        - static_cast<std::ptrdiff_t>(s.pad_h);
                        const auto ix = static_cast<std::ptrdiff_t>(ox * s.stride_w + kx)
                                        - static_cast<std::ptrdiff_t>(s.pad_w);
                        const bool in =
                            iy >= 0 && iy < static_cast<std::ptrdiff_t>(s.h) && ix >= 0
                            && ix < static_cast<std::ptrdiff_t>(s.w);
                        col[row * oh * ow + oy * ow + ox] =
                            in ? x[(ic * s.h + static_cast<std::size_t>(iy)) * s.w
                                   + static_cast<std::size_t>(ix)]
                               : 0.0F;
                    }
                }
            }
        }
    }
    return col;
}

TEST(Im2ColTest, MatchesReferenceAcrossStridePadAndNonSquareShapes) {
    stats::Rng rng(34);
    const std::vector<ConvShape> shapes = {
        make_shape(1, 12, 12, 3, 3, 1, 0),  // the MNIST layer
        make_shape(3, 9, 14, 3, 3, 1, 0),   // non-square input
        make_shape(2, 8, 8, 3, 5, 1, 0),    // non-square kernel
        make_shape(2, 10, 10, 3, 3, 1, 1),  // padding
        make_shape(1, 11, 13, 5, 3, 2, 0),  // stride 2
        make_shape(2, 9, 7, 3, 3, 2, 2),    // stride + wide pad
        make_shape(1, 4, 4, 4, 4, 1, 3),    // pad wider than the image edge
    };
    for (const ConvShape& s : shapes) {
        std::vector<float> x(s.in_c * s.h * s.w);
        for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const std::vector<float> expected = im2col_reference(x, s);

        std::vector<float> col(s.col_rows() * s.col_cols(), -7.0F);
        im2col(x.data(), s, col.data());
        expect_close(col, expected, "im2col");

        // im2col_t is the same matrix, transposed.
        std::vector<float> colt(s.col_rows() * s.col_cols(), -7.0F);
        im2col_t(x.data(), s, colt.data());
        const std::size_t rows = s.col_rows();
        const std::size_t cols = s.col_cols();
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t p = 0; p < cols; ++p) {
                ASSERT_NEAR(colt[p * rows + r], expected[r * cols + p], kTol)
                    << "im2col_t at (" << r << ", " << p << ")";
            }
        }
    }
}

TEST(Im2ColTest, Col2ImIsTheAdjointOfIm2Col) {
    // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
    // property of the adjoint, which is exactly what backward needs.
    stats::Rng rng(35);
    for (const ConvShape& s :
         {make_shape(2, 7, 9, 3, 3, 1, 1), make_shape(1, 10, 6, 4, 2, 2, 1)}) {
        std::vector<float> x(s.in_c * s.h * s.w);
        std::vector<float> y(s.col_rows() * s.col_cols());
        for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));

        std::vector<float> col(y.size());
        im2col(x.data(), s, col.data());
        std::vector<float> back(x.size(), 0.0F);
        col2im_add(y.data(), s, back.data());

        double lhs = 0.0, rhs = 0.0;
        for (std::size_t i = 0; i < y.size(); ++i)
            lhs += static_cast<double>(col[i]) * static_cast<double>(y[i]);
        for (std::size_t i = 0; i < x.size(); ++i)
            rhs += static_cast<double>(x[i]) * static_cast<double>(back[i]);
        ASSERT_NEAR(lhs, rhs, 1e-4) << "adjoint identity";
    }
}

// ---------------------------------------------------------------------------
// Layer fast path vs naive reference
// ---------------------------------------------------------------------------

/// Run forward+backward under one kernel mode, returning outputs, input
/// gradients and parameter gradients.
struct LayerPass {
    Tensor output;
    Tensor grad_input;
    std::vector<std::vector<float>> param_grads;
};

LayerPass run_layer(Layer& layer, const Tensor& input, const Tensor& grad_out,
                    int mode) {
    const KernelMode guard(mode);
    for (const ParamBlock& block : layer.parameters()) {
        for (float& g : *block.grads) g = 0.0F;
    }
    LayerPass pass;
    pass.output = layer.forward(input, /*training=*/true);
    pass.grad_input = layer.backward(grad_out);
    for (const ParamBlock& block : layer.parameters()) {
        pass.param_grads.push_back(*block.grads);
    }
    return pass;
}

void expect_layer_equivalence(Layer& layer, const Tensor& input,
                              const std::string& what, stats::Rng& rng) {
    Tensor probe;
    {
        const KernelMode guard(1);
        probe = layer.forward(input, true);
    }
    Tensor grad_out(probe.shape());
    for (std::size_t i = 0; i < grad_out.size(); ++i)
        grad_out[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    // Zero some gradient entries: the naive loops short-circuit g == 0, the
    // GEMM path does not, and the results must still agree.
    for (std::size_t i = 0; i < grad_out.size(); i += 7) grad_out[i] = 0.0F;

    const LayerPass naive = run_layer(layer, input, grad_out, 1);
    const LayerPass fast = run_layer(layer, input, grad_out, 0);
    expect_close(fast.output, naive.output, what + " forward");
    expect_close(fast.grad_input, naive.grad_input, what + " grad_input");
    ASSERT_EQ(fast.param_grads.size(), naive.param_grads.size());
    for (std::size_t p = 0; p < fast.param_grads.size(); ++p) {
        expect_close(fast.param_grads[p], naive.param_grads[p],
                     what + " param_grad " + std::to_string(p));
    }
}

TEST(KernelEquivalenceTest, Conv2dMatchesNaiveOnRandomShapes) {
    stats::Rng rng(41);
    struct Case {
        std::size_t batch, in_c, out_c, k, h, w;
    };
    const std::vector<Case> cases = {
        {16, 1, 8, 3, 12, 12},  // MNIST layer
        {4, 3, 8, 3, 14, 14},   // CIFAR layer
        {2, 8, 16, 3, 6, 6},    // deep CIFAR layer
        {3, 2, 5, 3, 9, 13},    // non-square input
        {1, 1, 3, 5, 7, 11},    // big kernel, odd dims
        {2, 4, 4, 1, 5, 6},     // 1x1 kernel
        {17, 3, 8, 3, 14, 14},  // one full image-lane block plus a 1-image tail
        {33, 8, 16, 3, 6, 6},   // two full lane blocks plus a tail
    };
    for (const Case& c : cases) {
        Conv2d layer(c.in_c, c.out_c, c.k);
        layer.initialize(rng);
        const Tensor input = random_tensor({c.batch, c.in_c, c.h, c.w}, rng);
        expect_layer_equivalence(layer, input,
                                 "conv2d " + std::to_string(c.in_c) + "->"
                                     + std::to_string(c.out_c) + " k"
                                     + std::to_string(c.k),
                                 rng);
    }
}

TEST(KernelEquivalenceTest, GemmConvHelpersMatchDirectStridePadReference) {
    // The generic stride/pad lowering (im2col + grouped GEMM) against a
    // direct convolution written independently here.
    stats::Rng rng(42);
    for (const ConvShape& s :
         {make_shape(2, 9, 11, 3, 3, 1, 1), make_shape(3, 8, 8, 3, 5, 2, 2),
          make_shape(1, 12, 7, 5, 3, 2, 0)}) {
        const std::size_t out_c = 6;
        const std::size_t oh = s.out_h();
        const std::size_t ow = s.out_w();
        std::vector<float> x(s.in_c * s.h * s.w);
        std::vector<float> w(out_c * s.col_rows());
        std::vector<float> bias(out_c);
        for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : w) v = static_cast<float>(rng.uniform(-0.5, 0.5));
        for (float& v : bias) v = static_cast<float>(rng.uniform(-0.1, 0.1));

        std::vector<float> expected(out_c * oh * ow);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    double acc = bias[oc];
                    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
                        for (std::size_t ky = 0; ky < s.kh; ++ky) {
                            for (std::size_t kx = 0; kx < s.kw; ++kx) {
                                const auto iy =
                                    static_cast<std::ptrdiff_t>(oy * s.stride_h + ky)
                                    - static_cast<std::ptrdiff_t>(s.pad_h);
                                const auto ix =
                                    static_cast<std::ptrdiff_t>(ox * s.stride_w + kx)
                                    - static_cast<std::ptrdiff_t>(s.pad_w);
                                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(s.h)
                                    || ix < 0
                                    || ix >= static_cast<std::ptrdiff_t>(s.w)) {
                                    continue;
                                }
                                acc += static_cast<double>(
                                           w[(oc * s.in_c + ic) * s.kh * s.kw
                                             + ky * s.kw + kx])
                                       * static_cast<double>(
                                           x[(ic * s.h + static_cast<std::size_t>(iy))
                                                 * s.w
                                             + static_cast<std::size_t>(ix)]);
                            }
                        }
                    }
                    expected[(oc * oh + oy) * ow + ox] = static_cast<float>(acc);
                }
            }
        }

        std::vector<float> col(s.col_rows() * s.col_cols());
        std::vector<float> y(out_c * oh * ow, -9.0F);
        conv2d_forward_gemm(x.data(), w.data(), bias.data(), out_c, s, col.data(),
                            y.data());
        // Double-accumulated reference vs float kernel: float-level
        // agreement (the bit-exactness contract is vs the float loops,
        // covered above).
        for (std::size_t i = 0; i < y.size(); ++i) {
            ASSERT_NEAR(y[i], expected[i], 1e-4) << "stride/pad conv element " << i;
        }
    }
}

TEST(KernelEquivalenceTest, DenseMatchesNaiveOnRandomShapes) {
    stats::Rng rng(43);
    struct Case {
        std::size_t batch, in, out;
    };
    for (const Case& c : std::vector<Case>{
             {16, 200, 64}, {16, 800, 64}, {1, 7, 3}, {5, 33, 17}, {128, 64, 10}}) {
        Dense layer(c.in, c.out);
        layer.initialize(rng);
        const Tensor input = random_tensor({c.batch, c.in}, rng);
        expect_layer_equivalence(layer, input,
                                 "dense " + std::to_string(c.in) + "->"
                                     + std::to_string(c.out),
                                 rng);
    }
}

TEST(KernelEquivalenceTest, LstmMatchesNaiveOnRandomShapes) {
    stats::Rng rng(44);
    struct Case {
        std::size_t batch, seq, embed, hidden;
    };
    for (const Case& c :
         std::vector<Case>{{16, 16, 16, 32}, {3, 5, 7, 11}, {1, 2, 4, 4}}) {
        Lstm layer(c.embed, c.hidden);
        layer.initialize(rng);
        const Tensor input = random_tensor({c.batch, c.seq, c.embed}, rng);
        expect_layer_equivalence(layer, input,
                                 "lstm E" + std::to_string(c.embed) + " H"
                                     + std::to_string(c.hidden),
                                 rng);
    }
}

TEST(KernelEquivalenceTest, WholeModelTrainingStepBitIdentical) {
    // End-to-end: one SGD epoch of the paper's CNN under both kernel paths
    // from identical starting parameters must land on parameters that agree
    // to <= 1e-10 (the layers are bit-identical, so this guards the glue).
    stats::Rng data_rng(45);
    ml::ImageDatasetSpec spec;
    spec.samples = 64;
    const Dataset data = make_synthetic_images(spec, data_rng);
    std::vector<std::size_t> indices(data.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

    auto run_epoch = [&](int mode) {
        const KernelMode guard(mode);
        Model model = make_cnn(ImageSpec{1, 12, 12, data.num_classes}, 99);
        (void)model.train_epoch(data, indices, 16, 0.05);
        return model.get_parameters();
    };
    const std::vector<float> naive = run_epoch(1);
    const std::vector<float> fast = run_epoch(0);
    expect_close(fast, naive, "model parameters after one epoch");
}

/// Parameters after one epoch of `make` on `data` (all samples, batch 16)
/// under one kernel mode.
template <typename MakeModel>
std::vector<float> params_after_epoch(const Dataset& data, MakeModel&& make, int mode) {
    const KernelMode guard(mode);
    std::vector<std::size_t> indices(data.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    Model model = make();
    (void)model.train_epoch(data, indices, 16, 0.05);
    return model.get_parameters();
}

TEST(KernelEquivalenceTest, WholeModelTrainingStepBitIdenticalDeepCnnRaggedBatch) {
    // paper/fig06's model at its CIFAR shape. 37 samples at batch 16 end on
    // a ragged 5-image batch, so the image-lane kernels run a full lane
    // block and a short one; the first Conv2d takes the parameters-only
    // backward.
    stats::Rng data_rng(46);
    const Dataset data = make_synthetic_images(cifar10_spec(37), data_rng);
    const auto make = [&] {
        return make_cnn_deep(ImageSpec{3, 14, 14, data.num_classes}, 98);
    };
    expect_bit_identical(params_after_epoch(data, make, 0), params_after_epoch(data, make, 1),
                         "make_cnn_deep parameters after one epoch");
}

TEST(KernelEquivalenceTest, WholeModelTrainingStepBitIdenticalLstm) {
    // The first layer is an Embedding, which takes Layer's default
    // parameters-only backward (the full backward into scratch).
    stats::Rng data_rng(47);
    const Dataset data = make_synthetic_text(hpnews_spec(40), data_rng);
    const auto make = [&] {
        TextSpec spec;
        spec.vocab = hpnews_spec(40).vocab;
        spec.classes = data.num_classes;
        return make_lstm_classifier(spec, 97);
    };
    expect_bit_identical(params_after_epoch(data, make, 0), params_after_epoch(data, make, 1),
                         "make_lstm_classifier parameters after one epoch");
}

/// backward_params against backward_into on the same forward pass, under
/// one kernel mode: parameter gradients must match bit for bit.
void expect_params_only_backward_matches(Layer& layer, const Tensor& input,
                                         const std::string& what, stats::Rng& rng) {
    for (const int mode : {0, 1}) {
        const KernelMode guard(mode);
        const Tensor out = layer.forward(input, /*training=*/true);
        Tensor grad_out(out.shape());
        for (std::size_t i = 0; i < grad_out.size(); ++i)
            grad_out[i] = static_cast<float>(rng.uniform(-0.5, 0.5));

        const auto grads_after = [&](auto&& run_backward) {
            for (const ParamBlock& block : layer.parameters()) {
                for (float& g : *block.grads) g = 0.25F;  // nonzero seed
            }
            run_backward();
            std::vector<float> flat;
            for (const ParamBlock& block : layer.parameters()) {
                flat.insert(flat.end(), block.grads->begin(), block.grads->end());
            }
            return flat;
        };
        Tensor grad_input;
        const std::vector<float> full =
            grads_after([&] { layer.backward_into(grad_out, grad_input); });
        Tensor scratch;
        const std::vector<float> params_only =
            grads_after([&] { layer.backward_params(grad_out, scratch); });
        expect_bit_identical(params_only, full,
                             what + (mode == 0 ? " (fast)" : " (naive)"));
    }
}

TEST(KernelEquivalenceTest, ParamsOnlyBackwardMatchesFullBackward) {
    stats::Rng rng(48);
    {
        Conv2d layer(3, 8, 3);
        layer.initialize(rng);
        expect_params_only_backward_matches(layer, random_tensor({16, 3, 14, 14}, rng),
                                            "conv2d 3->8 k3", rng);
    }
    {
        Conv2d layer(2, 5, 3);
        layer.initialize(rng);
        expect_params_only_backward_matches(layer, random_tensor({19, 2, 9, 13}, rng),
                                            "conv2d 2->5 k3, ragged batch", rng);
    }
    for (const auto& [batch, in, out] :
         std::vector<std::array<std::size_t, 3>>{{16, 256, 96}, {5, 33, 17}}) {
        Dense layer(in, out);
        layer.initialize(rng);
        expect_params_only_backward_matches(
            layer, random_tensor({batch, in}, rng),
            "dense " + std::to_string(in) + "->" + std::to_string(out), rng);
    }
}

TEST(KernelEquivalenceTest, NaiveKernelEnvDefaultIsOff) {
    set_naive_kernels(-1);
    // Unless the environment explicitly asks for the reference loops, the
    // fast path is the default.
    if (std::getenv("FMORE_NAIVE_KERNELS") == nullptr) {
        EXPECT_FALSE(use_naive_kernels());
    }
}

} // namespace
} // namespace fmore::ml
