#pragma once

/// @file gemm.hpp
/// The micro-kernel substrate of the ml layer: a register-blocked,
/// cache-friendly float GEMM plus the im2col lowering and lane-layout
/// convolution kernels that turn convolutions into matrix multiplies.
/// `Conv2d`, `Dense` and `Lstm`'s gate matmuls are all built on these
/// kernels; `FMORE_NAIVE_KERNELS=1` (or `set_naive_kernels`) switches every
/// layer back to the original textbook loops, which stay compiled as the
/// reference implementation.
///
/// ## Bit-exactness contract
///
/// The fast path is not merely "close" to the naive loops — it is
/// bit-identical. Every kernel accumulates each output element's terms in
/// the exact summation order of the reference loops (ascending k, single
/// running accumulator seeded from C), and vectorization is only applied
/// across *independent* accumulators (the unit-stride j dimension), which
/// never reassociates any single element's sum. Fused-multiply-add
/// contraction, when the compiler applies it, applies to the identical
/// `acc += a * b` operation in both paths. This is what lets the naive
/// escape hatch double as an exact equivalence oracle in tests, and keeps
/// every experiment's metrics unchanged by the kernel rewrite.
///
/// ## Lane layouts
///
/// Some kernels transpose an operand so that a dimension of *independent*
/// elements becomes the unit-stride lane dimension, then transpose the
/// result back. Such a layout only decides which chains run side by side;
/// no single element's chain is split or reordered:
/// - `conv2d_input_grad_lanes` puts up to 16 images of the batch in lanes
///   (`gy` as [oc][p][lane], `gx` as [ic][h*w][lane]). Images never share
///   an element, and each element still sums oc ascending, then
///   kernel taps (ky, kx) descending — the reference's ascending output
///   pixel order.
/// - `conv2d_weight_grad` puts output channels in lanes (`gy` as [p][oc],
///   the gradient as [tap][oc]). Each element still sums images ascending,
///   then output pixels ascending, seeded from the existing gradient.
/// - `Dense` forward computes y^T = W x^T with the batch in lanes; each
///   element is still seeded from its bias and summed over inputs
///   ascending.

#include <cstddef>
#include <vector>

namespace fmore::ml {

/// True when the original textbook loops should be used instead of the
/// GEMM-backed kernels. Defaults to the `FMORE_NAIVE_KERNELS` environment
/// variable ("1"/"true" enables); `set_naive_kernels` overrides at runtime.
[[nodiscard]] bool use_naive_kernels();

/// Runtime override for tests/benches: 0 = force fast kernels, 1 = force
/// naive loops, -1 = back to the environment default.
void set_naive_kernels(int mode);

/// C[i*c_row + j] += sum_{k} A[i*a_row + k*a_col] * B[k*b_row + j]
/// for i in [0,m), j in [0,n), k in [0,kk).
///
/// B and C are indexed with unit stride in j (the vectorized dimension);
/// A may be any strided layout (a_col = leading-dimension stride expresses
/// a transposed A without materializing it). Accumulation per element is a
/// single running sum over ascending k seeded from the existing C value —
/// the bit-exact order of a textbook `acc += a*b` loop.
void gemm_acc(std::size_t m, std::size_t n, std::size_t kk,
              const float* a, std::ptrdiff_t a_row, std::ptrdiff_t a_col,
              const float* b, std::ptrdiff_t b_row,
              float* c, std::ptrdiff_t c_row);

/// Geometry of one 2-D convolution (single image). `Conv2d` runs only
/// stride-1/valid; im2col and the forward also accept stride and padding,
/// which only their tests exercise. The gradient kernels reject both.
struct ConvShape {
    std::size_t in_c = 1;
    std::size_t h = 0, w = 0;      ///< input spatial dims
    std::size_t kh = 0, kw = 0;    ///< kernel dims
    std::size_t stride_h = 1, stride_w = 1;
    std::size_t pad_h = 0, pad_w = 0;

    [[nodiscard]] std::size_t out_h() const {
        return (h + 2 * pad_h - kh) / stride_h + 1;
    }
    [[nodiscard]] std::size_t out_w() const {
        return (w + 2 * pad_w - kw) / stride_w + 1;
    }
    /// Rows of the column matrix: in_c * kh * kw.
    [[nodiscard]] std::size_t col_rows() const { return in_c * kh * kw; }
    /// Columns of the column matrix: out_h * out_w.
    [[nodiscard]] std::size_t col_cols() const { return out_h() * out_w(); }
};

/// Lower one image x[in_c][h][w] to col[col_rows][col_cols] (row index
/// (ic*kh + ky)*kw + kx, column index oy*out_w + ox). Out-of-bounds taps
/// (padding) contribute 0.
void im2col(const float* x, const ConvShape& s, float* col);

/// Convolution forward for one image via im2col + grouped GEMM:
/// y[oc][p] = bias[oc] + sum over the patch of weight[oc][ic][ky][kx] *
/// x-tap, with a per-input-channel partial accumulator (`group = kh*kw`) so
/// the result is bit-identical to the direct per-channel loops. `col` is
/// caller scratch of size col_rows()*col_cols(); y is overwritten.
void conv2d_forward_gemm(const float* x, const float* weight, const float* bias,
                         std::size_t out_c, const ConvShape& s, float* col, float* y);

/// dst[c*rows + r] = src[r*cols + c]: the [rows][cols] matrix transposed.
void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst);

/// Weight gradient of a batch of `batch` images x[b][in_c][h][w] against
/// gy[b][out_c][out_h*out_w]: dw[oc][r] += sum over images b ascending, then
/// output pixels p ascending, of gy[b][oc][p] * im2col(x_b)[r][p] — the
/// reference loops' chain, seeded from dw. Lanes run over output channels
/// (see "Lane layouts") and each tap is broadcast straight from x, so no
/// column matrix is built. Stride-1 and unpadded only (what Conv2d runs);
/// `scratch` is resized as needed.
void conv2d_weight_grad(const float* x, const float* gy, std::size_t batch,
                        std::size_t out_c, const ConvShape& s,
                        std::vector<float>& scratch, float* dw);

/// Input gradient of a batch, bit-identical to the reference scatter
/// loops: gx[b][ic][iy][ix] = sum over oc ascending, then kernel taps
/// (ky, kx) descending, of gy[b][oc][iy-ky][ix-kx] * weight[oc][ic][ky][kx].
/// Up to 16 images run in lanes, so every (oc, ic, ky, kx, oy) step is one
/// contiguous saxpy of out_w * lanes floats. Stride-1 and unpadded only
/// (what Conv2d runs); gx is overwritten; `scratch` is resized as needed.
void conv2d_input_grad_lanes(const float* gy, const float* weight, std::size_t batch,
                             std::size_t out_c, const ConvShape& s,
                             std::vector<float>& scratch, float* gx);

} // namespace fmore::ml
