#include "fmore/ml/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

// Vectorization hint for the unit-stride j loops. Independent accumulators
// only — never a reduction — so the hint cannot reassociate any single
// element's sum and bit-exactness is preserved. Compiled away to nothing
// when the build has no OpenMP-simd support.
#if defined(FMORE_OPENMP_SIMD)
#define FMORE_SIMD _Pragma("omp simd")
#else
#define FMORE_SIMD
#endif

namespace fmore::ml {

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_naive_mode{-1};

bool env_naive() {
    const char* env = std::getenv("FMORE_NAIVE_KERNELS");
    if (env == nullptr) return false;
    const std::string value(env);
    return value == "1" || value == "true" || value == "yes" || value == "on";
}

} // namespace

bool use_naive_kernels() {
    const int mode = g_naive_mode.load(std::memory_order_relaxed);
    if (mode >= 0) return mode != 0;
    static const bool from_env = env_naive();
    return from_env;
}

void set_naive_kernels(int mode) {
    g_naive_mode.store(mode < 0 ? -1 : (mode != 0 ? 1 : 0),
                       std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// GEMM micro-kernels
// ---------------------------------------------------------------------------

namespace {

/// Register-block width along j. 16 floats = 2-4 SIMD registers on
/// SSE/AVX/NEON; with the 4-row i-block below the hot loop keeps 8-16
/// vector accumulators live, enough to hide FMA latency.
constexpr std::size_t kNR = 16;
/// Register-block height along i.
constexpr std::size_t kMR = 4;
/// Images per lane block of `conv2d_input_grad_lanes`.
constexpr std::size_t kConvLanes = 16;

using diff = std::ptrdiff_t;

template <std::size_t N>
using width = std::integral_constant<std::size_t, N>;

/// Walk [0, n) in register tiles: full kNR-wide tiles, then at most one
/// 8-, one 4- and one 3/2/1-wide tail, calling `tile(width<NR>{}, j)`.
template <typename Tile>
inline void for_each_j_tile(std::size_t n, Tile&& tile) {
    std::size_t j = 0;
    for (; j + kNR <= n; j += kNR) tile(width<kNR>{}, j);
    if (j + 8 <= n) {
        tile(width<8>{}, j);
        j += 8;
    }
    if (j + 4 <= n) {
        tile(width<4>{}, j);
        j += 4;
    }
    switch (n - j) {
    case 3: tile(width<3>{}, j); break;
    case 2: tile(width<2>{}, j); break;
    case 1: tile(width<1>{}, j); break;
    default: break;
    }
}

/// Cover the m x n output with register tiles: kMR-row blocks, then one
/// 3/2/1-row tail block, each walked by `for_each_j_tile`, calling
/// `tile(width<MR>{}, width<NR>{}, i, j)`. Every tile shape runs the same
/// per-element chain, so the tiling never changes a result; the narrow
/// edges keep their rows and columns interleaved instead of falling back
/// to serial per-element dot products.
template <typename Tile>
inline void for_each_tile(std::size_t m, std::size_t n, Tile&& tile) {
    std::size_t i = 0;
    const auto rows = [&](auto mr) {
        for_each_j_tile(n, [&](auto nr, std::size_t j) { tile(mr, nr, i, j); });
    };
    for (; i + kMR <= m; i += kMR) rows(width<kMR>{});
    switch (m - i) {
    case 3: rows(width<3>{}); break;
    case 2: rows(width<2>{}); break;
    case 1: rows(width<1>{}); break;
    default: break;
    }
}

/// One MR x NR register tile of gemm_acc: C += A B over the whole k range,
/// each element a running sum seeded from C. Up to four rows in flight keep
/// enough independent chains to hide latency even when the j extent is
/// narrow.
template <std::size_t MR, std::size_t NR>
inline void tile_acc(std::size_t kk, const float* a, diff a_row, diff a_col,
                     const float* b, diff b_row, float* c, diff c_row) {
    float acc[MR][NR];
    for (std::size_t r = 0; r < MR; ++r) {
        const float* crow = c + static_cast<diff>(r) * c_row;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) acc[r][jj] = crow[jj];
    }
    // Walking pointers, not k * stride indexing: with indexing, GCC spills
    // the accumulators to the stack.
    const float* ak = a;
    const float* brow = b;
    for (std::size_t k = 0; k < kk; ++k, ak += a_col, brow += b_row) {
        float av[MR];
        for (std::size_t r = 0; r < MR; ++r) av[r] = ak[static_cast<diff>(r) * a_row];
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) {
            const float bv = brow[jj];
            for (std::size_t r = 0; r < MR; ++r) acc[r][jj] += av[r] * bv;
        }
    }
    for (std::size_t r = 0; r < MR; ++r) {
        float* crow = c + static_cast<diff>(r) * c_row;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) crow[jj] = acc[r][jj];
    }
}

// --- "part" tiles: the per-group unit of the bias-seeded grouped GEMM. ---
// Each tile sums its K-slice in fresh registers, then stores either
// `bias + part` (First slice — matches `y = bias; y += group_sum`) or
// `c + part` (later slices). The full kMR x kNR register blocking applies,
// which a running accumulator beside the per-group one could not afford (it
// would need twice the accumulator registers).

template <std::size_t MR, std::size_t NR, bool First>
inline void tile_part(std::size_t kk, const float* a, diff a_row, diff a_col,
                      const float* b, diff b_row, float* c, diff c_row,
                      const float* bias) {
    float part[MR][NR];
    for (auto& row : part) {
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) row[jj] = 0.0F;
    }
    const float* ak = a;
    const float* brow = b;
    for (std::size_t k = 0; k < kk; ++k, ak += a_col, brow += b_row) {
        float av[MR];
        for (std::size_t r = 0; r < MR; ++r) av[r] = ak[static_cast<diff>(r) * a_row];
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) {
            const float bv = brow[jj];
            for (std::size_t r = 0; r < MR; ++r) part[r][jj] += av[r] * bv;
        }
    }
    for (std::size_t r = 0; r < MR; ++r) {
        float* crow = c + static_cast<diff>(r) * c_row;
        const float seed = First ? bias[r] : 0.0F;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) {
            crow[jj] = (First ? seed : crow[jj]) + part[r][jj];
        }
    }
}

/// One m x n pass over a K-slice of the bias-seeded grouped GEMM.
template <bool First>
void gemm_part_pass(std::size_t m, std::size_t n, std::size_t kk,
                    const float* a, diff a_row, diff a_col,
                    const float* b, diff b_row,
                    float* c, diff c_row, const float* bias) {
    for_each_tile(m, n, [&](auto mr, auto nr, std::size_t i, std::size_t j) {
        tile_part<decltype(mr)::value, decltype(nr)::value, First>(
            kk, a + static_cast<diff>(i) * a_row, a_row, a_col, b + j, b_row,
            c + static_cast<diff>(i) * c_row + static_cast<diff>(j), c_row, bias + i);
    });
}

inline bool is_unpadded_stride1(const ConvShape& s) {
    return s.stride_h == 1 && s.stride_w == 1 && s.pad_h == 0 && s.pad_w == 0;
}

/// One MR x NR tile of the convolution weight gradient with output
/// channels in lanes: dwt[r][oc] += sum over output pixels p = (oy, ox)
/// ascending of tap_r(p) * gyt[p][oc], rows r = i0.. of the [rows][oc]
/// gradient. Row r = (ic, ky, kx) broadcasts its taps straight from the
/// image, x[ic][oy+ky][ox+kx] (stride 1, unpadded) — no column matrix.
template <std::size_t MR, std::size_t NR>
inline void tile_taps(const float* x, const ConvShape& s, std::size_t i0,
                      const float* gyt, std::size_t out_c, float* dwt) {
    const std::size_t oh = s.out_h();
    const std::size_t ow = s.out_w();
    const std::size_t taps = s.kh * s.kw;
    std::size_t off[MR];
    float acc[MR][NR];
    for (std::size_t r = 0; r < MR; ++r) {
        const std::size_t row = i0 + r;
        const std::size_t t = row % taps;
        off[r] = ((row / taps) * s.h + t / s.kw) * s.w + t % s.kw;
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) acc[r][jj] = dwt[r * out_c + jj];
    }
    const float* g = gyt;
    for (std::size_t oy = 0; oy < oh; ++oy) {
        const float* xp = x + oy * s.w;
        for (std::size_t ox = 0; ox < ow; ++ox, ++xp, g += out_c) {
            float av[MR];
            for (std::size_t r = 0; r < MR; ++r) av[r] = xp[off[r]];
            FMORE_SIMD
            for (std::size_t jj = 0; jj < NR; ++jj) {
                const float gv = g[jj];
                for (std::size_t r = 0; r < MR; ++r) acc[r][jj] += av[r] * gv;
            }
        }
    }
    for (std::size_t r = 0; r < MR; ++r) {
        FMORE_SIMD
        for (std::size_t jj = 0; jj < NR; ++jj) dwt[r * out_c + jj] = acc[r][jj];
    }
}

} // namespace

void gemm_acc(std::size_t m, std::size_t n, std::size_t kk,
              const float* a, diff a_row, diff a_col,
              const float* b, diff b_row,
              float* c, diff c_row) {
    for_each_tile(m, n, [&](auto mr, auto nr, std::size_t i, std::size_t j) {
        tile_acc<decltype(mr)::value, decltype(nr)::value>(
            kk, a + static_cast<diff>(i) * a_row, a_row, a_col, b + j, b_row,
            c + static_cast<diff>(i) * c_row + static_cast<diff>(j), c_row);
    });
}

/// Bias-seeded grouped GEMM: C = bias (broadcast per row) + per-group
/// partial sums — one `gemm_part_pass` per K-slice, so every slice gets the
/// full register blocking.
static void gemm_bias_grouped(std::size_t m, std::size_t n, std::size_t kk,
                              const float* a, diff a_row, diff a_col,
                              const float* b, diff b_row,
                              float* c, diff c_row, std::size_t group,
                              const float* bias) {
    if (group == 0 || group > kk) group = kk;
    bool first = true;
    for (std::size_t k0 = 0; k0 < kk; k0 += group, first = false) {
        const std::size_t ks = std::min(group, kk - k0);
        const float* a_g = a + static_cast<diff>(k0) * a_col;
        const float* b_g = b + static_cast<diff>(k0) * b_row;
        if (first) {
            gemm_part_pass<true>(m, n, ks, a_g, a_row, a_col, b_g, b_row, c, c_row,
                                 bias);
        } else {
            gemm_part_pass<false>(m, n, ks, a_g, a_row, a_col, b_g, b_row, c, c_row,
                                  bias);
        }
    }
}

// ---------------------------------------------------------------------------
// im2col
// ---------------------------------------------------------------------------

void im2col(const float* x, const ConvShape& s, float* col) {
    const std::size_t oh = s.out_h();
    const std::size_t ow = s.out_w();
    float* out = col;
    for (std::size_t ic = 0; ic < s.in_c; ++ic) {
        const float* xmap = x + ic * s.h * s.w;
        for (std::size_t ky = 0; ky < s.kh; ++ky) {
            for (std::size_t kx = 0; kx < s.kw; ++kx) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    const diff iy = static_cast<diff>(oy * s.stride_h + ky)
                                    - static_cast<diff>(s.pad_h);
                    float* orow = out + oy * ow;
                    if (iy < 0 || iy >= static_cast<diff>(s.h)) {
                        std::memset(orow, 0, ow * sizeof(float));
                        continue;
                    }
                    const float* xrow = xmap + static_cast<std::size_t>(iy) * s.w;
                    if (s.stride_w == 1) {
                        // Unit stride: the row is one contiguous span with
                        // zero-padded edges.
                        const diff shift =
                            static_cast<diff>(kx) - static_cast<diff>(s.pad_w);
                        const std::size_t lo = std::min<std::size_t>(
                            ow, shift < 0 ? static_cast<std::size_t>(-shift) : 0);
                        const std::size_t hi = std::max<std::size_t>(
                            lo, std::min<std::size_t>(
                                    ow, static_cast<std::size_t>(std::max<diff>(
                                            0, static_cast<diff>(s.w) - shift))));
                        for (std::size_t ox = 0; ox < lo; ++ox) orow[ox] = 0.0F;
                        if (hi > lo) {
                            // Inline vector copy: these spans are a few
                            // dozen floats, below memcpy's call overhead.
                            const float* src = xrow + static_cast<std::size_t>(
                                                   static_cast<diff>(lo) + shift);
                            float* dst = orow + lo;
                            const std::size_t span = hi - lo;
                            FMORE_SIMD
                            for (std::size_t t = 0; t < span; ++t) dst[t] = src[t];
                        }
                        for (std::size_t ox = hi; ox < ow; ++ox) orow[ox] = 0.0F;
                        continue;
                    }
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const diff ix = static_cast<diff>(ox * s.stride_w + kx)
                                        - static_cast<diff>(s.pad_w);
                        orow[ox] = (ix < 0 || ix >= static_cast<diff>(s.w))
                                       ? 0.0F
                                       : xrow[static_cast<std::size_t>(ix)];
                    }
                }
                out += oh * ow;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Convolution on top of the kernels
// ---------------------------------------------------------------------------

void conv2d_forward_gemm(const float* x, const float* weight, const float* bias,
                         std::size_t out_c, const ConvShape& s, float* col, float* y) {
    im2col(x, s, col);
    const std::size_t rows = s.col_rows();
    const std::size_t cols = s.col_cols();
    gemm_bias_grouped(out_c, cols, rows,
                      weight, static_cast<diff>(rows), 1,
                      col, static_cast<diff>(cols),
                      y, static_cast<diff>(cols), s.kh * s.kw, bias);
}

void transpose(std::size_t rows, std::size_t cols, const float* src, float* dst) {
    // 8 x 8 blocks keep both the read and the write side within a few
    // cache lines, whatever the matrix shape.
    constexpr std::size_t kBlock = 8;
    for (std::size_t r0 = 0; r0 < rows; r0 += kBlock) {
        const std::size_t r1 = std::min(rows, r0 + kBlock);
        for (std::size_t c0 = 0; c0 < cols; c0 += kBlock) {
            const std::size_t c1 = std::min(cols, c0 + kBlock);
            for (std::size_t r = r0; r < r1; ++r) {
                for (std::size_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
            }
        }
    }
}

void conv2d_weight_grad(const float* x, const float* gy, std::size_t batch,
                        std::size_t out_c, const ConvShape& s,
                        std::vector<float>& scratch, float* dw) {
    if (!is_unpadded_stride1(s))
        throw std::invalid_argument("conv2d_weight_grad: stride-1, unpadded only");
    const std::size_t rows = s.col_rows();
    const std::size_t p = s.col_cols();
    scratch.resize(rows * out_c + p * out_c);
    float* dwt = scratch.data();      // [rows][out_c]
    float* gyt = dwt + rows * out_c;  // [p][out_c]
    transpose(out_c, rows, dw, dwt);
    for (std::size_t b = 0; b < batch; ++b) {
        const float* xb = x + b * s.in_c * s.h * s.w;
        transpose(out_c, p, gy + b * out_c * p, gyt);
        for_each_tile(rows, out_c, [&](auto mr, auto nr, std::size_t i, std::size_t j) {
            tile_taps<decltype(mr)::value, decltype(nr)::value>(xb, s, i, gyt + j, out_c,
                                                                dwt + i * out_c + j);
        });
    }
    transpose(rows, out_c, dwt, dw);
}

void conv2d_input_grad_lanes(const float* gy, const float* weight, std::size_t batch,
                             std::size_t out_c, const ConvShape& s,
                             std::vector<float>& scratch, float* gx) {
    const std::size_t oh = s.out_h();
    const std::size_t ow = s.out_w();
    const std::size_t p = oh * ow;
    const std::size_t hw = s.h * s.w;
    if (!is_unpadded_stride1(s))
        throw std::invalid_argument("conv2d_input_grad_lanes: stride-1, unpadded only");
    scratch.resize((out_c * p + s.in_c * hw) * kConvLanes);
    for (std::size_t b0 = 0; b0 < batch; b0 += kConvLanes) {
        const std::size_t lanes = std::min(kConvLanes, batch - b0);
        float* gyl = scratch.data();         // [oc][p][lane]
        float* gxl = gyl + out_c * p * lanes; // [ic][h*w][lane]
        transpose(lanes, out_c * p, gy + b0 * out_c * p, gyl);
        std::fill(gxl, gxl + s.in_c * hw * lanes, 0.0F);
        const std::size_t span = ow * lanes;
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t ic = 0; ic < s.in_c; ++ic) {
                const float* ker = weight + (oc * s.in_c + ic) * s.kh * s.kw;
                float* gxmap = gxl + ic * hw * lanes;
                // Descending (ky, kx) is the reference loops' ascending
                // output-pixel order per input pixel.
                for (std::size_t ky = s.kh; ky-- > 0;) {
                    for (std::size_t kx = s.kw; kx-- > 0;) {
                        const float wv = ker[ky * s.kw + kx];
                        for (std::size_t oy = 0; oy < oh; ++oy) {
                            float* dst = gxmap + ((oy + ky) * s.w + kx) * lanes;
                            const float* src = gyl + (oc * p + oy * ow) * lanes;
                            FMORE_SIMD
                            for (std::size_t t = 0; t < span; ++t) dst[t] += src[t] * wv;
                        }
                    }
                }
            }
        }
        transpose(s.in_c * hw, lanes, gxl, gx + b0 * s.in_c * hw);
    }
}

} // namespace fmore::ml
