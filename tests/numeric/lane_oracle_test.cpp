// LinearInterpolator's row evaluation against operator(), bit for bit, on
// uniform knots (the O(1) guess plus exact fix-up) and non-uniform knots
// (binary search): every knot, its floating-point neighbours, the segment
// interiors, both ends and beyond.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fmore/numeric/interpolation.hpp"

namespace fmore::numeric {
namespace {

std::vector<double> probe_points(const std::vector<double>& xs) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> x{-inf, inf, xs.front() - 1.0, xs.back() + 1.0};
    for (std::size_t i = 0; i < xs.size(); ++i) {
        x.push_back(xs[i]);
        x.push_back(std::nextafter(xs[i], -inf));
        x.push_back(std::nextafter(xs[i], inf));
        if (i + 1 < xs.size()) {
            x.push_back(0.5 * (xs[i] + xs[i + 1]));
            x.push_back(xs[i] + 0.999 * (xs[i + 1] - xs[i]));
        }
    }
    return x;
}

void expect_rows_match(const LinearInterpolator& f) {
    const std::vector<double> x = probe_points(f.xs());
    std::vector<double> out(x.size(), -7.0);
    f.eval_rows(x.data(), x.size(), out.data());
    for (std::size_t r = 0; r < x.size(); ++r)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(f(x[r])), std::bit_cast<std::uint64_t>(out[r]))
            << "x = " << x[r];
    // In place: out aliases x.
    std::vector<double> inplace = x;
    f.eval_rows(inplace.data(), inplace.size(), inplace.data());
    for (std::size_t r = 0; r < x.size(); ++r)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[r]),
                  std::bit_cast<std::uint64_t>(inplace[r]));
}

TEST(LaneOracleInterpolator, UniformKnotsMatchOperator) {
    // The solver's score grid shape: u_min + (u_max - u_min) * i / s.
    const std::size_t s = 512;
    std::vector<double> xs(s + 1);
    std::vector<double> ys(s + 1);
    for (std::size_t i = 0; i <= s; ++i) {
        xs[i] = -0.37 + (2.11 - -0.37) * static_cast<double>(i) / static_cast<double>(s);
        ys[i] = std::sin(3.0 * xs[i]) + (i % 3 == 0 ? -0.0 : 0.0);
    }
    expect_rows_match(LinearInterpolator(xs, ys));
    expect_rows_match(LinearInterpolator({0.0, 1.0}, {-0.0, 2.0}));
}

TEST(LaneOracleInterpolator, NonUniformKnotsMatchOperator) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < 40; ++i) {
        const double t = static_cast<double>(i);
        xs.push_back(t * t * 0.01);
        ys.push_back(std::exp(-t * 0.1));
    }
    expect_rows_match(LinearInterpolator(xs, ys));
}

} // namespace
} // namespace fmore::numeric
