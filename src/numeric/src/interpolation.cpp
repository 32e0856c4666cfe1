#include "fmore/numeric/interpolation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::numeric {

LinearInterpolator::LinearInterpolator(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
    if (xs_.size() != ys_.size())
        throw std::invalid_argument("LinearInterpolator: size mismatch");
    if (xs_.size() < 2) throw std::invalid_argument("LinearInterpolator: need >= 2 knots");
    for (std::size_t i = 1; i < xs_.size(); ++i) {
        if (!(xs_[i] > xs_[i - 1]))
            throw std::invalid_argument("LinearInterpolator: xs must be strictly increasing");
    }
    // Uniform-grid detection (conservative): when every knot sits within a
    // tiny relative tolerance of the linspace prediction, segment lookup
    // can start from an O(1) index guess. The tolerance only gates the
    // OPTIMIZATION — the fix-up in operator() makes the selected segment
    // exact either way.
    const double step =
        (xs_.back() - xs_.front()) / static_cast<double>(xs_.size() - 1);
    const double tolerance =
        1e-9 * std::max(std::abs(xs_.front()), std::abs(xs_.back()));
    bool uniform = step > 0.0;
    for (std::size_t i = 1; uniform && i + 1 < xs_.size(); ++i) {
        const double predicted = xs_.front() + static_cast<double>(i) * step;
        if (std::abs(xs_[i] - predicted) > tolerance) uniform = false;
    }
    if (uniform) {
        uniform_step_ = step;
        inv_uniform_step_ = 1.0 / step;
    }
}

std::size_t LinearInterpolator::segment_for(double x) const {
    std::size_t hi;
    if (uniform_step_ > 0.0) {
        // O(1) guess, then walk to the unique segment with
        // xs_[hi-1] <= x < xs_[hi] — exactly upper_bound's answer. The
        // caller's range guards bound both loops: xs_.back() > x stops the
        // ascent, xs_.front() < x stops the descent.
        const std::size_t guess =
            static_cast<std::size_t>((x - xs_.front()) * inv_uniform_step_) + 1;
        hi = std::clamp<std::size_t>(guess, 1, xs_.size() - 1);
        while (xs_[hi] <= x) ++hi;
        while (xs_[hi - 1] > x) --hi;
    } else {
        const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
        hi = static_cast<std::size_t>(it - xs_.begin());
    }
    return hi;
}

double LinearInterpolator::operator()(double x) const {
    if (x <= xs_.front()) return ys_.front();
    if (x >= xs_.back()) return ys_.back();
    return eval_segment(segment_for(x), x);
}

void LinearInterpolator::eval_rows(const double* x, std::size_t rows, double* out) const {
    const double front = xs_.front();
    const double back = xs_.back();
    for (std::size_t r = 0; r < rows; ++r) {
        const double xr = x[r];
        out[r] = xr <= front  ? ys_.front()
                 : xr >= back ? ys_.back()
                              : eval_segment(segment_for(xr), xr);
    }
}

LinearInterpolator LinearInterpolator::inverse_of(const std::vector<double>& xs,
                                                  const std::vector<double>& ys) {
    if (xs.size() != ys.size() || xs.size() < 2)
        throw std::invalid_argument("inverse_of: bad sample arrays");
    const bool increasing = ys.back() > ys.front();
    std::vector<double> inv_x = ys;
    std::vector<double> inv_y = xs;
    if (!increasing) {
        std::reverse(inv_x.begin(), inv_x.end());
        std::reverse(inv_y.begin(), inv_y.end());
    }
    // Collapse numerically-equal neighbours so the knot sequence is strictly
    // increasing; the function must be monotone for the inverse to exist.
    std::vector<double> cx;
    std::vector<double> cy;
    cx.reserve(inv_x.size());
    cy.reserve(inv_y.size());
    for (std::size_t i = 0; i < inv_x.size(); ++i) {
        if (!cx.empty() && inv_x[i] <= cx.back()) {
            if (inv_x[i] < cx.back() - 1e-12)
                throw std::invalid_argument("inverse_of: samples are not monotone");
            continue;
        }
        cx.push_back(inv_x[i]);
        cy.push_back(inv_y[i]);
    }
    if (cx.size() < 2) throw std::invalid_argument("inverse_of: degenerate monotone range");
    return LinearInterpolator(std::move(cx), std::move(cy));
}

} // namespace fmore::numeric
