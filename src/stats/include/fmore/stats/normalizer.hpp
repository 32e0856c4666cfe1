#pragma once

#include <algorithm>
#include <vector>

namespace fmore::stats {

/// Min-max normalization to [0, 1].
///
/// The paper's walk-through example (Section III.B) normalizes qualities and
/// payments "by the technique of min-max normalization to compute the
/// scores". The aggregator fits a normalizer per resource dimension over the
/// advertised range (or the observed bids) and applies it inside the scoring
/// rule.
class MinMaxNormalizer {
public:
    /// Identity normalizer (range [0,1] passes through).
    MinMaxNormalizer() : lo_(0.0), hi_(1.0) {}

    /// Normalizer for a known range [lo, hi]; throws if lo >= hi.
    MinMaxNormalizer(double lo, double hi);

    /// Fit from observed values; throws on fewer than 2 distinct values.
    static MinMaxNormalizer fit(const std::vector<double>& values);

    /// Map x into [0,1], clamping outside the fitted range. Inline: the
    /// scoring rules' row kernels apply it per element in lane loops.
    [[nodiscard]] double transform(double x) const {
        const double y = (x - lo_) / (hi_ - lo_);
        return std::clamp(y, 0.0, 1.0);
    }

    /// Map a normalized value back into the original range.
    [[nodiscard]] double inverse(double y) const;

    [[nodiscard]] double lo() const { return lo_; }
    [[nodiscard]] double hi() const { return hi_; }

private:
    double lo_;
    double hi_;
};

} // namespace fmore::stats
