#pragma once

/// @file scoring.hpp
/// The aggregator's scoring rules S(q, p) = s(q) - p (paper Eq. 4) in the
/// four utility families named by the paper: additive (perfect
/// substitutes), Leontief (perfect complements), Cobb-Douglas, and the
/// simulator's scaled product alpha * q1 * q2.

#include <memory>
#include <vector>

#include "fmore/auction/types.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::auction {

/// Quasi-linear scoring rule S(q, p) = s(q) - p (paper Eq. 4).
///
/// The aggregator broadcasts this rule in the bid-ask step; bidders use the
/// quality part s(q) when computing their Nash-equilibrium strategy and the
/// aggregator uses the full score for winner determination.
///
/// Each concrete rule optionally min-max-normalizes every quality dimension
/// before applying the utility form, matching the walk-through example
/// (Section III.B), where data size and bandwidth are normalized to [0, 1].
class ScoringRule {
public:
    virtual ~ScoringRule() = default;

    /// s(q): the quality part of the score.
    /// @param q declared quality vector; must have exactly dimensions()
    ///          entries with every dimension non-negative
    /// @return the aggregator's valuation of q, before subtracting payment
    /// @throws std::invalid_argument on a dimension-count mismatch
    /// @throws std::domain_error on negative qualities
    [[nodiscard]] virtual double quality_score(const QualityVector& q) const = 0;

    /// S(q, p) = s(q) - p.
    /// @param q declared quality vector
    /// @param payment the payment p asked by the bidder
    /// @return the full score used for winner determination
    [[nodiscard]] double score(const QualityVector& q, double payment) const {
        return quality_score(q) - payment;
    }
    /// @overload
    [[nodiscard]] double score(const Bid& bid) const {
        return score(bid.quality, bid.payment);
    }

    /// s(q) over a contiguous span of `n` doubles — the allocation-free
    /// fast path the flat `BidFrame` pipeline scores rows through. The
    /// default copies into a reused thread-local scratch vector and calls
    /// `quality_score`, so custom rules stay correct (and allocation-free
    /// after warm-up) without overriding anything; the built-in families
    /// override it to compute straight off the span. Results are
    /// bit-identical to `quality_score` on an equal vector by contract.
    [[nodiscard]] virtual double quality_score_span(const double* q, std::size_t n) const;

    /// s(q) for `rows` quality rows stored row-major (`dims` doubles per
    /// row): `out[r] = quality_score_span(q + r * dims, dims)`, bit for
    /// bit. The default is exactly that loop, so custom rules stay exact;
    /// the built-in families override it with lane loops that keep the
    /// per-element operation order. This is the hook the bid collector
    /// scores a chunk of rows through.
    virtual void quality_score_rows(const double* q, std::size_t rows, std::size_t dims,
                                    double* out) const;

    /// S(q, p) over a span (see quality_score_span).
    [[nodiscard]] double score_span(const double* q, std::size_t n, double payment) const {
        return quality_score_span(q, n) - payment;
    }

    /// Number of quality dimensions this rule expects.
    [[nodiscard]] virtual std::size_t dimensions() const = 0;
};

/// Per-dimension coefficients plus optional normalizers shared by the
/// concrete families below.
class WeightedScoringBase : public ScoringRule {
public:
    /// `coefficients` are the alpha_i of the paper; `normalizers`, if
    /// non-empty, must have the same length and are applied per dimension.
    WeightedScoringBase(std::vector<double> coefficients,
                        std::vector<stats::MinMaxNormalizer> normalizers = {});

    [[nodiscard]] std::size_t dimensions() const override { return coefficients_.size(); }
    [[nodiscard]] const std::vector<double>& coefficients() const { return coefficients_; }

protected:
    /// Quality in dimension d after normalization (identity if none given).
    [[nodiscard]] double normalized(const QualityVector& q, std::size_t d) const;
    void check_dims(const QualityVector& q) const;

    std::vector<double> coefficients_;
    std::vector<stats::MinMaxNormalizer> normalizers_;
};

/// Perfect-substitution utility: s(q) = sum_i alpha_i q_i. "The additive
/// form is preferred to perfect substitution resources such as GPU and CPU"
/// (Section III.A). Also the form used in the paper's real-world experiment
/// (0.4 q1 + 0.3 q2 + 0.3 q3).
class AdditiveScoring final : public WeightedScoringBase {
public:
    using WeightedScoringBase::WeightedScoringBase;
    [[nodiscard]] double quality_score(const QualityVector& q) const override;
    [[nodiscard]] double quality_score_span(const double* q, std::size_t n) const override;
    void quality_score_rows(const double* q, std::size_t rows, std::size_t dims,
                            double* out) const override;
};

/// Perfect-complementary (Leontief) utility: s(q) = min_i alpha_i q_i;
/// "the best choice for scenarios where both bandwidth and computing power
/// are considered simultaneously" (Section III.A). Used by the paper's
/// walk-through example with alpha = (0.5, 0.5).
class LeontiefScoring final : public WeightedScoringBase {
public:
    using WeightedScoringBase::WeightedScoringBase;
    [[nodiscard]] double quality_score(const QualityVector& q) const override;
    [[nodiscard]] double quality_score_span(const double* q, std::size_t n) const override;
    void quality_score_rows(const double* q, std::size_t rows, std::size_t dims,
                            double* out) const override;
};

/// General Cobb-Douglas utility: s(q) = prod_i q_i^{alpha_i}. The paper's
/// Proposition 4 gives the aggregator's resource-proportion guidance under
/// this family.
class CobbDouglasScoring final : public WeightedScoringBase {
public:
    using WeightedScoringBase::WeightedScoringBase;
    [[nodiscard]] double quality_score(const QualityVector& q) const override;
    [[nodiscard]] double quality_score_span(const double* q, std::size_t n) const override;
    void quality_score_rows(const double* q, std::size_t rows, std::size_t dims,
                            double* out) const override;
};

/// Scaled product utility s(q) = alpha * q_1 * q_2 * ... * q_m; the exact
/// form used by the paper's simulator ("S(q1,q2,p) = alpha q1 q2 - p ...
/// alpha is set to 25", Section V.A).
class ScaledProductScoring final : public ScoringRule {
public:
    ScaledProductScoring(double alpha, std::size_t dims,
                         std::vector<stats::MinMaxNormalizer> normalizers = {});

    [[nodiscard]] double quality_score(const QualityVector& q) const override;
    [[nodiscard]] double quality_score_span(const double* q, std::size_t n) const override;
    void quality_score_rows(const double* q, std::size_t rows, std::size_t dims,
                            double* out) const override;
    [[nodiscard]] std::size_t dimensions() const override { return dims_; }
    [[nodiscard]] double alpha() const { return alpha_; }

private:
    double alpha_;
    std::size_t dims_;
    std::vector<stats::MinMaxNormalizer> normalizers_;
};

} // namespace fmore::auction
