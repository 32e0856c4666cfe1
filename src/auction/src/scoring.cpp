#include "fmore/auction/scoring.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fmore::auction {

WeightedScoringBase::WeightedScoringBase(std::vector<double> coefficients,
                                         std::vector<stats::MinMaxNormalizer> normalizers)
    : coefficients_(std::move(coefficients)), normalizers_(std::move(normalizers)) {
    if (coefficients_.empty())
        throw std::invalid_argument("scoring: need at least one coefficient");
    if (!normalizers_.empty() && normalizers_.size() != coefficients_.size())
        throw std::invalid_argument("scoring: normalizer/coefficient count mismatch");
}

double WeightedScoringBase::normalized(const QualityVector& q, std::size_t d) const {
    return normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
}

void WeightedScoringBase::check_dims(const QualityVector& q) const {
    if (q.size() != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
}

double ScoringRule::quality_score_span(const double* q, std::size_t n) const {
    // Correct-by-default adapter for custom rules: the scratch keeps its
    // capacity across calls, so steady-state rounds stay allocation-free.
    thread_local QualityVector scratch;
    scratch.assign(q, q + n);
    return quality_score(scratch);
}

void ScoringRule::quality_score_rows(const double* q, std::size_t rows, std::size_t dims,
                                     double* out) const {
    for (std::size_t r = 0; r < rows; ++r) out[r] = quality_score_span(q + r * dims, dims);
}

namespace {

void check_row_dims(std::size_t dims, std::size_t expected) {
    if (dims != expected)
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
}

/// Dimension d of row r after normalization (identity if none given) —
/// the per-element transform of the `_span` forms.
inline double normalized_at(const std::vector<stats::MinMaxNormalizer>& norms,
                            const double* q, std::size_t r, std::size_t dims,
                            std::size_t d) {
    const double x = q[r * dims + d];
    return norms.empty() ? x : norms[d].transform(x);
}

} // namespace

double AdditiveScoring::quality_score(const QualityVector& q) const {
    check_dims(q);
    double total = 0.0;
    for (std::size_t d = 0; d < q.size(); ++d) {
        total += coefficients_[d] * normalized(q, d);
    }
    return total;
}

double AdditiveScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
    double total = 0.0;
    for (std::size_t d = 0; d < n; ++d) {
        const double qi = normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
        total += coefficients_[d] * qi;
    }
    return total;
}

void AdditiveScoring::quality_score_rows(const double* q, std::size_t rows,
                                         std::size_t dims, double* out) const {
    check_row_dims(dims, coefficients_.size());
    // Dimension-major over the rows: each row still sums its terms in d
    // order from 0.0, exactly like quality_score_span.
#pragma omp simd
    for (std::size_t r = 0; r < rows; ++r) out[r] = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double a = coefficients_[d];
#pragma omp simd
        for (std::size_t r = 0; r < rows; ++r)
            out[r] += a * normalized_at(normalizers_, q, r, dims, d);
    }
}

double LeontiefScoring::quality_score(const QualityVector& q) const {
    check_dims(q);
    double lowest = coefficients_[0] * normalized(q, 0);
    for (std::size_t d = 1; d < q.size(); ++d) {
        lowest = std::min(lowest, coefficients_[d] * normalized(q, d));
    }
    return lowest;
}

double LeontiefScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
    auto norm = [this, q](std::size_t d) {
        return normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
    };
    double lowest = coefficients_[0] * norm(0);
    for (std::size_t d = 1; d < n; ++d) {
        lowest = std::min(lowest, coefficients_[d] * norm(d));
    }
    return lowest;
}

void LeontiefScoring::quality_score_rows(const double* q, std::size_t rows,
                                         std::size_t dims, double* out) const {
    check_row_dims(dims, coefficients_.size());
    const double a0 = coefficients_[0];
#pragma omp simd
    for (std::size_t r = 0; r < rows; ++r)
        out[r] = a0 * normalized_at(normalizers_, q, r, dims, 0);
    for (std::size_t d = 1; d < dims; ++d) {
        const double a = coefficients_[d];
#pragma omp simd
        for (std::size_t r = 0; r < rows; ++r)
            out[r] = std::min(out[r], a * normalized_at(normalizers_, q, r, dims, d));
    }
}

double CobbDouglasScoring::quality_score(const QualityVector& q) const {
    check_dims(q);
    double product = 1.0;
    for (std::size_t d = 0; d < q.size(); ++d) {
        const double qi = normalized(q, d);
        if (qi < 0.0)
            throw std::domain_error("CobbDouglasScoring: negative quality");
        product *= std::pow(qi, coefficients_[d]);
    }
    return product;
}

double CobbDouglasScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != coefficients_.size())
        throw std::invalid_argument("scoring: quality vector has wrong dimension");
    double product = 1.0;
    for (std::size_t d = 0; d < n; ++d) {
        const double qi = normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
        if (qi < 0.0)
            throw std::domain_error("CobbDouglasScoring: negative quality");
        product *= std::pow(qi, coefficients_[d]);
    }
    return product;
}

void CobbDouglasScoring::quality_score_rows(const double* q, std::size_t rows,
                                            std::size_t dims, double* out) const {
    check_row_dims(dims, coefficients_.size());
    // Reject before computing anything: the span form throws on the first
    // negative normalized quality, and so does this one.
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t d = 0; d < dims; ++d)
            if (normalized_at(normalizers_, q, r, dims, d) < 0.0)
                throw std::domain_error("CobbDouglasScoring: negative quality");
    for (std::size_t r = 0; r < rows; ++r) out[r] = 1.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double a = coefficients_[d];
        for (std::size_t r = 0; r < rows; ++r)
            out[r] *= std::pow(normalized_at(normalizers_, q, r, dims, d), a);
    }
}

ScaledProductScoring::ScaledProductScoring(double alpha, std::size_t dims,
                                           std::vector<stats::MinMaxNormalizer> normalizers)
    : alpha_(alpha), dims_(dims), normalizers_(std::move(normalizers)) {
    if (dims_ == 0) throw std::invalid_argument("ScaledProductScoring: dims must be > 0");
    if (!normalizers_.empty() && normalizers_.size() != dims_)
        throw std::invalid_argument("ScaledProductScoring: normalizer count mismatch");
}

double ScaledProductScoring::quality_score(const QualityVector& q) const {
    if (q.size() != dims_)
        throw std::invalid_argument("ScaledProductScoring: quality vector has wrong dimension");
    double product = alpha_;
    for (std::size_t d = 0; d < dims_; ++d) {
        product *= normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
    }
    return product;
}

double ScaledProductScoring::quality_score_span(const double* q, std::size_t n) const {
    if (n != dims_)
        throw std::invalid_argument("ScaledProductScoring: quality vector has wrong dimension");
    double product = alpha_;
    for (std::size_t d = 0; d < dims_; ++d) {
        product *= normalizers_.empty() ? q[d] : normalizers_[d].transform(q[d]);
    }
    return product;
}

void ScaledProductScoring::quality_score_rows(const double* q, std::size_t rows,
                                              std::size_t dims, double* out) const {
    if (dims != dims_)
        throw std::invalid_argument("ScaledProductScoring: quality vector has wrong dimension");
#pragma omp simd
    for (std::size_t r = 0; r < rows; ++r) out[r] = alpha_;
    for (std::size_t d = 0; d < dims; ++d) {
#pragma omp simd
        for (std::size_t r = 0; r < rows; ++r)
            out[r] *= normalized_at(normalizers_, q, r, dims, d);
    }
}

} // namespace fmore::auction
