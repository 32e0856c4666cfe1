#pragma once

/// @file equilibrium.hpp
/// The expected-utility Nash equilibrium of the first-score sealed-bid
/// auction (paper Theorem 1, built on Che 1993): EquilibriumSolver
/// tabulates the symmetric strategy t^ne(theta) = (q^s, p^s) that every
/// rational edge node follows; EquilibriumStrategy is the queryable result.

#include <cstdint>
#include <memory>
#include <vector>

#include "fmore/auction/cost.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/types.hpp"
#include "fmore/auction/win_probability.hpp"
#include "fmore/numeric/interpolation.hpp"
#include "fmore/stats/distributions.hpp"

namespace fmore::auction {

/// How the equilibrium payment p^s(theta) is computed from the tabulated
/// win-probability curve g(u).
///
/// * `integral`  — the closed form of the paper's Theorem 1:
///       p = c(q^s, theta) + (integral_{u_min}^{u} g(x) dx) / g(u)
///   evaluated with cumulative trapezoid quadrature. Robust everywhere,
///   used as the reference.
/// * `euler_ode` — the paper's prescription (Eqs. 12-14): explicit Euler on
///   the markup ODE m'(u) = 1 - m(u) g'(u)/g(u), m(u_min) = 0. The ODE is
///   stiff in the boundary layer near u_min where g -> 0 (g'/g diverges), so
///   the integrator seeds m from the integral form at the first grid point
///   where the explicit step is stable and integrates upward from there.
/// * `rk4_ode`   — same ODE with classic Runge-Kutta 4, also named by the
///   paper ("the Runge-Kutte method"); ablation material.
enum class PaymentMethod : std::uint8_t {
    integral,
    euler_ode,
    rk4_ode,
};

/// Tuning knobs for the solver.
struct EquilibriumConfig {
    std::size_t num_bidders = 100;  ///< N — total competing edge nodes
    std::size_t num_winners = 20;   ///< K — winner-set size (K < N)
    WinModel win_model = WinModel::paper;
    std::size_t theta_grid_points = 129;  ///< tabulation grid over [theta_lo, theta_hi]
    std::size_t score_grid_points = 512;  ///< u-grid for g(u) quadrature / ODE
    std::size_t quality_grid_points = 48; ///< per-dim grid for argmax s(q)-c(q,theta)
};

/// The solved Nash-equilibrium bidding strategy t^ne(theta) = (q^s, p^s)
/// shared by all (i.i.d.) bidders — the object an edge node queries before
/// submitting its sealed bid.
///
/// All curves are tabulated on the solver's theta grid and linearly
/// interpolated; queries outside [theta_lo, theta_hi] clamp.
class EquilibriumStrategy {
public:
    /// q^s(theta) = argmax_q s(q) - c(q, theta)   (Che Theorem 1 / Eq. 7).
    [[nodiscard]] QualityVector quality(double theta) const;

    /// u0(theta) = s(q^s) - c(q^s, theta): the maximum achievable score
    /// ("surplus") of a type-theta bidder. Decreasing in theta.
    [[nodiscard]] double max_surplus(double theta) const;

    /// Equilibrium payment p^s(theta) (paper Eq. 8) under `method`.
    [[nodiscard]] double payment(double theta,
                                 PaymentMethod method = PaymentMethod::integral) const;

    /// The sealed bid a type-theta node submits.
    [[nodiscard]] Bid bid(NodeId node, double theta,
                          PaymentMethod method = PaymentMethod::integral) const;

    /// Expected profit pi(theta) = (p - c) * g(u0) = integral_{u_min}^{u0} g.
    /// Theorems 2 and 3 describe its monotonicity in N and K.
    [[nodiscard]] double expected_profit(double theta) const;

    /// Win probability g(u0(theta)) of a type-theta bidder.
    [[nodiscard]] double win_probability_at(double theta) const;

    /// CDF H(x) of an opponent's maximum score (H(x) = 1 - F(u0^{-1}(x))).
    [[nodiscard]] double score_cdf(double u) const;

    /// Equilibrium markup (p - c) at an arbitrary achievable score u; lets a
    /// resource-capped node price a constrained bid: the shading rule b(u)
    /// depends only on the achieved score, not on how it was achieved.
    [[nodiscard]] double markup_at_score(double u,
                                         PaymentMethod method = PaymentMethod::integral) const;

    /// Payment for an arbitrary (possibly capped) quality choice:
    /// p = c(q, theta) + markup(s(q) - c(q, theta)).
    [[nodiscard]] double payment_for(const QualityVector& q, double theta,
                                     PaymentMethod method = PaymentMethod::integral) const;

    /// Allocation-free bid computation for the flat `BidFrame` pipeline:
    /// write q^s(theta) into `out` (dimensions() doubles). Bit-identical to
    /// `quality`.
    void quality_into(double theta, double* out) const;

    /// One sealed quote: the equilibrium payment plus the s(q) evaluated on
    /// the way (each bit-identical to the individual calls). The per-row
    /// form of `quote_rows`, which the fused collector runs.
    struct SealedQuote {
        double payment = 0.0;
        double quality_score = 0.0;
    };
    [[nodiscard]] SealedQuote quote_span(const double* q, std::size_t n, double theta,
                                         PaymentMethod method
                                         = PaymentMethod::integral) const;

    /// Row form of `quality_into`: q^s(theta[r]) into `q + r * dimensions()`
    /// for r < rows, bit-identical per row. All quality curves share the
    /// solver's theta grid, so each row looks up one segment and reuses it
    /// across the dimensions.
    void quality_rows(const double* theta, std::size_t rows, double* q) const;

    /// Row form of `quote_span` over `rows` quality rows stored row-major
    /// (`dimensions()` doubles per row), type theta[r] per row. Writes
    /// each row's payment, s(q) and equilibrium markup (p - c); every value
    /// is bit-identical to `quote_span` on that row. Runs the cost and
    /// scoring row hooks (`CostModel::cost_rows`,
    /// `ScoringRule::quality_score_rows`), then the markup curve's row
    /// evaluation on the score grid.
    void quote_rows(const double* q, std::size_t rows, const double* theta,
                    PaymentMethod method, double* payment, double* quality_score,
                    double* markup) const;

    /// The scoring rule this strategy was solved against (never null for a
    /// solver-produced strategy). Callers that maintain their own broadcast
    /// rule can check identity before reusing quote_span's s(q) as the
    /// aggregator score.
    [[nodiscard]] const ScoringRule* scoring_rule() const { return scoring_; }

    [[nodiscard]] double theta_lo() const { return theta_lo_; }
    [[nodiscard]] double theta_hi() const { return theta_hi_; }
    [[nodiscard]] double score_lo() const { return u_min_; }
    [[nodiscard]] double score_hi() const { return u_max_; }
    [[nodiscard]] std::size_t num_bidders() const { return num_bidders_; }
    [[nodiscard]] std::size_t num_winners() const { return num_winners_; }
    [[nodiscard]] std::size_t dimensions() const { return quality_curves_.size(); }

private:
    friend class EquilibriumSolver;
    EquilibriumStrategy() = default;

    [[nodiscard]] const numeric::LinearInterpolator&
    markup_curve(PaymentMethod method) const;

    const ScoringRule* scoring_ = nullptr;
    const CostModel* cost_ = nullptr;
    double theta_lo_ = 0.0;
    double theta_hi_ = 0.0;
    double u_min_ = 0.0;
    double u_max_ = 0.0;
    std::size_t num_bidders_ = 0;
    std::size_t num_winners_ = 0;
    bool degenerate_ = false; // all types share one score; zero markup
    // theta-indexed tables
    std::vector<std::unique_ptr<numeric::LinearInterpolator>> quality_curves_;
    std::unique_ptr<numeric::LinearInterpolator> surplus_curve_;   // theta -> u0
    std::unique_ptr<numeric::LinearInterpolator> score_cdf_curve_; // u -> H(u)
    // u-indexed tables
    std::unique_ptr<numeric::LinearInterpolator> win_prob_curve_;       // u -> g
    std::unique_ptr<numeric::LinearInterpolator> profit_curve_;         // u -> I=∫g
    std::unique_ptr<numeric::LinearInterpolator> markup_integral_;      // u -> I/g
    std::unique_ptr<numeric::LinearInterpolator> markup_euler_;
    std::unique_ptr<numeric::LinearInterpolator> markup_rk4_;
};

/// Computes the symmetric Nash equilibrium of the first-score sealed-bid
/// multi-dimensional procurement auction with K winners (paper Theorem 1,
/// built on Che 1993). The references passed in must outlive the solver and
/// any strategy it produces.
class EquilibriumSolver {
public:
    /// @param scoring    the broadcast scoring rule s(q)
    /// @param cost       the bidders' common cost model c(q, theta)
    /// @param theta_dist distribution F of the private type theta
    /// @param q_lo       per-dimension lower bounds of feasible quality
    /// @param q_hi       per-dimension upper bounds (same length as q_lo)
    /// @param config     grid sizes, N, K and the win-probability model
    EquilibriumSolver(const ScoringRule& scoring, const CostModel& cost,
                      const stats::Distribution& theta_dist, QualityVector q_lo,
                      QualityVector q_hi, EquilibriumConfig config);

    /// Tabulate the full strategy. O(theta_grid * quality_grid * dims)
    /// for the quality step plus O(score_grid) for payments — the linear
    /// time the paper claims for a bidder.
    [[nodiscard]] EquilibriumStrategy solve() const;

    /// Che's Theorem 2 closed form for K = 1 (validation):
    /// p = c + int_theta^theta_hi c_theta(q^s(t), t) [(1-F(t))/(1-F(theta))]^{N-1} dt
    [[nodiscard]] double payment_che_closed_form(double theta, std::size_t exponent) const;

    [[nodiscard]] const EquilibriumConfig& config() const { return config_; }

private:
    struct QualityTable {
        std::vector<double> thetas;
        std::vector<QualityVector> qualities;
        std::vector<double> surpluses; // u0, made non-increasing
    };
    [[nodiscard]] QualityTable tabulate_qualities() const;
    [[nodiscard]] QualityVector best_quality(double theta) const;

    const ScoringRule& scoring_;
    const CostModel& cost_;
    const stats::Distribution& theta_dist_;
    QualityVector q_lo_;
    QualityVector q_hi_;
    EquilibriumConfig config_;
};

} // namespace fmore::auction
