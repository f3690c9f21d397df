// MINIMIZE (paper section 3.2 / formula 15): one-dimensional minimization
// of the objective restricted to a single input probability.
//
// By Lemma 1 each exact detection probability is affine in a single input
// probability y:  p_f(X, y|i) = p_f(X,0|i) + y * (p_f(X,1|i) - p_f(X,0|i)).
// Hence J_N(X, y|i) = sum_f exp(-N (p0_f + y d_f)) is a sum of convex
// exponentials — strictly convex (Lemma 3) — and has a unique minimum in
// [lo, hi], found by a guarded Newton iteration on formula (15).

#pragma once

#include <cstddef>
#include <span>

namespace wrpt {

/// Detection probability of one fault at the two endpoints of input i:
/// p0 = p_f(X, 0|i), p1 = p_f(X, 1|i).
struct affine_fault {
    double p0 = 0.0;
    double p1 = 0.0;
};

struct minimize_result {
    double y = 0.5;  ///< arg min of J_N(X, y|i) over [lo, hi]
    std::size_t iterations = 0;
};

/// Minimize J_N over y in [lo, hi] (0 <= lo < hi <= 1). n is the current
/// test length estimate N. Strict convexity guarantees uniqueness whenever
/// some fault depends on the input (d_f != 0); otherwise any y is optimal
/// and the midpoint is returned. Only the dependent faults enter the
/// Newton sums: a d_f = 0 term contributes exactly ±0 to both
/// derivatives, and its exponent — constant in y — only joins the
/// scaling minimum, folded in once per call.
minimize_result minimize_single_input(std::span<const affine_fault> faults,
                                      double n, double lo, double hi);

}  // namespace wrpt
