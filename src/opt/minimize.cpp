#include "opt/minimize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.h"

namespace wrpt {
namespace {

/// Exponent N * p_f(y) of one objective term.
double exponent(const affine_fault& f, double n, double y) {
    return n * (f.p0 + y * (f.p1 - f.p0));
}

/// First and second derivative of J at y, scaled by exp(+min exponent) so
/// that the signs and the Newton ratio stay meaningful even when every raw
/// term underflows. d1/d2 are proportional to J' and J''. `dependent`
/// holds the faults with d_f != 0; `flat_min` is the minimum exponent of
/// the others (+inf if none), which is the same at every y >= 0.
struct derivatives {
    double d1 = 0.0;
    double d2 = 0.0;
};

derivatives scaled_derivatives(std::span<const affine_fault> dependent,
                               double flat_min, double n, double y) {
    double min_e = flat_min;
    for (const auto& f : dependent) min_e = std::min(min_e, exponent(f, n, y));
    derivatives der;
    if (!std::isfinite(min_e)) return der;
    for (const auto& f : dependent) {
        const double d = f.p1 - f.p0;
        const double t = std::exp(-(exponent(f, n, y) - min_e));
        der.d1 += -n * d * t;
        der.d2 += n * n * d * d * t;
    }
    return der;
}

}  // namespace

minimize_result minimize_single_input(std::span<const affine_fault> faults,
                                      double n, double lo, double hi) {
    require(lo >= 0.0 && hi <= 1.0 && lo < hi,
            "minimize_single_input: invalid interval");
    require(n >= 0.0, "minimize_single_input: negative test length");

    minimize_result res;
    std::vector<affine_fault> dependent;
    double flat_min = std::numeric_limits<double>::infinity();
    for (const auto& f : faults) {
        if (f.p1 != f.p0)
            dependent.push_back(f);
        else
            flat_min = std::min(flat_min, exponent(f, n, lo));
    }
    if (dependent.empty() || n == 0.0) {
        res.y = lo + (hi - lo) / 2.0;
        return res;
    }
    const auto slope_at = [&](double y) {
        return scaled_derivatives(dependent, flat_min, n, y);
    };

    // Boundary minima: J is convex, so the sign of J' at the ends decides.
    if (slope_at(lo).d1 >= 0.0) {
        res.y = lo;
        return res;
    }
    if (slope_at(hi).d1 <= 0.0) {
        res.y = hi;
        return res;
    }

    // Interior minimum: guarded Newton (formula 15) with a shrinking
    // bracket [a, b] where J'(a) < 0 < J'(b).
    double a = lo, b = hi;
    double y = lo + (hi - lo) / 2.0;
    for (std::size_t it = 0; it < 200; ++it) {
        ++res.iterations;
        const derivatives der = slope_at(y);
        if (der.d1 < 0.0)
            a = y;
        else
            b = y;
        double next;
        if (der.d2 > 0.0 && std::isfinite(der.d1)) {
            next = y - der.d1 / der.d2;  // formula (15)
            if (!(next > a && next < b)) next = a + (b - a) / 2.0;
        } else {
            next = a + (b - a) / 2.0;
        }
        if (std::abs(next - y) < 1e-12 || (b - a) < 1e-10) {
            y = next;
            break;
        }
        y = next;
    }
    res.y = std::clamp(y, lo, hi);
    return res;
}

}  // namespace wrpt
