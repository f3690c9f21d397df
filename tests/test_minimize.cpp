// Tests for the single-variable MINIMIZE step (paper section 3.2,
// formula 15): Newton result vs dense scan, convexity, boundaries.

#include "opt/minimize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace wrpt {
namespace {

double j_at(const std::vector<affine_fault>& faults, double n, double y) {
    double j = 0.0;
    for (const auto& f : faults) j += std::exp(-n * (f.p0 + y * (f.p1 - f.p0)));
    return j;
}

class minimize_random : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(minimize_random, newton_matches_dense_scan) {
    rng r(GetParam());
    std::vector<affine_fault> faults;
    const std::size_t count = 1 + r.next_below(12);
    for (std::size_t i = 0; i < count; ++i) {
        affine_fault f;
        f.p0 = 0.002 * r.next_double();
        f.p1 = 0.002 * r.next_double();
        faults.push_back(f);
    }
    const double n = 500.0 + 5000.0 * r.next_double();
    const auto res = minimize_single_input(faults, n, 0.05, 0.95);

    // Dense scan reference.
    double best_y = 0.05, best_j = j_at(faults, n, 0.05);
    for (double y = 0.05; y <= 0.95 + 1e-12; y += 0.0005) {
        const double j = j_at(faults, n, y);
        if (j < best_j) {
            best_j = j;
            best_y = y;
        }
    }
    EXPECT_NEAR(res.y, best_y, 2e-3) << "seed " << GetParam();
    EXPECT_LE(j_at(faults, n, res.y), best_j * (1.0 + 1e-6));
}

TEST_P(minimize_random, objective_convex_along_y) {
    rng r(GetParam() + 100);
    std::vector<affine_fault> faults;
    for (int i = 0; i < 8; ++i)
        faults.push_back({0.01 * r.next_double(), 0.01 * r.next_double()});
    const double n = 1000.0;
    // Numeric second difference must be non-negative (Lemma 3).
    for (double y = 0.1; y <= 0.9; y += 0.05) {
        const double h = 1e-4;
        const double second =
            j_at(faults, n, y - h) - 2.0 * j_at(faults, n, y) +
            j_at(faults, n, y + h);
        EXPECT_GE(second, -1e-12) << "y=" << y;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, minimize_random,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(minimize, boundary_minimum_low) {
    // All faults prefer y = 0 (p decreases with y? no: p1 < p0 means
    // raising y hurts, so minimum of J is at low y only if p grows with y).
    // Here detection improves as y falls: p(y) = 0.01 - 0.005 y.
    std::vector<affine_fault> faults{{0.01, 0.005}};
    const auto res = minimize_single_input(faults, 2000.0, 0.05, 0.95);
    EXPECT_DOUBLE_EQ(res.y, 0.05);
}

TEST(minimize, boundary_minimum_high) {
    std::vector<affine_fault> faults{{0.005, 0.01}};
    const auto res = minimize_single_input(faults, 2000.0, 0.05, 0.95);
    EXPECT_DOUBLE_EQ(res.y, 0.95);
}

TEST(minimize, interior_balance_of_two_conflicting_faults) {
    // Symmetric conflict: fault A wants y high, fault B wants y low, same
    // magnitudes; the unique minimum is the midpoint.
    std::vector<affine_fault> faults{{0.0, 0.01}, {0.01, 0.0}};
    const auto res = minimize_single_input(faults, 3000.0, 0.05, 0.95);
    EXPECT_NEAR(res.y, 0.5, 1e-6);
}

TEST(minimize, no_dependence_returns_midpoint) {
    std::vector<affine_fault> faults{{0.01, 0.01}, {0.2, 0.2}};
    const auto res = minimize_single_input(faults, 100.0, 0.1, 0.9);
    EXPECT_DOUBLE_EQ(res.y, 0.5);
}

TEST(minimize, empty_fault_set_returns_midpoint) {
    const auto res = minimize_single_input({}, 100.0, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(res.y, 0.5);
}

TEST(minimize, survives_underflow_scale) {
    // N so large that every exp underflows: the scaled derivatives must
    // still find the right direction.
    std::vector<affine_fault> faults{{1e-6, 2e-5}, {3e-5, 1e-6}};
    const auto res = minimize_single_input(faults, 1e9, 0.05, 0.95);
    EXPECT_GT(res.y, 0.05);
    EXPECT_LT(res.y, 0.95);
    EXPECT_TRUE(std::isfinite(res.y));
}

TEST(minimize, rejects_bad_interval) {
    std::vector<affine_fault> faults{{0.1, 0.2}};
    EXPECT_THROW(minimize_single_input(faults, 10.0, 0.9, 0.1), invalid_input);
    EXPECT_THROW(minimize_single_input(faults, 10.0, -0.1, 0.5), invalid_input);
    EXPECT_THROW(minimize_single_input(faults, -5.0, 0.1, 0.9), invalid_input);
}

// --- bit identity with the all-faults Newton --------------------------------
//
// The Newton sums run over the dependent faults (d_f != 0) only, with the
// flat faults' minimum exponent folded in once. This is the all-faults
// iteration it replaced, kept verbatim as the oracle: the step must land
// on the same y, bit for bit, in the same number of iterations.

struct reference_result {
    double y = 0.5;
    std::size_t iterations = 0;
};

void reference_derivatives(const std::vector<affine_fault>& faults, double n,
                           double y, double& d1, double& d2) {
    double min_e = std::numeric_limits<double>::infinity();
    for (const auto& f : faults) {
        const double e = n * (f.p0 + y * (f.p1 - f.p0));
        min_e = std::min(min_e, e);
    }
    d1 = 0.0;
    d2 = 0.0;
    if (!std::isfinite(min_e)) return;
    for (const auto& f : faults) {
        const double d = f.p1 - f.p0;
        const double e = n * (f.p0 + y * d);
        const double t = std::exp(-(e - min_e));
        d1 += -n * d * t;
        d2 += n * n * d * d * t;
    }
}

reference_result reference_minimize(const std::vector<affine_fault>& faults,
                                    double n, double lo, double hi) {
    reference_result res;
    bool any_dependence = false;
    for (const auto& f : faults)
        if (f.p1 != f.p0) any_dependence = true;
    if (faults.empty() || !any_dependence || n == 0.0) {
        res.y = lo + (hi - lo) / 2.0;
        return res;
    }
    double d1, d2;
    reference_derivatives(faults, n, lo, d1, d2);
    if (d1 >= 0.0) {
        res.y = lo;
        return res;
    }
    reference_derivatives(faults, n, hi, d1, d2);
    if (d1 <= 0.0) {
        res.y = hi;
        return res;
    }
    double a = lo, b = hi;
    double y = lo + (hi - lo) / 2.0;
    for (std::size_t it = 0; it < 200; ++it) {
        ++res.iterations;
        reference_derivatives(faults, n, y, d1, d2);
        if (d1 < 0.0)
            a = y;
        else
            b = y;
        double next;
        if (d2 > 0.0 && std::isfinite(d1)) {
            next = y - d1 / d2;
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

TEST(minimize, bit_identical_to_the_all_faults_newton) {
    rng r(0xd0d0);
    for (int trial = 0; trial < 400; ++trial) {
        // Mostly flat rows (d = 0) around a few dependent ones; every
        // fourth trial at an N where every raw term underflows.
        const std::size_t count = 1 + r.next_below(60);
        const double flat_share = 0.2 + 0.75 * r.next_double();
        const double scale = (trial % 4 == 3) ? 1e9 : 500.0 + 5e4 * r.next_double();
        std::vector<affine_fault> faults;
        for (std::size_t i = 0; i < count; ++i) {
            const double p0 = 1e-3 * r.next_double();
            if (r.next_double() < flat_share)
                faults.push_back({p0, p0});
            else
                faults.push_back({p0, 1e-3 * r.next_double()});
        }
        const double lo = 0.05 * r.next_double();
        const double hi = 0.95 + 0.05 * r.next_double();
        const reference_result want = reference_minimize(faults, scale, lo, hi);
        const minimize_result got = minimize_single_input(faults, scale, lo, hi);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want.y),
                  std::bit_cast<std::uint64_t>(got.y))
            << "trial " << trial << ": " << want.y << " vs " << got.y;
        ASSERT_EQ(want.iterations, got.iterations) << "trial " << trial;
    }
}

}  // namespace
}  // namespace wrpt
