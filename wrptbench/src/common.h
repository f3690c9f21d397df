// Shared pieces of the wrpt-bench load generator: clocks, the seeded
// random stream every workload draws from, the metric report, and the
// operator-new counter the traced run reads allocation counts from.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace wb {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double seconds_since(std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// splitmix64: a fixed, library-independent generator, so a seed names the
/// same request stream on every platform and standard library.
class rng {
public:
    explicit rng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
    }
    /// Exponential inter-arrival gap for a Poisson process of `rate` per s.
    double exp_gap(double rate) { return -std::log1p(-uniform()) / rate; }
    /// Index drawn from a probability vector (need not be normalized).
    std::size_t pick(const std::vector<double>& weights) {
        double total = 0.0;
        for (double w : weights) total += w;
        double x = uniform() * total;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (x < weights[i]) return i;
            x -= weights[i];
        }
        return weights.size() - 1;
    }

private:
    std::uint64_t state_;
};

/// A weight vector on the optimizer's 0.05 grid within [0.05, 0.95].
std::vector<double> grid_weights(rng& r, std::size_t inputs);

/// FNV-1a over a byte range, continuing from `h`.
inline std::uint64_t fnv(std::string_view s,
                         std::uint64_t h = 0xcbf29ce484222325ull) {
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

inline double percentile(std::vector<double> v, double q) {
    return wrpt::bench::percentile(std::move(v), q);
}

/// Named metrics in report order.
struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// The result line: one JSON object, every value with full precision.
    std::string json() const;
};

/// Heap allocations made by this process (operator new calls).
std::uint64_t allocations();

}  // namespace wb
