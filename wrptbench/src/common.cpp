#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting replacements for the global allocation functions: the traced
// run reads allocations per encode and per cache hit from the difference
// of two allocations() calls around the measured call.
void* operator new(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wb {

std::uint64_t allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}

std::vector<double> grid_weights(rng& r, std::size_t inputs) {
    std::vector<double> w(inputs);
    // 19 grid points 0.05, 0.10, ..., 0.95; the product form matches the
    // optimizer's own snapping (k * 0.05).
    for (double& x : w) x = static_cast<double>(1 + r.below(19)) * 0.05;
    return w;
}

std::string report::json() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const metric& m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (i) out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace wb
