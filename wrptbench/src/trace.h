// Spans for the traced run: name, start, end, parent and request id, kept
// in memory per thread and written out as JSON lines when the run ends.
// A span's self time is its duration minus the part of it its children
// cover. Spans are recorded only from the benchmark's own files, around
// calls into each layer's public functions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "prob/detect.h"

namespace wb {

struct span {
    const char* name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;  ///< index into the same trace; -1 = root
    std::uint64_t request = 0;
};

/// One thread's spans.
class trace {
public:
    std::int32_t begin(const char* name, std::int32_t parent,
                       std::uint64_t request) {
        spans.push_back({name, now_ns(), 0, parent, request});
        return static_cast<std::int32_t>(spans.size() - 1);
    }
    void end(std::int32_t i) { spans[static_cast<std::size_t>(i)].end = now_ns(); }
    /// Record a span whose times were taken elsewhere.
    void add(const char* name, std::int64_t start, std::int64_t end,
             std::int32_t parent, std::uint64_t request) {
        spans.push_back({name, start, end, parent, request});
    }

    /// Self time of every span, ns (duration minus the union of its
    /// children's intervals clipped to it).
    std::vector<double> self_ns() const;
    /// Sum of durations and of self times of spans called `name`, ms.
    double total_ms(const char* name) const;
    double self_ms(const char* name) const;

    /// Append every span to `path` as JSON lines tagged with `thread`.
    void write(const std::string& path, unsigned thread) const;

    std::vector<span> spans;
};

/// Times ANALYSIS (estimate_faults) and PREPARE (estimate_probes) calls
/// of the optimizer while forwarding them to a cop_detect_estimator that
/// works on the same warm engine pool a batch_session job adopts.
class timed_estimator final : public wrpt::detect_estimator {
public:
    timed_estimator(trace& t, std::uint64_t request)
        : trace_(t), request_(request) {}

    wrpt::cop_detect_estimator& inner() { return inner_; }
    /// Span new calls under `parent`.
    void set_parent(std::int32_t parent) { parent_ = parent; }

    std::string name() const override { return inner_.name(); }
    std::vector<double> estimate(const wrpt::netlist& nl,
                                 const std::vector<wrpt::fault>& faults,
                                 const wrpt::weight_vector& w) override;
    std::vector<std::vector<double>> estimate_probes(
        const wrpt::netlist& nl, const std::vector<wrpt::fault>& faults,
        const wrpt::weight_vector& base,
        std::span<const wrpt::probe> probes) override;
    std::vector<double> estimate_faults(const wrpt::netlist& nl,
                                        std::span<const wrpt::fault> faults,
                                        const wrpt::weight_vector& w,
                                        unsigned threads) override;
    void set_threads(unsigned n) override { inner_.set_threads(n); }

    std::size_t analysis_calls = 0;
    std::size_t probes = 0;
    std::size_t faults_estimated = 0;

private:
    wrpt::cop_detect_estimator inner_;
    trace& trace_;
    std::uint64_t request_;
    std::int32_t parent_ = -1;
};

}  // namespace wb
