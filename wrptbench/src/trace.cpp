#include "trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace wb {

std::vector<double> trace::self_ns() const {
    std::vector<std::vector<std::int32_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(
                static_cast<std::int32_t>(i));
    std::vector<double> out(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        iv.clear();
        for (std::int32_t c : children[i]) {
            const span& k = spans[static_cast<std::size_t>(c)];
            const std::int64_t b = std::max(k.start, s.start);
            const std::int64_t e = std::min(k.end, s.end);
            if (e > b) iv.emplace_back(b, e);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, reach = s.start;
        for (auto [b, e] : iv) {
            b = std::max(b, reach);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        out[i] = static_cast<double>(s.end - s.start - covered);
    }
    return out;
}

double trace::total_ms(const char* name) const {
    double t = 0.0;
    for (const span& s : spans)
        if (std::strcmp(s.name, name) == 0)
            t += static_cast<double>(s.end - s.start);
    return t * 1e-6;
}

double trace::self_ms(const char* name) const {
    const std::vector<double> self = self_ns();
    double t = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (std::strcmp(spans[i].name, name) == 0) t += self[i];
    return t * 1e-6;
}

void trace::write(const std::string& path, unsigned thread) const {
    std::ofstream out(path, std::ios::app);
    const std::vector<double> self = self_ns();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        out << "{\"thread\":" << thread << ",\"span\":" << i << ",\"name\":\""
            << s.name << "\",\"start_ns\":" << s.start
            << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request
            << ",\"self_ns\":" << static_cast<std::int64_t>(self[i]) << "}\n";
    }
}

std::vector<double> timed_estimator::estimate(
    const wrpt::netlist& nl, const std::vector<wrpt::fault>& faults,
    const wrpt::weight_vector& w) {
    const std::int32_t s = trace_.begin("pipeline.analysis", parent_, request_);
    ++analysis_calls;
    faults_estimated += faults.size();
    std::vector<double> out = inner_.estimate(nl, faults, w);
    trace_.end(s);
    return out;
}

std::vector<double> timed_estimator::estimate_faults(
    const wrpt::netlist& nl, std::span<const wrpt::fault> faults,
    const wrpt::weight_vector& w, unsigned threads) {
    const std::int32_t s = trace_.begin("pipeline.analysis", parent_, request_);
    ++analysis_calls;
    faults_estimated += faults.size();
    std::vector<double> out = inner_.estimate_faults(nl, faults, w, threads);
    trace_.end(s);
    return out;
}

std::vector<std::vector<double>> timed_estimator::estimate_probes(
    const wrpt::netlist& nl, const std::vector<wrpt::fault>& faults,
    const wrpt::weight_vector& base, std::span<const wrpt::probe> ps) {
    const std::int32_t s = trace_.begin("pipeline.prepare", parent_, request_);
    probes += ps.size();
    auto out = inner_.estimate_probes(nl, faults, base, ps);
    trace_.end(s);
    return out;
}

}  // namespace wb
