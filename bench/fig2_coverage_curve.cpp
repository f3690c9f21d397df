// Fig. 2: fault coverage vs pattern count for S1, optimized vs
// conventional random patterns. The paper's figure shows the optimized
// curve saturating near 100% within a few thousand patterns while the
// conventional one stalls around 80%.

#include <cstdio>
#include <iostream>

#include "gen/comparator.h"
#include "io/weights_io.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
    using namespace wrpt;
    stopwatch total;
    const netlist nl = make_s1();
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator analysis;
    const optimize_result opt =
        optimize_weights(nl, faults, analysis, uniform_weights(nl));

    fault_sim_options fo;
    fo.max_patterns = 12288;
    const auto conventional = run_weighted_fault_simulation(
        nl, faults, uniform_weights(nl), 0xf162, fo);
    const auto optimized =
        run_weighted_fault_simulation(nl, faults, opt.weights, 0xf162, fo);

    text_table t("Fig. 2: Fault coverage vs pattern count (S1)");
    t.set_header({"Patterns", "conventional %", "optimized %"});
    auto pct = [&](const fault_sim_result& r, std::uint64_t n) {
        return 100.0 * static_cast<double>(r.detected_within(n)) /
               static_cast<double>(faults.size());
    };
    for (std::uint64_t n = 16; n <= 12288; n *= 2) {
        t.add_row({format_count(n), format_fixed(pct(conventional, n), 1),
                   format_fixed(pct(optimized, n), 1)});
    }
    t.add_row({format_count(12288), format_fixed(pct(conventional, 12288), 1),
               format_fixed(pct(optimized, 12288), 1)});
    std::cout << t;

    // A coarse ASCII rendition of the figure.
    std::printf("\n  %%cov  conventional (.)  optimized (#)\n");
    for (std::uint64_t n = 16; n <= 12288; n *= 2) {
        const int c = static_cast<int>(pct(conventional, n) / 2.0);
        const int o = static_cast<int>(pct(optimized, n) / 2.0);
        std::printf("  %6llu |", static_cast<unsigned long long>(n));
        for (int i = 0; i < 50; ++i) {
            char ch = ' ';
            if (i == c) ch = '.';
            if (i == o) ch = (i == c) ? '*' : '#';
            std::putchar(ch);
        }
        std::printf("|\n");
    }
    std::printf(
        "\nShape check: the optimized curve dominates everywhere and\n"
        "saturates; the conventional curve plateaus far below 100%%\n"
        "(the paper's S1 plateau is ~80%% at 12,000 patterns).\n"
        "(total %.2f s)\n\n",
        total.seconds());
    return 0;
}
