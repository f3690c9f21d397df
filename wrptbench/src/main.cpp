// wrpt_bench: drive one workload against a freshly started
// `wrpt_cli serve` daemon and print the result line.
//
//   wrpt_bench --cli <wrpt_cli> --run-dir <dir> --workload <name>
//              --seed <n> --seconds <s> --trace <0|1> [--smoke] [--digest]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (end-to-end with --trace 0, per-layer
// with --trace 1). Lines before it are human-readable diagnostics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
    wb::options opt;
    std::string trace = "0";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "wrpt_bench: %s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload") opt.workload = value();
        else if (a == "--seed") opt.seed = std::stoull(value());
        else if (a == "--seconds") opt.seconds = std::stod(value());
        else if (a == "--trace") trace = value();
        else if (a == "--cli") opt.cli = value();
        else if (a == "--run-dir") opt.run_dir = value();
        else if (a == "--smoke") opt.smoke = true;
        else if (a == "--digest") opt.digest = true;
        else {
            std::fprintf(stderr, "wrpt_bench: unknown argument %s\n", a.c_str());
            return 2;
        }
    }
    opt.trace = trace == "1";
    if (opt.workload.empty() || (!opt.digest && (opt.cli.empty() || opt.run_dir.empty()))) {
        std::fprintf(stderr, "wrpt_bench: --workload, --cli and --run-dir are required\n");
        return 2;
    }
    try {
        if (opt.digest) {
            std::printf("%016llx\n",
                        static_cast<unsigned long long>(wb::stream_digest(opt)));
            return 0;
        }
        const wb::report rep = wb::run_workload(opt);
        std::printf("failed_share %.6g (%llu of %llu requests)\n",
                    static_cast<double>(rep.failed) /
                        static_cast<double>(rep.attempted ? rep.attempted : 1),
                    static_cast<unsigned long long>(rep.failed),
                    static_cast<unsigned long long>(rep.attempted));
        std::printf("%s\n", rep.json().c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "wrpt_bench: %s\n", e.what());
        return 1;
    }
}
