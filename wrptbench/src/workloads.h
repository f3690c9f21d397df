// The three workloads of wrpt-bench (see ../README.md for why each was
// chosen and which layers it stresses).
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace wb {

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;       ///< seconds-long phases, one set-up
    bool digest = false;      ///< print the request-stream digest only
    std::string cli;          ///< wrpt_cli binary
    std::string run_dir;      ///< socket, daemon log and trace files
    unsigned setups = 3;      ///< set-ups per run (setup_s is their median)
};

/// Run one workload end to end and return its result line's contents.
report run_workload(const options& opt);

/// Digest of the seeded request stream of a workload: the same seed gives
/// the same digest (checked by the smoke tests).
std::uint64_t stream_digest(const options& opt);

}  // namespace wb
