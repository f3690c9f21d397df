// Signal probability analysis.
//
// cop_signal_probabilities implements the classic forward propagation under
// the independence assumption (exact on trees — the Agrawal/Agrawal 1975
// setting the paper cites; an estimate under reconvergent fanout).
// The arithmetic embedding rules are the paper's formulas (2)-(4):
//   P(not x) = 1 - P(x),  P(x and y) = P(x)P(y) for independent x, y,
//   xor combines as p + q - 2pq.

#pragma once

#include <span>
#include <vector>

#include "core/circuit_view.h"
#include "io/weights_io.h"
#include "netlist/netlist.h"

namespace wrpt {

/// One probability per node (indexed by node id), inputs taken from
/// `weights` (ordered like nl.inputs()).
std::vector<double> cop_signal_probabilities(const netlist& nl,
                                             const weight_vector& weights);

/// Same forward sweep over an already compiled view (the shared path; the
/// netlist overload compiles a throwaway view).
std::vector<double> cop_signal_probabilities(const circuit_view& cv,
                                             const weight_vector& weights);

/// Same forward sweep into a caller-owned buffer (size node_count; every
/// entry is written), for callers that sweep repeatedly.
void cop_signal_probabilities(const circuit_view& cv,
                              std::span<const double> weights,
                              std::span<double> p);

/// Exact signal probabilities by brute-force weighted enumeration over all
/// 2^inputs patterns. Test oracle for small circuits only (inputs <= 24).
std::vector<double> exact_signal_probabilities_enum(const netlist& nl,
                                                    const weight_vector& weights);

}  // namespace wrpt
