// Field lists of the wire protocol, one per payload struct in request.h:
// key (a plain identifier, written unescaped), member and emit policy, in
// canonical order. The codec in wire.cpp and the fuzz generators derive
// from them; a new kind is one variant alternative plus one list. Policies:
//   always        written every time (the default);
//   omit_empty    an empty string stays off the wire, and
//   present_flag  a nested section is written only when `present` is set,
//                 so opt-in fields keep older encodings byte-identical;
//   group(...)    flat members of the struct written as one nested object.
// Absent keys decode to the struct's own defaults.

#pragma once

#include <string_view>
#include <tuple>
#include <type_traits>
#include <variant>

#include "svc/request.h"

namespace wrpt::svc::schema {

enum class emit { always, omit_empty, present_flag };

template <class S, class M>
struct field {
    std::string_view name;
    M S::*member;
    emit policy;
    constexpr field(std::string_view n, M S::*m, emit p = emit::always)
        : name(n), member(m), policy(p) {}
};

/// A field list. `name` is a kind's "req"/"resp" tag or a group's key, and
/// empty for a nested payload; a list inside a list is a group.
template <class... E>
struct list {
    std::string_view name;
    std::tuple<E...> entries;
};

template <class... E>
constexpr list<E...> kind(std::string_view tag, E... e) {
    return {tag, {e...}};
}

template <class... E>
constexpr list<E...> nested(E... e) {
    return {{}, {e...}};
}

template <class... E>
constexpr list<E...> group(std::string_view key, E... e) {
    return {key, {e...}};
}

/// The field list of payload T; nullptr until T is described below.
template <class T>
inline constexpr auto of = nullptr;

/// matrix "kind" values, indexed by job_kind.
inline constexpr std::string_view job_kind_names[] = {"test_length",
                                                      "optimize", "fault_sim"};

// --- requests ---------------------------------------------------------------

template <> inline constexpr auto of<optimize_options> = nested(
    field{"confidence", &optimize_options::confidence},
    field{"alpha", &optimize_options::alpha},
    field{"max_sweeps", &optimize_options::max_sweeps},
    field{"weight_min", &optimize_options::weight_min},
    field{"weight_max", &optimize_options::weight_max},
    field{"grid", &optimize_options::grid},
    field{"max_relevant_faults", &optimize_options::max_relevant_faults},
    field{"relevance_window", &optimize_options::relevance_window},
    field{"saddle_escape", &optimize_options::saddle_escape},
    field{"saddle_perturbation", &optimize_options::saddle_perturbation},
    field{"trust_step", &optimize_options::trust_step},
    field{"prepare_block", &optimize_options::prepare_block},
    field{"threads", &optimize_options::threads});
template <> inline constexpr auto of<load_circuit_request> = kind(
    "load_circuit",
    field{"name", &load_circuit_request::name},
    field{"bench", &load_circuit_request::bench},
    field{"path", &load_circuit_request::path},
    field{"suite", &load_circuit_request::suite});
template <> inline constexpr auto of<test_length_request> = kind(
    "test_length",
    field{"circuit", &test_length_request::circuit},
    field{"name", &test_length_request::name, emit::omit_empty},
    field{"weights", &test_length_request::weights},
    field{"confidence", &test_length_request::confidence},
    field{"threads", &test_length_request::threads});
template <> inline constexpr auto of<optimize_request> = kind(
    "optimize",
    field{"circuit", &optimize_request::circuit},
    field{"name", &optimize_request::name, emit::omit_empty},
    field{"weights", &optimize_request::weights},
    field{"options", &optimize_request::options});
template <> inline constexpr auto of<fault_sim_request> = kind(
    "fault_sim",
    field{"circuit", &fault_sim_request::circuit},
    field{"name", &fault_sim_request::name, emit::omit_empty},
    field{"weights", &fault_sim_request::weights},
    field{"patterns", &fault_sim_request::patterns},
    field{"seed", &fault_sim_request::seed});
template <> inline constexpr auto of<matrix_request> = kind(
    "matrix",
    field{"kind", &matrix_request::kind},
    field{"circuits", &matrix_request::circuits},
    field{"weight_sets", &matrix_request::weight_sets},
    field{"options", &matrix_request::options},
    field{"patterns", &matrix_request::patterns},
    field{"seed", &matrix_request::seed},
    field{"confidence", &matrix_request::confidence});
template <> inline constexpr auto of<stats_request> = kind("stats");
// A decoded evict without "all" is per-circuit when "circuit" is given:
// the one conditional default, applied after decoding (svc/wire.cpp).
template <> inline constexpr auto of<evict_request> = kind(
    "evict",
    field{"all", &evict_request::all},
    field{"circuit", &evict_request::circuit},
    field{"keep_engines", &evict_request::keep_engines});
template <> inline constexpr auto of<shutdown_request> = kind("shutdown");
template <> inline constexpr auto of<register_circuit_request> = kind(
    "register_circuit",
    field{"tenant", &register_circuit_request::tenant},
    field{"name", &register_circuit_request::name},
    field{"bench", &register_circuit_request::bench},
    field{"path", &register_circuit_request::path},
    field{"suite", &register_circuit_request::suite});
template <> inline constexpr auto of<reload_circuit_request> = kind(
    "reload_circuit",
    field{"tenant", &reload_circuit_request::tenant},
    field{"name", &reload_circuit_request::name},
    field{"bench", &reload_circuit_request::bench},
    field{"path", &reload_circuit_request::path},
    field{"suite", &reload_circuit_request::suite});
template <> inline constexpr auto of<list_circuits_request> = kind(
    "list_circuits",
    field{"tenant", &list_circuits_request::tenant, emit::omit_empty});
// --- responses --------------------------------------------------------------

template <> inline constexpr auto of<error_response> = kind(
    "error",
    field{"error", &error_response::message},
    field{"code", &error_response::code, emit::omit_empty});
template <> inline constexpr auto of<load_circuit_response> = kind(
    "load_circuit",
    field{"circuit", &load_circuit_response::circuit},
    field{"name", &load_circuit_response::name},
    field{"inputs", &load_circuit_response::inputs},
    field{"outputs", &load_circuit_response::outputs},
    field{"gates", &load_circuit_response::gates},
    field{"faults", &load_circuit_response::faults},
    field{"revision", &load_circuit_response::revision});
template <> inline constexpr auto of<length_payload> = nested(
    field{"feasible", &length_payload::feasible},
    field{"test_length", &length_payload::test_length},
    field{"relevant_faults", &length_payload::relevant_faults},
    field{"zero_prob_faults", &length_payload::zero_prob_faults},
    field{"hardest_probability", &length_payload::hardest_probability});
template <> inline constexpr auto of<test_length_response> = kind(
    "test_length",
    field{"circuit", &test_length_response::circuit},
    field{"revision", &test_length_response::revision},
    field{"cached", &test_length_response::cached},
    field{"elapsed_ms", &test_length_response::elapsed_ms},
    field{"length", &test_length_response::length});
template <> inline constexpr auto of<optimize_response> = kind(
    "optimize",
    field{"circuit", &optimize_response::circuit},
    field{"revision", &optimize_response::revision},
    field{"cached", &optimize_response::cached},
    field{"elapsed_ms", &optimize_response::elapsed_ms},
    field{"feasible", &optimize_response::feasible},
    field{"initial_length", &optimize_response::initial_length},
    field{"final_length", &optimize_response::final_length},
    field{"sweeps", &optimize_response::sweeps},
    field{"analysis_calls", &optimize_response::analysis_calls},
    field{"zero_prob_faults", &optimize_response::zero_prob_faults},
    field{"weights", &optimize_response::weights},
    field{"length", &optimize_response::length});
template <> inline constexpr auto of<fault_sim_response> = kind(
    "fault_sim",
    field{"circuit", &fault_sim_response::circuit},
    field{"revision", &fault_sim_response::revision},
    field{"cached", &fault_sim_response::cached},
    field{"elapsed_ms", &fault_sim_response::elapsed_ms},
    field{"patterns", &fault_sim_response::patterns},
    field{"faults", &fault_sim_response::faults},
    field{"detected", &fault_sim_response::detected},
    field{"coverage", &fault_sim_response::coverage});
template <> inline constexpr auto of<matrix_response> = kind(
    "matrix",
    field{"results", &matrix_response::results});
template <> inline constexpr auto of<pool_stats_payload> = nested(
    field{"circuit", &pool_stats_payload::circuit},
    field{"revision", &pool_stats_payload::revision},
    field{"engines", &pool_stats_payload::engines},
    field{"warm", &pool_stats_payload::warm},
    field{"capacity", &pool_stats_payload::capacity},
    field{"hits", &pool_stats_payload::hits},
    field{"misses", &pool_stats_payload::misses},
    field{"resyncs", &pool_stats_payload::resyncs},
    field{"evictions", &pool_stats_payload::evictions},
    field{"relocations", &pool_stats_payload::relocations});
template <> inline constexpr auto of<tenant_stats_payload> = nested(
    field{"tenant", &tenant_stats_payload::tenant},
    field{"circuits", &tenant_stats_payload::circuits},
    field{"cache_bytes", &tenant_stats_payload::cache_bytes},
    field{"max_circuits", &tenant_stats_payload::max_circuits},
    field{"max_engines", &tenant_stats_payload::max_engines},
    field{"max_cache_bytes", &tenant_stats_payload::max_cache_bytes},
    field{"rejections", &tenant_stats_payload::rejections});
template <> inline constexpr auto of<registry_stats_payload> = nested(
    field{"circuits", &registry_stats_payload::circuits},
    field{"resident", &registry_stats_payload::resident},
    field{"max_views", &registry_stats_payload::max_views},
    field{"view_evictions", &registry_stats_payload::view_evictions},
    field{"view_rebuilds", &registry_stats_payload::view_rebuilds},
    field{"tenants", &registry_stats_payload::tenants});
template <> inline constexpr auto of<server_stats_payload> = nested(
    field{"active", &server_stats_payload::active},
    field{"workers", &server_stats_payload::workers},
    field{"max_connections", &server_stats_payload::max_connections},
    field{"queue_depth", &server_stats_payload::queue_depth},
    field{"queue_bytes", &server_stats_payload::queue_bytes},
    field{"accepted", &server_stats_payload::accepted},
    field{"refused", &server_stats_payload::refused},
    field{"requests", &server_stats_payload::requests},
    field{"protocol_errors", &server_stats_payload::protocol_errors},
    field{"overflows", &server_stats_payload::overflows},
    field{"timeouts", &server_stats_payload::timeouts},
    field{"queue_drops", &server_stats_payload::queue_drops},
    field{"accept_backoffs", &server_stats_payload::accept_backoffs});
// The registry and server sections are opt-in, so registry-free and
// stdin-daemon transcripts stay byte-identical to the older formats.
template <> inline constexpr auto of<stats_response> = kind(
    "stats",
    field{"requests", &stats_response::requests},
    group("cache",
          field{"probes", &stats_response::cache_probes},
          field{"hits", &stats_response::cache_hits},
          field{"misses", &stats_response::cache_misses},
          field{"entries", &stats_response::cache_entries},
          field{"evictions", &stats_response::cache_evictions},
          field{"bytes", &stats_response::cache_bytes}),
    field{"circuits", &stats_response::circuits},
    field{"simd_isa", &stats_response::simd_isa},
    field{"simd_lanes", &stats_response::simd_lanes},
    field{"pools", &stats_response::pools},
    field{"registry", &stats_response::registry, emit::present_flag},
    field{"server", &stats_response::server, emit::present_flag});
template <> inline constexpr auto of<evict_response> = kind(
    "evict",
    field{"cache_entries", &evict_response::cache_entries},
    field{"engines", &evict_response::engines});
template <> inline constexpr auto of<shutdown_response> = kind("shutdown");
template <> inline constexpr auto of<register_circuit_response> = kind(
    "register_circuit",
    field{"tenant", &register_circuit_response::tenant},
    field{"name", &register_circuit_response::name},
    field{"circuit", &register_circuit_response::circuit},
    field{"revision", &register_circuit_response::revision},
    field{"inputs", &register_circuit_response::inputs},
    field{"outputs", &register_circuit_response::outputs},
    field{"gates", &register_circuit_response::gates});
template <> inline constexpr auto of<reload_circuit_response> = kind(
    "reload_circuit",
    field{"tenant", &reload_circuit_response::tenant},
    field{"name", &reload_circuit_response::name},
    field{"circuit", &reload_circuit_response::circuit},
    field{"revision", &reload_circuit_response::revision},
    field{"old_revision", &reload_circuit_response::old_revision},
    field{"reloads", &reload_circuit_response::reloads});
template <> inline constexpr auto of<catalog_entry_payload> = nested(
    field{"tenant", &catalog_entry_payload::tenant},
    field{"name", &catalog_entry_payload::name},
    field{"circuit", &catalog_entry_payload::circuit},
    field{"revision", &catalog_entry_payload::revision},
    field{"resident", &catalog_entry_payload::resident},
    field{"reloads", &catalog_entry_payload::reloads});
template <> inline constexpr auto of<list_circuits_response> = kind(
    "list_circuits",
    field{"entries", &list_circuits_response::entries});
// A kind without a field list fails to compile here, not on the wire.
template <class V>
inline constexpr bool all_described = false;
template <class... T>
inline constexpr bool all_described<std::variant<T...>> =
    (!std::is_null_pointer_v<std::remove_cv_t<decltype(of<T>)>> && ...);
static_assert(all_described<decltype(request::payload)>);
static_assert(all_described<decltype(response::payload)>);

}  // namespace wrpt::svc::schema
