// Named multi-tenant circuit registry — the catalog layer above
// exec/batch_session.
//
// The session deals in integer handles and owns every circuit: its
// netlist, its revision and, while resident, its compiled view, faults
// and engine pool. The registry only gives handles durable names: a
// circuit registers as "tenant/name", jobs address it by that string (or
// by the handle registration returned — the two spellings are
// interchangeable), and the registry keeps, per name, just the tenant,
// the handle, the reload count and an LRU stamp. Residency, revision and
// the netlist are the session's, asked for on demand. Three properties
// make the catalog serve-shaped:
//
//  * Lazy residency with a bounded view LRU. register_circuit parses the
//    netlist into a non-resident session entry, so thousands of
//    registrations stay cheap; the first job on the circuit compiles its
//    view (make_resident), and trim() then unloads the coldest resident
//    views — least-recently resolved, by an atomic use stamp exactly like
//    engine_pool's checkout stamps — beyond options.max_views. Unloading
//    keeps the session's netlist and its revision, so results cached
//    before an eviction revalidate after the rebuild: the cache bucket's
//    revision still matches.
//
//  * Atomic hot reload. reload_circuit swaps the entry's netlist for a
//    freshly parsed one (new revision) and, if resident, recompiles it in
//    place under the same handle while the caller holds the session lock
//    exclusively — in-flight jobs have already drained, the old view's
//    warm engine pool is destroyed with it, and the old cache bucket is
//    orphaned by the revision re-stamp on first insert. A request
//    therefore only ever observes one revision end to end.
//
//  * Per-tenant quotas. A uniform tenant_quota bounds registered circuits
//    (typed "quota" refusal past the cap), clamps each compiled view's
//    engine-pool capacity, and caps result-cache bytes (enforced by the
//    service's insert path, which attributes entries to tenants through
//    tenant_of). Refusal envelopes carry a machine-readable `code` so
//    clients can tell quota pressure from not-found from malformed input.
//
// Locking: the registry has no lock of its own. It lives under the
// service's session lock, like the session it indexes: mutators
// (register/reload/make_resident/trim) need it exclusive, the const
// readers (resolve/tenant_of/list/stats) shared, with LRU stamps as
// atomics so concurrent readers never need the exclusive side.

#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/batch_session.h"
#include "netlist/netlist.h"
#include "svc/request.h"
#include "util/dense_map.h"

namespace wrpt::svc {

/// Typed refusal: `code()` travels in the error envelope's `code` field
/// ("not-found", "exists", "quota", "invalid"), so clients can branch on
/// the refusal class without parsing prose.
class registry_error : public std::runtime_error {
public:
    registry_error(std::string code, const std::string& message)
        : std::runtime_error(message), code_(std::move(code)) {}
    const std::string& code() const { return code_; }

private:
    std::string code_;
};

class registry {
public:
    /// Uniform per-tenant limits; every field 0 = unbounded.
    struct tenant_quota {
        std::size_t max_circuits = 0;     ///< registered entries per tenant
        std::size_t max_engines = 0;      ///< engine-pool cap per circuit
        std::uint64_t max_cache_bytes = 0;  ///< result-cache bytes per tenant
    };

    struct options {
        /// Resident compiled views across the whole catalog (0 =
        /// unbounded): trim() unloads the coldest views beyond it.
        std::size_t max_views = 0;
        tenant_quota quota;
    };

    /// A catalog over `session`'s entries; the session must outlive it.
    explicit registry(batch_session& session);  // default options
    registry(batch_session& session, options opt)
        : session_(session), options_(opt) {}

    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    const options& config() const { return options_; }

    struct registered {
        std::size_t handle = 0;
        std::uint64_t revision = 0;
    };
    struct reloaded {
        std::size_t handle = 0;
        std::uint64_t revision = 0;
        std::uint64_t old_revision = 0;
        std::uint64_t reloads = 0;
    };
    struct resolution {
        bool found = false;
        bool resident = false;
        std::size_t handle = 0;
    };

    /// Register `nl` as "tenant/name": adds a non-resident session entry,
    /// compiling nothing. Throws registry_error ("invalid" for a
    /// malformed address, "exists" for a taken name, "quota" past the
    /// tenant's circuit cap — counted as a rejection).
    registered register_circuit(const std::string& tenant,
                                const std::string& name, netlist nl);

    /// Swap the netlist of "tenant/name" and, if resident, recompile it
    /// under the same handle. Throws registry_error("not-found") for
    /// unknown names.
    reloaded reload_circuit(const std::string& tenant, const std::string& name,
                            netlist nl);

    /// Look up "tenant/name" and stamp its LRU clock. Never compiles.
    resolution resolve(const std::string& address) const;
    /// The same for a raw handle: found for every session entry, named
    /// or not; stamps the LRU clock of registered ones.
    resolution resolve(std::size_t handle) const;

    /// The tenant owning `handle`, or nullptr for an unnamed circuit
    /// (load_circuit).
    const std::string* tenant_of(std::size_t handle) const;

    /// Compile `handle`'s view if it is not resident; a registered entry
    /// also gets its tenant's engine quota and counts as a view rebuild.
    void make_resident(std::size_t handle);

    /// Unload the coldest resident registered views until at most
    /// options.max_views remain (no-op when unbounded).
    void trim();

    /// Catalog rows, sorted by "tenant/name"; `tenant` filters when
    /// non-empty.
    std::vector<catalog_entry_payload> list(const std::string& tenant) const;

    struct tenant_row {
        std::string tenant;
        std::size_t circuits = 0;
        std::uint64_t rejections = 0;  ///< typed quota refusals issued
    };
    struct counters {
        std::size_t circuits = 0;  ///< registered entries
        std::size_t resident = 0;  ///< entries with a compiled view
        std::uint64_t view_evictions = 0;
        std::uint64_t view_rebuilds = 0;
        std::vector<tenant_row> tenants;  ///< sorted by tenant
    };
    counters stats() const;

private:
    struct entry {
        std::string tenant;
        std::string name;
        std::size_t handle = 0;
        std::uint64_t reloads = 0;
        /// LRU stamp, written by resolve() under the shared session lock —
        /// atomic so concurrent resolvers never race (mutable because
        /// stamping is a read-path side effect).
        mutable std::atomic<std::uint64_t> last_use{0};
    };
    struct tenant_state {
        std::size_t circuits = 0;
        std::uint64_t rejections = 0;
    };

    void touch(const entry& e) const {
        e.last_use.store(use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    }
    /// Clamp a freshly compiled view's engine pool to the tenant quota
    /// (the tighter of the session default and the quota wins).
    void apply_engine_quota(engine_pool& pool) const;

    batch_session& session_;
    options options_;
    /// Address "tenant/name" -> entry. String-keyed and node-stable by
    /// design: names are arbitrary text (no dense integer domain) and the
    /// atomic LRU stamps need durable addresses, which the dense map's
    /// relocating maintenance would break.
    std::unordered_map<std::string, entry>  // wrpt-lint: allow(dense-map)
        entries_;
    /// Handle -> entry, for handle-addressed jobs and cache attribution.
    util::dense_map<entry*, std::size_t> by_handle_;
    std::unordered_map<std::string, tenant_state>  // wrpt-lint: allow(dense-map)
        tenants_;
    std::uint64_t view_evictions_ = 0;
    std::uint64_t view_rebuilds_ = 0;
    mutable std::atomic<std::uint64_t> use_clock_{0};
};

}  // namespace wrpt::svc
