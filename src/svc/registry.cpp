#include "svc/registry.h"

#include <algorithm>
#include <tuple>

#include "exec/engine_pool.h"

namespace wrpt::svc {

namespace {

std::string address_of(const std::string& tenant, const std::string& name) {
    return tenant + "/" + name;
}

/// Addresses split at the *first* '/', so tenants must not contain one
/// (names may — "team/block/alu" is tenant "team", name "block/alu").
void check_address(const std::string& tenant, const std::string& name) {
    if (tenant.empty() || name.empty())
        throw registry_error(
            "invalid", "registry: tenant and name must both be non-empty");
    if (tenant.find('/') != std::string::npos)
        throw registry_error("invalid",
                             "registry: tenant must not contain '/'");
}

}  // namespace

registry::registry(batch_session& session) : registry(session, options{}) {}

registry::registered registry::register_circuit(const std::string& tenant,
                                                const std::string& name,
                                                netlist nl) {
    check_address(tenant, name);
    tenant_state& ts = tenants_[tenant];
    const std::string address = address_of(tenant, name);
    if (entries_.find(address) != entries_.end())
        throw registry_error("exists", "registry: '" + address +
                                           "' is already registered; "
                                           "reload it instead");
    if (options_.quota.max_circuits != 0 &&
        ts.circuits >= options_.quota.max_circuits) {
        ++ts.rejections;
        throw registry_error(
            "quota", "registry: tenant '" + tenant +
                         "' is at its circuit quota (" +
                         std::to_string(options_.quota.max_circuits) + ")");
    }
    // Lazy residency: the session keeps the parsed netlist but compiles
    // nothing — the first job on the circuit pays for the view.
    const std::size_t handle = session_.add_circuit(std::move(nl), false);
    entry& e = entries_[address];
    e.tenant = tenant;
    e.name = name;
    e.handle = handle;
    by_handle_.try_emplace(handle, &e);
    ++ts.circuits;
    touch(e);
    return {handle, session_.circuit(handle).revision()};
}

registry::reloaded registry::reload_circuit(const std::string& tenant,
                                            const std::string& name,
                                            netlist nl) {
    check_address(tenant, name);
    const auto it = entries_.find(address_of(tenant, name));
    if (it == entries_.end())
        throw registry_error("not-found", "registry: unknown circuit '" +
                                              address_of(tenant, name) + "'");
    entry& e = it->second;
    const std::uint64_t old_revision = session_.circuit(e.handle).revision();
    // The caller holds the session lock exclusively, so every in-flight
    // job has drained on the old view; the old warm engine pool dies with
    // it, and the revision re-stamp orphans the old cache bucket on the
    // next insert.
    session_.reload(e.handle, std::move(nl));
    if (session_.has_circuit(e.handle))
        apply_engine_quota(session_.pool(e.handle));
    ++e.reloads;
    touch(e);
    return {e.handle, session_.circuit(e.handle).revision(), old_revision,
            e.reloads};
}

registry::resolution registry::resolve(const std::string& address) const {
    const auto it = entries_.find(address);
    if (it == entries_.end()) return {};
    touch(it->second);  // LRU stamp: atomic, safe under the shared lock
    return {true, session_.has_circuit(it->second.handle), it->second.handle};
}

registry::resolution registry::resolve(std::size_t handle) const {
    if (!session_.has_entry(handle)) return {};
    if (entry* const* e = by_handle_.find(handle)) touch(**e);
    return {true, session_.has_circuit(handle), handle};
}

const std::string* registry::tenant_of(std::size_t handle) const {
    entry* const* e = by_handle_.find(handle);
    return e == nullptr ? nullptr : &(*e)->tenant;
}

void registry::make_resident(std::size_t handle) {
    if (!session_.make_resident(handle)) return;
    // Unnamed circuits compile on load and are never unloaded, so only a
    // registered entry gets here.
    entry* const* e = by_handle_.find(handle);
    if (e == nullptr) return;
    apply_engine_quota(session_.pool(handle));
    ++view_rebuilds_;
    touch(**e);
}

void registry::apply_engine_quota(engine_pool& pool) const {
    const std::size_t quota = options_.quota.max_engines;
    if (quota == 0) return;
    // The compile set the session-wide default; the tighter bound wins.
    const std::size_t current = pool.capacity();
    pool.set_capacity(current == 0 ? quota : std::min(current, quota));
}

void registry::trim() {
    if (options_.max_views == 0) return;
    std::vector<const entry*> resident;
    for (const auto& [address, e] : entries_)
        if (session_.has_circuit(e.handle)) resident.push_back(&e);
    if (resident.size() <= options_.max_views) return;
    // Coldest first; stamps are unique, so the order is deterministic.
    const auto excess = static_cast<std::ptrdiff_t>(resident.size() -
                                                    options_.max_views);
    std::partial_sort(resident.begin(), resident.begin() + excess,
                      resident.end(), [](const entry* a, const entry* b) {
                          return a->last_use.load(std::memory_order_relaxed) <
                                 b->last_use.load(std::memory_order_relaxed);
                      });
    for (auto it = resident.begin(); it != resident.begin() + excess; ++it) {
        session_.unload((*it)->handle);
        ++view_evictions_;
    }
}

std::vector<catalog_entry_payload> registry::list(
    const std::string& tenant) const {
    std::vector<catalog_entry_payload> rows;
    rows.reserve(entries_.size());
    for (const auto& [address, e] : entries_) {
        if (!tenant.empty() && e.tenant != tenant) continue;
        catalog_entry_payload row;
        row.tenant = e.tenant;
        row.name = e.name;
        row.circuit = e.handle;
        row.revision = session_.circuit(e.handle).revision();
        row.resident = session_.has_circuit(e.handle);
        row.reloads = e.reloads;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const catalog_entry_payload& a,
                 const catalog_entry_payload& b) {
                  return std::tie(a.tenant, a.name) <
                         std::tie(b.tenant, b.name);
              });
    return rows;
}

registry::counters registry::stats() const {
    counters c;
    c.circuits = entries_.size();
    for (const auto& [address, e] : entries_)
        if (session_.has_circuit(e.handle)) ++c.resident;
    c.view_evictions = view_evictions_;
    c.view_rebuilds = view_rebuilds_;
    c.tenants.reserve(tenants_.size());
    for (const auto& [tenant, ts] : tenants_)
        c.tenants.push_back({tenant, ts.circuits, ts.rejections});
    std::sort(c.tenants.begin(), c.tenants.end(),
              [](const tenant_row& a, const tenant_row& b) {
                  return a.tenant < b.tenant;
              });
    return c;
}

}  // namespace wrpt::svc
