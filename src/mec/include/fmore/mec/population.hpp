#pragma once

#include <vector>

#include "fmore/mec/edge_node.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/stats/distributions.hpp"

namespace fmore::mec {

/// The N edge nodes of one MEC deployment — a thin view over the
/// structure-of-arrays `PopulationStore` that actually holds the state.
/// Data resources come from the non-IID shards (the node's data size /
/// label diversity are whatever its shard holds); bandwidth/CPU and the
/// private theta are drawn by the store.
///
/// Hot paths (bid collection, the wall-clock model) read the store's
/// columns directly via `store()`; the AoS API — `node(i)` / `nodes()` —
/// is a lazily refreshed mirror kept for tests, examples and inspection.
/// Touching it after an `evolve` costs one O(N) rebuild, which production
/// round loops never pay.
class MecPopulation {
public:
    MecPopulation(const std::vector<ml::ClientShard>& shards, std::size_t num_classes,
                  const stats::Distribution& theta_dist, const PopulationSpec& spec,
                  stats::Rng& rng);

    /// Adopt an already-built store (e.g. a shard-free synthetic
    /// mega-population for the scale benches).
    explicit MecPopulation(PopulationStore store);

    [[nodiscard]] std::size_t size() const { return store_.size(); }
    [[nodiscard]] const EdgeNode& node(std::size_t i) const;
    [[nodiscard]] const std::vector<EdgeNode>& nodes() const;

    /// One round of resource/theta drift across all nodes (see
    /// `PopulationStore::evolve` for the determinism model).
    void evolve(stats::Rng& rng);

    /// Drift under a round salt drawn elsewhere — how a sharded market
    /// coordinator keeps this population in lockstep with its shards (one
    /// generator draw for the whole market, identical columns everywhere).
    void evolve_with_salt(std::uint64_t salt);

    [[nodiscard]] double theta_lo() const { return store_.theta_lo(); }
    [[nodiscard]] double theta_hi() const { return store_.theta_hi(); }

    /// Read-only on purpose: all mutation goes through `evolve`, which is
    /// what keeps the lazy AoS mirror coherent.
    [[nodiscard]] const PopulationStore& store() const { return store_; }

    /// Durable-run resume: restore the full store state (checkpoints are
    /// encoded from `store()` directly). `restore` invalidates the lazy AoS
    /// mirror, so the coherence contract above still holds.
    void restore(const PopulationSnapshot& snap) {
        store_.restore(snap);
        mirror_stale_ = true;
    }

private:
    void refresh_mirror() const;

    PopulationStore store_;
    mutable std::vector<EdgeNode> mirror_;
    mutable bool mirror_stale_ = true;
};

} // namespace fmore::mec
