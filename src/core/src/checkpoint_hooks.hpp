#pragma once

/// @file checkpoint_hooks.hpp (internal to fmore_core)
/// Durable-run plumbing of the trial engine (ExperimentTrial): RNG state
/// (de)serialization, RunControl seeding from a loaded core::RunCheckpoint,
/// and the on_round hook that writes checkpoints on the
/// timing.checkpoint_every cadence — and fires the deterministic
/// coordinator-kill faults of the crash-recovery harness.

#include <csignal>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/run_state.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/population.hpp"
#include "fmore/stats/rng.hpp"
#include "fmore/util/snapshot.hpp"

namespace fmore::core::detail {

/// mt19937_64 state in its stream text form — exact by the standard.
inline std::string serialize_rng(stats::Rng& rng) {
    std::ostringstream out;
    out << rng.engine();
    return out.str();
}

inline void restore_rng(stats::Rng& rng, const std::string& state) {
    std::istringstream in(state);
    in >> rng.engine();
    if (in.fail())
        throw util::SnapshotError(
            "checkpoint rng_state does not parse as mt19937_64 state text");
}

/// Selector-side restore state. The adaptive-quorum replay lives on the
/// checkpointed metrics tape: every streaming round recorded its close
/// reason and close time, which is exactly the observation sequence the
/// controller is a pure function of.
inline fl::SelectorCheckpoint make_selector_checkpoint(const RunCheckpoint& ckpt) {
    fl::SelectorCheckpoint sel;
    sel.banned_nodes = ckpt.banned_nodes;
    for (const fl::RoundMetrics& round : ckpt.rounds)
        if (!round.selection.close_reason.empty())
            sel.close_replay.emplace_back(round.selection.close_reason,
                                          round.selection.close_time_s);
    return sel;
}

/// Prior-tape / model / async-carry seeding for a resumed run. The caller
/// wires `on_round` separately.
inline fl::RunControl make_resume_control(const RunCheckpoint& ckpt) {
    fl::RunControl control;
    control.start_round = ckpt.completed_rounds + 1;
    control.prior_rounds = ckpt.rounds;
    control.global = ckpt.model_params;
    control.flight = ckpt.flight;
    control.next_seq = ckpt.next_seq;
    return control;
}

/// The on_round hook: encode and atomically write a checkpoint every
/// `every` rounds (plus the final round, so a finished run always leaves a
/// complete checkpoint), prune to the newest `keep`, then deliver any
/// scheduled coordinator-kill fault. A kill round forces a save first —
/// "SIGKILL right after round R's checkpoint saved" is the contract the
/// crash harness tests — and `ckill_mid` kills from inside the write via
/// the mid_write hook, leaving a torn `.tmp` behind.
///
/// Captures references owned by the enclosing run; must not outlive it.
struct CheckpointWriter {
    std::size_t every = 0;
    std::string dir; ///< per-(policy, trial) run directory
    std::size_t keep = 3;
    std::size_t total_rounds = 0;
    std::size_t ckill_round = 0;
    std::size_t ckill_mid_round = 0;
    std::string spec_text;
    std::string policy;
    std::size_t trial_index = 0;
    stats::Rng* run_rng = nullptr;
    mec::MecPopulation* population = nullptr;
    fl::ClientSelector* selector = nullptr;

    void operator()(std::size_t round, const std::vector<fl::RoundMetrics>& rounds,
                    const std::vector<float>& global,
                    const std::vector<fl::InFlightUpdate>& flight,
                    std::uint64_t next_seq) const {
        const bool kill_now = round == ckill_round && ckill_round > 0;
        const bool kill_mid = round == ckill_mid_round && ckill_mid_round > 0;
        const bool save_now =
            every > 0
            && (round % every == 0 || round == total_rounds || kill_now || kill_mid);
        if (save_now) {
            // Encoded from the live run state through const references:
            // only the RNG text and the (small) ban list are materialized.
            const std::string rng_state = serialize_rng(*run_rng);
            fl::SelectorCheckpoint sel;
            selector->save_checkpoint(sel);
            const mec::PopulationStore& store = population->store();
            const auto columns = store.state_columns();
            ensure_checkpoint_dir(dir);
            save_checkpoint(CheckpointRefs{spec_text, policy, trial_index, round, rng_state,
                                           global, store.node_offset(),
                                           store.salt_history(), columns,
                                           sel.banned_nodes, rounds, flight, next_seq},
                            dir + "/" + checkpoint_filename(round),
                            kill_mid
                                ? std::function<void()>([] { std::raise(SIGKILL); })
                                : std::function<void()>());
            prune_checkpoints(dir, keep);
        }
        if (kill_now) std::raise(SIGKILL);
    }
};

} // namespace fmore::core::detail
