#pragma once

/// @file replay.hpp
/// Per-layer replays. The library's round loop is not instrumented, so the
/// traced run times each layer by calling that layer's public functions
/// again at the workload's sizes: dataset synthesis, partitioning and the
/// equilibrium solve (set-up), population drift and the fused bid pass
/// over every shard range (market), and local training, evaluation and
/// FedAvg on each recorded round's winners (learning), plus a checkpoint
/// write per round (durability). Every replay is recorded as a span with
/// the round id of the round it replays.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fmore/auction/equilibrium.hpp"
#include "fmore/auction/scoring.hpp"
#include "fmore/auction/cost.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/ml/dataset.hpp"
#include "fmore/ml/model.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/stats/distributions.hpp"
#include "trace.hpp"

namespace perfbench {

namespace auction = fmore::auction;
namespace core = fmore::core;
namespace fl = fmore::fl;
namespace mec = fmore::mec;
namespace ml = fmore::ml;
namespace stats = fmore::stats;
namespace util = fmore::util;

/// Replay timings, one sample per replayed call unless noted; the per-round
/// vectors are in round order.
struct LayerSamples {
    double dataset_ms = 0.0;
    double partition_ms = 0.0;
    double equilibrium_solve_ms = 0.0;
    std::vector<double> evolve_ms;
    std::vector<double> bid_pass_ms;
    std::vector<double> train_ms;   ///< per round: all winners' local epochs
    double train_samples = 0.0;     ///< samples trained over all train_ms
    std::vector<double> eval_ms;
    std::vector<double> fedavg_ms;
    double fedavg_bytes = 0.0;      ///< client parameter bytes one FedAvg reads
    std::vector<double> checkpoint_ms;
    double checkpoint_bytes = 0.0;  ///< size of the run's latest checkpoint
};

class LayerReplay {
public:
    /// Runs the set-up replays (dataset, partition, equilibrium solve) at
    /// the sizes `spec` names; `shards` (copied) is the partition of the
    /// trial whose rounds `replay_round` replays.
    LayerReplay(const core::ExperimentSpec& spec, const std::vector<ml::ClientShard>& shards,
                SpanRecorder& spans, LayerSamples& samples);
    ~LayerReplay();
    LayerReplay(const LayerReplay&) = delete;
    LayerReplay& operator=(const LayerReplay&) = delete;

    /// `repeats` timed `PopulationStore::evolve` calls and as many fused
    /// bid passes over the `auction.shards` even ranges, at the workload's N.
    void replay_market(std::size_t repeats);

    /// Local training of the round's winners on their contracted samples
    /// (one model clone per worker, as the coordinator trains them),
    /// FedAvg of their parameters and evaluation on the eval subset.
    void replay_round(const fl::RoundMetrics& round, std::uint64_t round_id);

    /// Re-save the newest checkpoint in `run_dir` once per completed round,
    /// its tape cut to that round — the write each round of the run paid.
    void replay_checkpoints(const std::string& run_dir, const std::string& scratch_path,
                            std::uint64_t round_id_base);

private:
    const core::ExperimentSpec spec_;
    const std::vector<ml::ClientShard> shards_;
    SpanRecorder& spans_;
    LayerSamples& samples_;
    ml::Dataset train_;
    ml::Dataset test_;
    std::unique_ptr<auction::ScoringRule> scoring_;
    std::unique_ptr<auction::CostModel> cost_;
    std::unique_ptr<stats::Distribution> theta_;
    std::unique_ptr<auction::EquilibriumStrategy> strategy_;
    std::vector<std::unique_ptr<ml::Model>> workers_;
};

/// The model the trial trains for `spec`'s dataset and kind.
[[nodiscard]] ml::Model make_workload_model(const core::ExperimentSpec& spec,
                                            std::uint64_t seed);

} // namespace perfbench
