#include "fmore/core/realworld.hpp"

#include <sstream>
#include <stdexcept>
#include <tuple>

#include "checkpoint_hooks.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/async_coordinator.hpp"
#include "fmore/fl/policy.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/mec/streaming_selector.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::core {

namespace {

/// Every input of the testbed's equilibrium tabulation, hex-exact. Note
/// `data_cap` (the largest shard) is trial-dependent, so cross-trial hits
/// happen only when the partition landed on the same cap — unlike the
/// simulator the testbed key is not purely config-derived.
std::string equilibrium_cache_key(const RealWorldConfig& config, double data_cap) {
    std::ostringstream key;
    key << std::hexfloat << "testbed|alpha=" << config.alpha_cpu << ','
        << config.alpha_bandwidth << ',' << config.alpha_data
        << "|cpu_hi=" << config.cpu_hi << "|bandwidth_hi=" << config.bandwidth_hi
        << "|data_cap=" << data_cap << "|theta=" << config.theta_lo << ','
        << config.theta_hi << "|N=" << config.num_nodes << "|K=" << config.winners
        << "|win_model=" << static_cast<int>(config.win_model);
    return key.str();
}

} // namespace

RealWorldTrial::RealWorldTrial(const RealWorldConfig& config, std::size_t trial_index)
    : config_(config),
      trial_index_(trial_index),
      trial_seed_(config.seed + 7000003ULL * (trial_index + 1)) {
    stats::Rng rng(trial_seed_);

    // The testbed trains CIFAR-10 (Fig. 12); the proxy dataset mirrors it.
    stats::Rng data_rng = rng.split();
    const std::size_t total = config_.train_samples + config_.test_samples;
    ml::Dataset pool;
    if (config_.dataset == DatasetKind::hpnews) {
        pool = ml::make_synthetic_text(ml::hpnews_spec(total), data_rng);
    } else {
        // Harder than the simulator's CIFAR proxy: the real testbed trains
        // actual CIFAR-10, which stays data-hungry for all 20 rounds (the
        // paper's RandFL only reaches ~41%). The extra noise/overlap keeps
        // the proxy in that regime so per-round data volume — what FMore
        // buys — remains the binding constraint.
        ml::ImageDatasetSpec spec = ml::cifar10_spec(total);
        spec.noise = 0.85;
        spec.prototype_overlap = 0.35;
        pool = ml::make_synthetic_images(spec, data_rng);
    }
    std::tie(train_, test_) = ml::split_pool(std::move(pool), config_.train_samples);

    // Unlike the simulator, the testbed is NOT label-sharded: Section V.A
    // only describes non-IID splits for the simulator, while the testbed
    // "allocates data size over the range [2000, 10000]". Nodes therefore
    // hold IID subsets of heterogeneous SIZE — per-round data volume, which
    // FMore's scoring buys, is the binding resource (the paper's testbed
    // accuracy story), not label coverage.
    stats::Rng part_rng = rng.split();
    shards_ = ml::partition_iid(train_, config_.num_nodes, part_rng);
    ml::resize_shards(shards_, train_, config_.data_lo, config_.data_hi, part_rng);
    std::size_t max_shard = 1;
    for (const auto& shard : shards_) {
        max_shard = std::max(max_shard, shard.indices.size());
    }
    data_cap_ = static_cast<double>(max_shard);

    theta_dist_ = std::make_unique<stats::UniformDistribution>(config_.theta_lo,
                                                               config_.theta_hi);

    solved_ = EquilibriumCache::instance().get_or_solve(
        equilibrium_cache_key(config_, data_cap_), [this] {
            // Section V.A testbed scoring:
            // S = 0.4 q_cpu + 0.3 q_bw + 0.3 q_data - p with each dimension
            // min-max normalized over its advertised range.
            std::vector<stats::MinMaxNormalizer> norms;
            norms.emplace_back(0.0, config_.cpu_hi);
            norms.emplace_back(0.0, config_.bandwidth_hi);
            norms.emplace_back(0.0, data_cap_);
            auto scoring = std::make_unique<auction::AdditiveScoring>(
                std::vector<double>{config_.alpha_cpu, config_.alpha_bandwidth,
                                    config_.alpha_data},
                norms);

            // Costs are quoted per normalized unit; convert to raw-resource
            // prices. Each beta is kept below alpha_d / theta_hi so
            // providing every resource stays profitable for all types —
            // otherwise high-theta nodes would bid the data floor and train
            // on nothing.
            auto cost = std::make_unique<auction::AdditiveCost>(std::vector<double>{
                0.15 / config_.cpu_hi, 0.10 / config_.bandwidth_hi, 0.20 / data_cap_});
            auto theta = std::make_unique<stats::UniformDistribution>(config_.theta_lo,
                                                                      config_.theta_hi);

            auction::EquilibriumConfig eq;
            eq.num_bidders = config_.num_nodes;
            eq.num_winners = config_.winners;
            eq.win_model = config_.win_model;
            const auction::EquilibriumSolver solver(
                *scoring, *cost, *theta, {0.25, 1.0, 1.0},
                {config_.cpu_hi, config_.bandwidth_hi, data_cap_}, eq);
            auction::EquilibriumStrategy strategy = solver.solve();
            return std::make_shared<const SolvedEquilibrium>(
                std::move(scoring), std::move(cost), std::move(theta),
                std::move(strategy));
        });

    rebuild_population();
}

namespace {

RealWorldConfig validated_config(const ExperimentSpec& spec) {
    validate_or_throw(spec);
    return to_realworld_config(spec);
}

} // namespace

RealWorldTrial::RealWorldTrial(const ExperimentSpec& spec, std::size_t trial_index)
    : RealWorldTrial(validated_config(spec), trial_index) {}

std::vector<double> RealWorldTrial::bid_latency_table() const {
    mec::ClusterTimeConfig tc;
    tc.model_bytes = config_.model_bytes;
    tc.seconds_per_sample_core = config_.seconds_per_sample_core;
    tc.round_overhead_s = config_.round_overhead_s;
    tc.latency_spread = config_.latency_spread;
    tc.dropout_prob = config_.dropout_prob;
    // Same seed as run()'s wall-clock model, so a fresh generator here
    // reproduces the exact straggler factors without touching its stream.
    stats::Rng factor_rng(trial_seed_ ^ 0x57a991e2ULL);
    const mec::ClusterTimeModel time_model(*population_, tc, /*auction_round=*/true,
                                           factor_rng);
    std::vector<double> latencies(config_.num_nodes);
    for (std::size_t i = 0; i < latencies.size(); ++i)
        latencies[i] = time_model.latency_factor(i) * tc.auction_overhead_s;
    return latencies;
}

void RealWorldTrial::rebuild_population() {
    stats::Rng pop_rng(trial_seed_ ^ 0xabcdef12345ULL);
    mec::PopulationSpec spec;
    spec.cpu_lo = config_.cpu_lo;
    spec.cpu_hi = config_.cpu_hi;
    spec.bandwidth_lo = config_.bandwidth_lo;
    spec.bandwidth_hi = config_.bandwidth_hi;
    spec.dynamics.resource_jitter = config_.resource_jitter;
    spec.dynamics.theta_jitter = config_.theta_jitter;
    population_ = std::make_unique<mec::MecPopulation>(shards_, train_.num_classes,
                                                       *theta_dist_, spec, pop_rng);
}

ml::Model RealWorldTrial::make_model(std::uint64_t seed) const {
    if (config_.dataset == DatasetKind::hpnews) {
        const ml::TextDatasetSpec text = ml::hpnews_spec(1);
        return ml::make_lstm_classifier(
            ml::TextSpec{text.vocab, text.seq_len, train_.num_classes}, seed);
    }
    return ml::make_cnn_deep(ml::ImageSpec{3, 14, 14, train_.num_classes}, seed);
}

fl::RunResult RealWorldTrial::run(const std::string& policy_name) {
    return run_resumable(policy_name, nullptr);
}

fl::RunResult RealWorldTrial::run_resumable(const std::string& policy_name,
                                            const RunCheckpoint* resume_from) {
    rebuild_population();
    ml::Model model = make_model(trial_seed_ ^ 0x5151ULL);

    fl::CoordinatorConfig cc;
    cc.rounds = config_.rounds;
    cc.winners_per_round = config_.winners;
    cc.local_epochs = config_.local_epochs;
    cc.batch_size = config_.batch_size;
    cc.learning_rate = config_.learning_rate;
    cc.eval_cap = config_.eval_cap;

    fl::PolicyContext context;
    context.num_clients = config_.num_nodes;
    context.winners = config_.winners;
    context.trial_seed = trial_seed_;
    context.make_auction_selector =
        [this](const fl::PolicyContext& ctx) -> std::unique_ptr<fl::ClientSelector> {
        auction::WinnerDeterminationConfig wd;
        wd.mechanism = config_.mechanism;
        wd.num_winners = config_.winners;
        wd.payment_rule = config_.payment_rule;
        wd.psi = ctx.probabilistic_acceptance ? config_.psi : 1.0;
        if (ctx.probabilistic_acceptance) wd.psi_per_node = config_.psi_per_node;
        wd.budget = config_.budget;
        wd.full_ranking = config_.full_scoreboard;
        wd.latency_discount = config_.latency_discount;
        if (wd.latency_discount > 0.0 || config_.mechanism == "latency_discounted")
            wd.expected_latency_s = bid_latency_table();
        if (config_.streaming) {
            // Streaming market: bids trickle in on the virtual clock and the
            // round closes on deadline/quorum; the closed set ranks exactly
            // as the batch selector would (streaming_equivalence_test).
            mec::StreamingRoundConfig sc;
            sc.deadline_s = config_.round_deadline_s;
            sc.quorum = config_.min_updates;
            sc.process = config_.arrival_process;
            sc.arrival_rate_hz = config_.arrival_rate_hz;
            sc.bid_latencies_s = bid_latency_table();
            // Sharded streaming closes through the head-merge composition;
            // winners stay bit-identical to the monolithic close.
            sc.shards = config_.market_shards;
            sc.adaptive_quorum = config_.adaptive_quorum;
            return std::make_unique<mec::StreamingAuctionSelector>(
                *population_, *solved_->scoring, solved_->strategy, wd,
                mec::QualityLayout{mec::ResourceDim::cpu, mec::ResourceDim::bandwidth,
                                   mec::ResourceDim::data_size},
                /*data_dimension=*/2, std::move(sc));
        }
        if (config_.market_shards > 1) {
            // Sharded market: same winners, payments and metrics as the
            // monolithic selector by construction (shard_equivalence_test).
            auto sharded = std::make_unique<mec::ShardedAuctionSelector>(
                *population_, *solved_->scoring, solved_->strategy, wd,
                mec::QualityLayout{mec::ResourceDim::cpu, mec::ResourceDim::bandwidth,
                                   mec::ResourceDim::data_size},
                /*data_dimension=*/2, config_.market_shards);
            sharded->set_shard_timeout(config_.shard_timeout_s);
            if (!config_.fault_plan.empty()) {
                // Coordinator-only plans (ckill/ckill_mid) leave the shard
                // workers alone, so the selector runs exactly as without a
                // plan — what the crash harness's uninterrupted twin needs.
                const util::FaultInjector faults =
                    util::FaultInjector::from_spec(config_.fault_plan);
                if (faults.has_shard_faults()) sharded->set_fault_injector(faults);
            }
            if (config_.shard_quorum > 0)
                sharded->set_min_live_shards(config_.shard_quorum);
            return sharded;
        }
        return std::make_unique<mec::AuctionSelector>(
            *population_, *solved_->scoring, solved_->strategy, wd,
            mec::cpu_bandwidth_data_extractor(), /*data_dimension=*/2);
    };

    const std::unique_ptr<fl::SelectionPolicy> policy = fl::make_policy(policy_name);
    const std::unique_ptr<fl::ClientSelector> selector = policy->make_selector(context);

    // The wall-clock model: auction-selected rounds ship only the purchased
    // data volume; baseline rounds ship whole shards. Straggler factors are
    // drawn from a fixed trial stream so every policy faces the same slow
    // nodes.
    mec::ClusterTimeConfig tc;
    tc.model_bytes = config_.model_bytes;
    tc.seconds_per_sample_core = config_.seconds_per_sample_core;
    tc.round_overhead_s = config_.round_overhead_s;
    tc.latency_spread = config_.latency_spread;
    tc.dropout_prob = config_.dropout_prob;
    const bool is_auction = selector->contracts_data_volume();
    stats::Rng factor_rng(trial_seed_ ^ 0x57a991e2ULL);
    const mec::ClusterTimeModel time_model(*population_, tc, is_auction, factor_rng);

    stats::Rng run_rng(trial_seed_ ^ 0xf00dULL);

    // Durable-run harness: restore checkpointed state (the selector, time
    // model and model weights were just rebuilt exactly as a fresh run
    // builds them, so restored state + identical construction = identical
    // draws), then arrange checkpoint writes on the configured cadence.
    fl::RunControl control;
    if (resume_from) {
        population_->restore(resume_from->population);
        selector->restore_checkpoint(detail::make_selector_checkpoint(*resume_from));
        detail::restore_rng(run_rng, resume_from->rng_state);
        control = detail::make_resume_control(*resume_from);
    }
    detail::CheckpointWriter writer;
    // One-shot coordinator-kill: a resumed run never re-arms it (see the
    // twin comment in simulation.cpp — recovery must converge).
    if (!resume_from && !config_.fault_plan.empty()) {
        const util::FaultInjector faults =
            util::FaultInjector::from_spec(config_.fault_plan);
        writer.ckill_round = faults.coordinator_kill_round();
        writer.ckill_mid_round = faults.coordinator_kill_mid_write_round();
    }
    const bool durable = config_.checkpoint_every > 0 || writer.ckill_round > 0
                         || writer.ckill_mid_round > 0;
    if (durable) {
        writer.every = config_.checkpoint_every;
        writer.dir = checkpoint_run_dir(config_.checkpoint_dir, policy_name,
                                        trial_index_);
        writer.keep = config_.checkpoint_keep;
        writer.total_rounds = config_.rounds;
        writer.spec_text = to_text(from_realworld_config(config_));
        writer.policy = policy_name;
        writer.trial_index = trial_index_;
        writer.run_rng = &run_rng;
        writer.population = population_.get();
        writer.selector = selector.get();
        control.on_round = std::cref(writer);
    }
    const fl::RunControl* control_ptr = (resume_from || durable) ? &control : nullptr;

    fl::RunResult result;
    if (config_.round_mode == fl::RoundMode::sync) {
        fl::Coordinator coordinator(model, train_, test_, shards_, cc);
        result = coordinator.run(*selector, run_rng, time_model.as_time_model(),
                                 control_ptr);
    } else {
        fl::AsyncCoordinatorConfig ac;
        ac.mode = config_.round_mode;
        ac.min_updates = config_.min_updates;
        // Deadlines are a semi_sync concept; the spec layer keeps the knob
        // mode-agnostic (sweepable), the strict engine API does not.
        ac.round_deadline_s =
            config_.round_mode == fl::RoundMode::semi_sync ? config_.round_deadline_s
                                                           : 0.0;
        ac.staleness_alpha = config_.staleness_alpha;
        ac.max_staleness = config_.max_staleness;
        ac.round_overhead_s = config_.round_overhead_s;
        ac.auction_overhead_s = is_auction ? tc.auction_overhead_s : 0.0;
        fl::AsyncCoordinator async_coordinator(model, train_, test_, shards_, cc, ac);
        result = async_coordinator.run_async(*selector, run_rng,
                                             time_model.as_client_time_model(),
                                             control_ptr);
    }
    if (!result.rounds.empty()
        && !result.rounds.back().selection.all_scores.empty()) {
        last_all_scores_ = result.rounds.back().selection.all_scores;
    }
    return result;
}

fl::RunResult RealWorldTrial::run(Strategy strategy) {
    return run(to_policy_name(strategy));
}

} // namespace fmore::core
