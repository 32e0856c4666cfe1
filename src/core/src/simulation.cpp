#include "fmore/core/simulation.hpp"

#include <sstream>
#include <stdexcept>

#include "checkpoint_hooks.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/policy.hpp"
#include "fmore/fl/selection.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/sharded_selector.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/partition.hpp"
#include "fmore/stats/normalizer.hpp"

namespace fmore::core {

namespace {

/// Split one generated pool into train/test so both share prototypes.
std::pair<ml::Dataset, ml::Dataset> make_dataset(DatasetKind kind, std::size_t train_n,
                                                 std::size_t test_n, stats::Rng& rng) {
    const std::size_t total = train_n + test_n;
    ml::Dataset pool;
    switch (kind) {
        case DatasetKind::mnist_o:
            pool = ml::make_synthetic_images(ml::mnist_o_spec(total), rng);
            break;
        case DatasetKind::mnist_f:
            pool = ml::make_synthetic_images(ml::mnist_f_spec(total), rng);
            break;
        case DatasetKind::cifar10:
            pool = ml::make_synthetic_images(ml::cifar10_spec(total), rng);
            break;
        case DatasetKind::hpnews:
            pool = ml::make_synthetic_text(ml::hpnews_spec(total), rng);
            break;
    }
    return ml::split_pool(std::move(pool), train_n);
}

/// Every input of the simulator's equilibrium tabulation, hex-exact.
std::string equilibrium_cache_key(const SimulationConfig& config) {
    std::ostringstream key;
    key << std::hexfloat << "sim|alpha=" << config.alpha
        << "|beta_data=" << config.beta_data << "|beta_category=" << config.beta_category
        << "|data_hi=" << static_cast<double>(config.data_hi)
        << "|theta=" << config.theta_lo << ',' << config.theta_hi
        << "|N=" << config.num_nodes << "|K=" << config.winners
        << "|win_model=" << static_cast<int>(config.win_model);
    return key.str();
}

} // namespace

SimulationConfig default_simulation(DatasetKind dataset) {
    SimulationConfig config;
    config.dataset = dataset;
    if (dataset == DatasetKind::hpnews) {
        // Plain SGD on the LSTM needs a bigger step and more local work per
        // round to land in the paper's Fig. 7 accuracy band.
        config.learning_rate = 0.40;
        config.local_epochs = 3;
    }
    return config;
}

std::string to_string(DatasetKind kind) {
    switch (kind) {
        case DatasetKind::mnist_o: return "MNIST-O";
        case DatasetKind::mnist_f: return "MNIST-F";
        case DatasetKind::cifar10: return "CIFAR-10";
        case DatasetKind::hpnews: return "HPNews";
    }
    return "?";
}

std::string to_string(Strategy strategy) {
    switch (strategy) {
        case Strategy::fmore: return "FMore";
        case Strategy::psi_fmore: return "psi-FMore";
        case Strategy::randfl: return "RandFL";
        case Strategy::fixfl: return "FixFL";
    }
    return "?";
}

SimulationTrial::SimulationTrial(const SimulationConfig& config, std::size_t trial_index)
    : config_(config),
      trial_index_(trial_index),
      trial_seed_(config.seed + 1000003ULL * (trial_index + 1)) {
    stats::Rng rng(trial_seed_);

    stats::Rng data_rng = rng.split();
    auto [train, test] = make_dataset(config_.dataset, config_.train_samples,
                                      config_.test_samples, data_rng);
    train_ = std::move(train);
    test_ = std::move(test);

    stats::Rng part_rng = rng.split();
    shards_ = ml::partition_non_iid_variable(train_, config_.num_nodes, config_.shards_lo,
                                             config_.shards_hi, part_rng);
    ml::resize_shards(shards_, train_, config_.data_lo, config_.data_hi, part_rng);

    theta_dist_ = std::make_unique<stats::UniformDistribution>(config_.theta_lo,
                                                               config_.theta_hi);

    // The tabulated strategy depends only on the config (never the trial
    // index), so a multi-trial sweep solves it once and shares the bundle.
    solved_ = EquilibriumCache::instance().get_or_solve(
        equilibrium_cache_key(config_), [this] {
            // Scoring of Section V.A: S(q1, q2, p) = alpha * q1 * q2 - p
            // with the data dimension min-max normalized over the
            // advertised range.
            const auto data_hi = static_cast<double>(config_.data_hi);
            std::vector<stats::MinMaxNormalizer> norms;
            norms.emplace_back(0.0, data_hi);
            norms.emplace_back(0.0, 1.0);
            auto scoring = std::make_unique<auction::ScaledProductScoring>(config_.alpha,
                                                                           2, norms);
            // Additive cost over the same units: beta_data is quoted per
            // normalized data unit, so divide by the range to price raw
            // sample counts.
            auto cost = std::make_unique<auction::AdditiveCost>(std::vector<double>{
                config_.beta_data / data_hi, config_.beta_category});
            auto theta = std::make_unique<stats::UniformDistribution>(config_.theta_lo,
                                                                      config_.theta_hi);

            auction::EquilibriumConfig eq;
            eq.num_bidders = config_.num_nodes;
            eq.num_winners = config_.winners;
            eq.win_model = config_.win_model;
            const auction::EquilibriumSolver solver(*scoring, *cost, *theta, {1.0, 0.05},
                                                    {data_hi, 1.0}, eq);
            auction::EquilibriumStrategy strategy = solver.solve();
            return std::make_shared<const SolvedEquilibrium>(
                std::move(scoring), std::move(cost), std::move(theta),
                std::move(strategy));
        });

    rebuild_population();
}

namespace {

SimulationConfig validated_config(const ExperimentSpec& spec) {
    validate_or_throw(spec);
    return to_simulation_config(spec);
}

} // namespace

SimulationTrial::SimulationTrial(const ExperimentSpec& spec, std::size_t trial_index)
    : SimulationTrial(validated_config(spec), trial_index) {}

void SimulationTrial::rebuild_population() {
    stats::Rng pop_rng(trial_seed_ ^ 0xabcdef12345ULL);
    mec::PopulationSpec spec;
    spec.dynamics.resource_jitter = config_.resource_jitter;
    spec.dynamics.theta_jitter = config_.theta_jitter;
    population_ = std::make_unique<mec::MecPopulation>(shards_, train_.num_classes,
                                                       *theta_dist_, spec, pop_rng);
}

ml::Model SimulationTrial::make_model(std::uint64_t seed) const {
    switch (config_.dataset) {
        case DatasetKind::mnist_o:
        case DatasetKind::mnist_f: {
            ml::ImageSpec spec{1, 12, 12, train_.num_classes};
            return ml::make_cnn(spec, seed);
        }
        case DatasetKind::cifar10: {
            ml::ImageSpec spec{3, 14, 14, train_.num_classes};
            return ml::make_cnn_deep(spec, seed);
        }
        case DatasetKind::hpnews: {
            const ml::TextDatasetSpec text = ml::hpnews_spec(1);
            ml::TextSpec spec{text.vocab, text.seq_len, train_.num_classes};
            return ml::make_lstm_classifier(spec, seed);
        }
    }
    throw std::logic_error("SimulationTrial: unknown dataset");
}

fl::RunResult SimulationTrial::run(const std::string& policy_name) {
    return run_resumable(policy_name, nullptr);
}

fl::RunResult SimulationTrial::run_resumable(const std::string& policy_name,
                                             const RunCheckpoint* resume_from) {
    // Fresh population state per policy so each sees the same dynamics.
    rebuild_population();
    ml::Model model = make_model(trial_seed_ ^ 0x5151ULL);

    fl::CoordinatorConfig cc;
    cc.rounds = config_.rounds;
    cc.winners_per_round = config_.winners;
    cc.local_epochs = config_.local_epochs;
    cc.batch_size = config_.batch_size;
    cc.learning_rate = config_.learning_rate;
    cc.eval_cap = config_.eval_cap;
    fl::Coordinator coordinator(model, train_, test_, shards_, cc);

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
        // No wall clock in the simulator: the latency table stays empty, so
        // the discount subtracts 0 and first/second pricing is unchanged.
        wd.latency_discount = config_.latency_discount;
        if (config_.market_shards > 1) {
            // Sharded market: same winners, payments and metrics as the
            // monolithic selector by construction (shard_equivalence_test).
            auto sharded = std::make_unique<mec::ShardedAuctionSelector>(
                *population_, *solved_->scoring, solved_->strategy, wd,
                mec::QualityLayout{mec::ResourceDim::data_size,
                                   mec::ResourceDim::category_proportion},
                /*data_dimension=*/0, config_.market_shards);
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
            mec::data_category_extractor(), /*data_dimension=*/0);
    };

    const std::unique_ptr<fl::SelectionPolicy> policy = fl::make_policy(policy_name);
    const std::unique_ptr<fl::ClientSelector> selector = policy->make_selector(context);

    stats::Rng run_rng(trial_seed_ ^ 0xf00dULL);

    // Durable-run harness: restore checkpointed state (the selector and
    // model were just rebuilt exactly as a fresh run builds them, so
    // restored state + identical construction = identical draws), then
    // arrange checkpoint writes on the configured cadence.
    fl::RunControl control;
    if (resume_from) {
        population_->restore(resume_from->population);
        selector->restore_checkpoint(detail::make_selector_checkpoint(*resume_from));
        detail::restore_rng(run_rng, resume_from->rng_state);
        control = detail::make_resume_control(*resume_from);
    }
    detail::CheckpointWriter writer;
    // The coordinator-kill fault is one-shot: only a FRESH run arms it.
    // A resumed run may re-execute the kill round (mid-write kills tear
    // the checkpoint before it lands), so re-arming would crash-loop the
    // recovery instead of converging on the uninterrupted twin's tape.
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
        writer.spec_text = to_text(from_simulation_config(config_));
        writer.policy = policy_name;
        writer.trial_index = trial_index_;
        writer.run_rng = &run_rng;
        writer.population = population_.get();
        writer.selector = selector.get();
        control.on_round = std::cref(writer);
    }
    const fl::RunControl* control_ptr = (resume_from || durable) ? &control : nullptr;

    fl::RunResult result = coordinator.run(*selector, run_rng, nullptr, control_ptr);
    if (!result.rounds.empty()
        && !result.rounds.back().selection.all_scores.empty()) {
        last_all_scores_ = result.rounds.back().selection.all_scores;
    }
    return result;
}

fl::RunResult SimulationTrial::run(Strategy strategy) {
    return run(to_policy_name(strategy));
}

} // namespace fmore::core
