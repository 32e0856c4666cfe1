#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "fmore/auction/bid_frame.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/fl/fedavg.hpp"
#include "fmore/mec/auction_selector.hpp"
#include "fmore/mec/blacklist.hpp"
#include "fmore/mec/population_store.hpp"
#include "fmore/ml/model_zoo.hpp"
#include "fmore/ml/synthetic.hpp"
#include "fmore/stats/normalizer.hpp"
#include "fmore/util/thread_pool.hpp"

namespace perfbench {

namespace {

bool is_testbed(const core::ExperimentSpec& spec) {
    return spec.kind == core::ExperimentKind::testbed;
}

ml::ImageDatasetSpec image_spec(const core::ExperimentSpec& spec, std::size_t samples) {
    if (is_testbed(spec)) {
        // The testbed's harder CIFAR-10 variant (see RealWorldTrial).
        ml::ImageDatasetSpec image = ml::cifar10_spec(samples);
        image.noise = 0.85;
        image.prototype_overlap = 0.35;
        return image;
    }
    switch (spec.training.dataset) {
        case core::DatasetKind::mnist_o: return ml::mnist_o_spec(samples);
        case core::DatasetKind::mnist_f: return ml::mnist_f_spec(samples);
        case core::DatasetKind::cifar10: return ml::cifar10_spec(samples);
        case core::DatasetKind::hpnews: break;
    }
    throw std::invalid_argument("the benchmark replays image workloads only");
}

/// Rows [lo, hi) of `pool` as a dataset of their own.
ml::Dataset slice(const ml::Dataset& pool, std::size_t lo, std::size_t hi) {
    const std::size_t vol = pool.sample_volume();
    ml::Dataset out;
    out.sample_shape = pool.sample_shape;
    out.num_classes = pool.num_classes;
    out.features.assign(pool.features.begin() + static_cast<std::ptrdiff_t>(lo * vol),
                        pool.features.begin() + static_cast<std::ptrdiff_t>(hi * vol));
    out.labels.assign(pool.labels.begin() + static_cast<std::ptrdiff_t>(lo),
                      pool.labels.begin() + static_cast<std::ptrdiff_t>(hi));
    return out;
}

double ms_since(Clock::time_point start) { return 1e3 * seconds_between(start, Clock::now()); }

} // namespace

ml::Model make_workload_model(const core::ExperimentSpec& spec, std::uint64_t seed) {
    if (!is_testbed(spec) && (spec.training.dataset == core::DatasetKind::mnist_o
                              || spec.training.dataset == core::DatasetKind::mnist_f))
        return ml::make_cnn(ml::ImageSpec{1, 12, 12, 10}, seed);
    if (spec.training.dataset == core::DatasetKind::hpnews)
        throw std::invalid_argument("the benchmark replays image workloads only");
    return ml::make_cnn_deep(ml::ImageSpec{3, 14, 14, 10}, seed);
}

LayerReplay::LayerReplay(const core::ExperimentSpec& spec,
                         const std::vector<ml::ClientShard>& shards, SpanRecorder& spans,
                         LayerSamples& samples)
    : spec_(spec), shards_(shards), spans_(spans), samples_(samples) {
    const std::int64_t root = spans_.open("setup_replay", -1, 0);
    stats::Rng rng(spec.seed ^ 0xbe7c4ULL);
    const std::size_t train_n = spec.training.train_samples;
    const std::size_t total = train_n + spec.training.test_samples;

    std::int64_t span = spans_.open("ml.dataset", root, 0);
    Clock::time_point start = Clock::now();
    {
        const ml::Dataset pool = ml::make_synthetic_images(image_spec(spec, total), rng);
        train_ = slice(pool, 0, train_n);
        test_ = slice(pool, train_n, total);
    }
    samples_.dataset_ms = ms_since(start);
    spans_.close(span);

    span = spans_.open("ml.partition", root, 0);
    start = Clock::now();
    {
        const auto& pop = spec.population;
        std::vector<ml::ClientShard> parts =
            is_testbed(spec)
                ? ml::partition_iid(train_, pop.num_nodes, rng)
                : ml::partition_non_iid_variable(train_, pop.num_nodes, pop.shards_lo,
                                                 pop.shards_hi, rng);
        ml::resize_shards(parts, train_, pop.data_lo, pop.data_hi, rng);
    }
    samples_.partition_ms = ms_since(start);
    spans_.close(span);

    // The trials' own scoring, cost and solver bounds (SimulationTrial and
    // RealWorldTrial build the same objects before their cached solve).
    const auto& pop = spec.population;
    const auto& auc = spec.auction;
    theta_ = std::make_unique<stats::UniformDistribution>(pop.theta_lo, pop.theta_hi);
    auction::EquilibriumConfig eq;
    eq.num_bidders = pop.num_nodes;
    eq.num_winners = auc.winners;
    eq.win_model = auc.win_model;
    auction::QualityVector q_lo;
    auction::QualityVector q_hi;
    if (is_testbed(spec)) {
        double data_cap = 1.0;
        for (const auto& shard : shards_)
            data_cap = std::max(data_cap, static_cast<double>(shard.indices.size()));
        std::vector<stats::MinMaxNormalizer> norms{{0.0, pop.cpu_hi},
                                                   {0.0, pop.bandwidth_hi},
                                                   {0.0, data_cap}};
        scoring_ = std::make_unique<auction::AdditiveScoring>(
            std::vector<double>{auc.alpha_cpu, auc.alpha_bandwidth, auc.alpha_data}, norms);
        cost_ = std::make_unique<auction::AdditiveCost>(std::vector<double>{
            0.15 / pop.cpu_hi, 0.10 / pop.bandwidth_hi, 0.20 / data_cap});
        q_lo = {0.25, 1.0, 1.0};
        q_hi = {pop.cpu_hi, pop.bandwidth_hi, data_cap};
    } else {
        const auto data_hi = static_cast<double>(pop.data_hi);
        std::vector<stats::MinMaxNormalizer> norms{{0.0, data_hi}, {0.0, 1.0}};
        scoring_ = std::make_unique<auction::ScaledProductScoring>(auc.alpha, 2, norms);
        cost_ = std::make_unique<auction::AdditiveCost>(
            std::vector<double>{auc.beta_data / data_hi, auc.beta_category});
        q_lo = {1.0, 0.05};
        q_hi = {data_hi, 1.0};
    }
    span = spans_.open("auction.equilibrium_solve", root, 0);
    start = Clock::now();
    strategy_ = std::make_unique<auction::EquilibriumStrategy>(
        auction::EquilibriumSolver(*scoring_, *cost_, *theta_, q_lo, q_hi, eq).solve());
    samples_.equilibrium_solve_ms = ms_since(start);
    spans_.close(span);
    spans_.close(root);
}

LayerReplay::~LayerReplay() = default;

void LayerReplay::replay_market(std::size_t repeats) {
    const auto& pop = spec_.population;
    mec::PopulationSpec pspec;
    if (is_testbed(spec_)) {
        pspec.cpu_lo = pop.cpu_lo;
        pspec.cpu_hi = pop.cpu_hi;
        pspec.bandwidth_lo = pop.bandwidth_lo;
        pspec.bandwidth_hi = pop.bandwidth_hi;
    }
    pspec.dynamics.resource_jitter = pop.resource_jitter;
    pspec.dynamics.theta_jitter = pop.theta_jitter;
    stats::Rng rng(spec_.seed ^ 0x3a7e1ULL);
    mec::PopulationStore store(shards_, train_.num_classes, *theta_, pspec, rng);

    const mec::QualityLayout layout =
        is_testbed(spec_)
            ? mec::QualityLayout{mec::ResourceDim::cpu, mec::ResourceDim::bandwidth,
                                 mec::ResourceDim::data_size}
            : mec::QualityLayout{mec::ResourceDim::data_size,
                                 mec::ResourceDim::category_proportion};
    std::vector<std::size_t> starts{0};
    for (std::size_t cut :
         mec::PopulationStore::even_boundaries(store.size(), spec_.auction.shards))
        starts.push_back(cut);
    starts.push_back(store.size());

    const mec::Blacklist blacklist;
    auction::BidFrame frame;
    std::vector<const double*> columns;
    const std::int64_t root = spans_.open("market_replay", -1, 0);
    for (std::size_t rep = 0; rep < repeats; ++rep) {
        std::int64_t span = spans_.open("mec.evolve", root, 0);
        Clock::time_point start = Clock::now();
        store.evolve(rng);
        samples_.evolve_ms.push_back(ms_since(start));
        spans_.close(span);

        span = spans_.open("mec.bid_pass", root, 0);
        start = Clock::now();
        frame.reset(store.size(), layout.size());
        for (std::size_t s = 0; s + 1 < starts.size(); ++s)
            mec::collect_bid_rows(store, starts[s], starts[s + 1], layout, *strategy_,
                                  *scoring_, /*strategy_scores_broadcast_rule=*/true,
                                  auction::PaymentMethod::integral, blacklist, frame,
                                  starts[s], columns, /*parallel=*/true);
        samples_.bid_pass_ms.push_back(ms_since(start));
        spans_.close(span);
    }
    spans_.close(root);
}

void LayerReplay::replay_round(const fl::RoundMetrics& round, std::uint64_t round_id) {
    const auto& tr = spec_.training;
    const std::vector<fl::SelectedClient>& picked = round.selection.selected;
    std::vector<std::vector<std::size_t>> local(picked.size());
    double samples = 0.0;
    for (std::size_t i = 0; i < picked.size(); ++i) {
        const auto& idx = shards_.at(picked[i].client).indices;
        const std::size_t n = std::min(
            idx.size(), std::max<std::size_t>(1, picked[i].train_samples.value_or(idx.size())));
        local[i].assign(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(n));
        samples += static_cast<double>(n * tr.local_epochs);
    }
    const std::size_t workers =
        std::max<std::size_t>(1, std::min(util::thread_budget(), picked.size()));
    while (workers_.size() < workers)
        workers_.push_back(std::make_unique<ml::Model>(make_workload_model(spec_, 0x5151)));
    const std::vector<float> global = workers_[0]->get_parameters();

    const std::int64_t root = spans_.open("replay", -1, round_id);
    std::int64_t span = spans_.open("ml.train", root, round_id);
    Clock::time_point start = Clock::now();
    std::vector<std::vector<float>> params(picked.size());
    util::ThreadPool::shared().parallel_for(
        picked.size(), workers - 1, [&](std::size_t slot, std::size_t i) {
            ml::Model& model = *workers_[slot];
            model.set_parameters(global);
            model.reseed(round_id * 1000 + i);
            for (std::size_t e = 0; e < tr.local_epochs; ++e)
                (void)model.train_epoch(train_, local[i], tr.batch_size, tr.learning_rate);
            params[i] = model.get_parameters();
        });
    samples_.train_ms.push_back(ms_since(start));
    samples_.train_samples += samples;
    spans_.close(span);

    std::vector<double> weights;
    double bytes = 0.0;
    for (std::size_t i = 0; i < picked.size(); ++i) {
        weights.push_back(static_cast<double>(std::max<std::size_t>(1, local[i].size())));
        bytes += static_cast<double>(params[i].size() * sizeof(float));
    }
    span = spans_.open("fl.fedavg", root, round_id);
    start = Clock::now();
    const std::vector<float> averaged = fl::federated_average(params, weights);
    samples_.fedavg_ms.push_back(ms_since(start));
    samples_.fedavg_bytes = bytes;
    spans_.close(span);

    // Evaluation: the eval subset in fixed kEvalBatch batches, chunked over
    // the same workers the coordinator uses.
    std::vector<std::size_t> eval_idx(std::min(tr.eval_cap == 0 ? test_.size() : tr.eval_cap,
                                               test_.size()));
    for (std::size_t i = 0; i < eval_idx.size(); ++i) eval_idx[i] = i;
    const std::size_t batches = (eval_idx.size() + ml::kEvalBatch - 1) / ml::kEvalBatch;
    const std::size_t chunks = std::max<std::size_t>(1, std::min(workers, batches));
    const std::size_t per_chunk = (batches + chunks - 1) / chunks;
    std::vector<ml::EvalBatch> records(batches);
    span = spans_.open("ml.eval", root, round_id);
    start = Clock::now();
    util::ThreadPool::shared().parallel_for(
        chunks, chunks - 1, [&](std::size_t slot, std::size_t c) {
            const std::size_t lo = c * per_chunk;
            const std::size_t hi = std::min(batches, lo + per_chunk);
            if (lo >= hi) return;
            workers_[slot]->set_parameters(averaged);
            workers_[slot]->evaluate_batches(test_, eval_idx, ml::kEvalBatch, lo, hi,
                                             records.data());
        });
    (void)ml::reduce_eval_batches(records);
    samples_.eval_ms.push_back(ms_since(start));
    spans_.close(span);
    spans_.close(root);
}

void LayerReplay::replay_checkpoints(const std::string& run_dir,
                                     const std::string& scratch_path,
                                     std::uint64_t round_id_base) {
    std::optional<core::RunCheckpoint> ckpt = core::find_latest_valid(run_dir);
    if (!ckpt) throw std::runtime_error("no valid checkpoint in " + run_dir);
    samples_.checkpoint_bytes =
        static_cast<double>(std::filesystem::file_size(
            run_dir + "/" + core::checkpoint_filename(ckpt->completed_rounds)));
    samples_.checkpoint_ms.assign(ckpt->completed_rounds, 0.0);
    for (std::size_t r = ckpt->completed_rounds; r >= 1; --r) {
        ckpt->rounds.resize(r);
        ckpt->completed_rounds = r;
        const std::int64_t span =
            spans_.open("core.checkpoint_write", -1, round_id_base + r);
        const Clock::time_point start = Clock::now();
        core::save_checkpoint(*ckpt, scratch_path);
        samples_.checkpoint_ms[r - 1] = ms_since(start);
        spans_.close(span);
    }
    std::filesystem::remove(scratch_path);
}

} // namespace perfbench
