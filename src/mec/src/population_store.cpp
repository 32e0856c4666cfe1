#include "fmore/mec/population_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "fmore/util/thread_pool.hpp"

namespace fmore::mec {

namespace {

/// Nodes per parallel task: big enough that chunk dispatch is noise,
/// small enough that a 100k-node population still spreads over workers.
constexpr std::size_t kEvolveChunk = 4096;

} // namespace

void PopulationStore::init_resources(std::size_t i, const PopulationSpec& spec,
                                     double data_cap, double category,
                                     const stats::Distribution& theta_dist,
                                     stats::Rng& rng) {
    data_cap_[i] = data_cap;
    category_cap_[i] = category;
    bandwidth_cap_[i] = rng.uniform(spec.bandwidth_lo, spec.bandwidth_hi);
    cpu_cap_[i] = rng.uniform(spec.cpu_lo, spec.cpu_hi);

    // Nodes start somewhere inside their envelope, not pinned at it (same
    // draws, in the same order, as the historical AoS constructor).
    bandwidth_[i] = bandwidth_cap_[i] * rng.uniform(0.6, 1.0);
    cpu_[i] = cpu_cap_[i] * rng.uniform(0.6, 1.0);
    data_size_[i] = data_cap_[i] * rng.uniform(0.8, 1.0);
    category_[i] = category;
    theta_[i] = theta_dist.sample(rng);
}

PopulationStore::PopulationStore(const std::vector<ml::ClientShard>& shards,
                                 std::size_t num_classes,
                                 const stats::Distribution& theta_dist,
                                 const PopulationSpec& spec, stats::Rng& rng)
    : dynamics_(spec.dynamics),
      theta_lo_(theta_dist.support_lo()),
      theta_hi_(theta_dist.support_hi()) {
    if (shards.empty()) throw std::invalid_argument("PopulationStore: no shards");
    const std::size_t n = shards.size();
    theta_.resize(n);
    data_size_.resize(n);
    category_.resize(n);
    bandwidth_.resize(n);
    cpu_.resize(n);
    data_cap_.resize(n);
    category_cap_.resize(n);
    bandwidth_cap_.resize(n);
    cpu_cap_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        init_resources(i, spec, static_cast<double>(shards[i].indices.size()),
                       shards[i].category_proportion(num_classes), theta_dist, rng);
    }
}

PopulationStore::PopulationStore(std::size_t num_nodes, const SyntheticDataSpec& data,
                                 const stats::Distribution& theta_dist,
                                 const PopulationSpec& spec, stats::Rng& rng)
    : dynamics_(spec.dynamics),
      theta_lo_(theta_dist.support_lo()),
      theta_hi_(theta_dist.support_hi()) {
    if (num_nodes == 0)
        throw std::invalid_argument("PopulationStore: num_nodes must be >= 1");
    if (!(data.data_lo <= data.data_hi) || !(data.category_lo <= data.category_hi))
        throw std::invalid_argument("PopulationStore: bad synthetic data ranges");
    theta_.resize(num_nodes);
    data_size_.resize(num_nodes);
    category_.resize(num_nodes);
    bandwidth_.resize(num_nodes);
    cpu_.resize(num_nodes);
    data_cap_.resize(num_nodes);
    category_cap_.resize(num_nodes);
    bandwidth_cap_.resize(num_nodes);
    cpu_cap_.resize(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i) {
        const double data_cap = rng.uniform(data.data_lo, data.data_hi);
        const double category = rng.uniform(data.category_lo, data.category_hi);
        init_resources(i, spec, data_cap, category, theta_dist, rng);
    }
}

const std::vector<double>& PopulationStore::column(ResourceDim dim) const {
    switch (dim) {
        case ResourceDim::data_size: return data_size_;
        case ResourceDim::category_proportion: return category_;
        case ResourceDim::bandwidth: return bandwidth_;
        case ResourceDim::cpu: return cpu_;
    }
    throw std::logic_error("PopulationStore: unknown ResourceDim");
}

ResourceState PopulationStore::resources(std::size_t i) const {
    ResourceState r;
    r.data_size = data_size_[i];
    r.category_proportion = category_[i];
    r.bandwidth_mbps = bandwidth_[i];
    r.cpu_cores = cpu_[i];
    return r;
}

ResourceState PopulationStore::caps(std::size_t i) const {
    ResourceState r;
    r.data_size = data_cap_[i];
    r.category_proportion = category_cap_[i];
    r.bandwidth_mbps = bandwidth_cap_[i];
    r.cpu_cores = cpu_cap_[i];
    return r;
}

namespace {

/// What the drift kernel reads and writes: raw column pointers plus one
/// round's salt and the store's dynamics.
struct DriftArgs {
    double* theta;
    double* data_size;
    double* bandwidth;
    double* cpu;
    const double* data_cap;
    const double* bandwidth_cap;
    const double* cpu_cap;
    std::uint64_t salt;
    std::size_t node_offset;
    double jitter;
    double theta_jitter;
    double theta_lo;
    double theta_hi;
};

/// `std::clamp`'s exact expression (`min(max(v, lo), hi)`), spelled out so
/// masked-off lanes with meaningless bounds never reach its debug assert.
inline double clamp_like_std(double v, double lo, double hi) {
    const double floor = v < lo ? lo : v;
    return hi < floor ? hi : floor;
}

/// Uniform draw `k` (0-based) of the stream seeded with `seed`: the same
/// value the k+1-th `SplitMix64::uniform(lo, hi)` call returns.
inline double uniform_at(std::uint64_t seed, std::uint64_t k, double lo, double hi) {
    using stats::SplitMix64;
    const double u = SplitMix64::unit(SplitMix64::mix(seed + (k + 1) * SplitMix64::kGamma));
    return lo + (hi - lo) * u;
}

/// The drift lane kernel over rows [lo, hi). Each row's stream is seeded
/// from (salt, global id); a resource dimension consumes a draw only when
/// its cap is > 0, and theta's draw comes last. Every draw is computed from
/// its index, every update is selected by mask, so the loop is branch-free
/// and bit-identical to drawing the stream one call at a time.
template <bool kResources, bool kTheta>
void drift_rows(const DriftArgs& c, std::size_t lo, std::size_t hi) {
    const double jitter = c.jitter;
    const double tj = c.theta_jitter;
    // Eight lanes: one 512-bit vector where the ISA has it (about a fifth
    // faster than 256-bit on an AVX-512 host; the 64-bit multiplies of the
    // mixer dominate).
#pragma omp simd simdlen(8)
    for (std::size_t i = lo; i < hi; ++i) {
        const std::uint64_t seed = stats::derive_stream_seed(c.salt, c.node_offset + i);
        std::uint64_t k = 0;
        if constexpr (kResources) {
            const double bcap = c.bandwidth_cap[i];
            const bool has_b = bcap > 0.0;
            const double bstep = bcap * jitter;
            const double b = clamp_like_std(
                c.bandwidth[i] + uniform_at(seed, k, -bstep, bstep), 0.05 * bcap, bcap);
            c.bandwidth[i] = has_b ? b : c.bandwidth[i];
            k += has_b ? 1 : 0;

            const double ccap = c.cpu_cap[i];
            const bool has_c = ccap > 0.0;
            const double cstep = ccap * jitter;
            const double cpu = clamp_like_std(
                c.cpu[i] + uniform_at(seed, k, -cstep, cstep), 0.05 * ccap, ccap);
            c.cpu[i] = has_c ? cpu : c.cpu[i];
            k += has_c ? 1 : 0;

            // Data holdings only grow toward the shard cap (nodes
            // accumulate data).
            const double dcap = c.data_cap[i];
            const bool has_d = dcap > 0.0;
            const double dstep = dcap * jitter;
            const double data = clamp_like_std(
                c.data_size[i] + uniform_at(seed, k, 0.0, dstep), 0.0, dcap);
            c.data_size[i] = has_d ? data : c.data_size[i];
            k += has_d ? 1 : 0;
        }
        if constexpr (kTheta) {
            c.theta[i] = clamp_like_std(c.theta[i] + uniform_at(seed, k, -tj, tj), c.theta_lo,
                                        c.theta_hi);
        }
    }
}

} // namespace

void PopulationStore::drift_range(std::size_t lo, std::size_t hi, std::uint64_t salt) {
    const DriftArgs args{.theta = theta_.data(),
                         .data_size = data_size_.data(),
                         .bandwidth = bandwidth_.data(),
                         .cpu = cpu_.data(),
                         .data_cap = data_cap_.data(),
                         .bandwidth_cap = bandwidth_cap_.data(),
                         .cpu_cap = cpu_cap_.data(),
                         .salt = salt,
                         .node_offset = node_offset_,
                         .jitter = dynamics_.resource_jitter,
                         .theta_jitter = dynamics_.theta_jitter,
                         .theta_lo = theta_lo_,
                         .theta_hi = theta_hi_};
    const bool resources = args.jitter > 0.0;
    const bool theta = args.theta_jitter > 0.0;
    if (resources && theta) {
        drift_rows<true, true>(args, lo, hi);
    } else if (resources) {
        drift_rows<true, false>(args, lo, hi);
    } else if (theta) {
        drift_rows<false, true>(args, lo, hi);
    }
}

void PopulationStore::evolve_all(std::uint64_t salt, bool parallel) {
    if (dynamics_.theta_jitter > 0.0 && !(theta_lo_ < theta_hi_))
        throw std::invalid_argument("PopulationStore::evolve: bad theta bounds");
    salt_history_.push_back(salt);
    const std::size_t n = size();
    const std::size_t chunks = (n + kEvolveChunk - 1) / kEvolveChunk;
    const std::size_t workers =
        (!parallel || chunks <= 1) ? 1 : util::resolve_round_threads(0, chunks);
    if (workers <= 1) {
        drift_range(0, n, salt);
        return;
    }
    util::ThreadPool::shared().parallel_for(
        chunks, workers - 1, [&](std::size_t, std::size_t chunk) {
            const std::size_t lo = chunk * kEvolveChunk;
            drift_range(lo, std::min(n, lo + kEvolveChunk), salt);
        });
}

void PopulationStore::evolve(stats::Rng& rng) {
    evolve_all(rng.engine()(), /*parallel=*/true);
}

void PopulationStore::evolve_serial(stats::Rng& rng) {
    evolve_all(rng.engine()(), /*parallel=*/false);
}

void PopulationStore::evolve_with_salt(std::uint64_t salt) {
    evolve_all(salt, /*parallel=*/true);
}

std::array<const std::vector<double>*, 9> PopulationStore::state_columns() const {
    return {&theta_, &data_size_,    &category_,      &bandwidth_, &cpu_,
            &data_cap_, &category_cap_, &bandwidth_cap_, &cpu_cap_};
}

PopulationSnapshot PopulationStore::snapshot() const {
    PopulationSnapshot snap;
    snap.node_offset = node_offset_;
    snap.salt_history = salt_history_;
    for (const std::vector<double>* col : state_columns()) snap.columns.push_back(*col);
    return snap;
}

void PopulationStore::restore(const PopulationSnapshot& snap) {
    if (snap.columns.size() != 9)
        throw std::invalid_argument("PopulationStore::restore: expected 9 columns, got "
                                    + std::to_string(snap.columns.size()));
    for (const std::vector<double>& col : snap.columns)
        if (col.size() != size())
            throw std::invalid_argument(
                "PopulationStore::restore: snapshot holds " + std::to_string(col.size())
                + " nodes, store holds " + std::to_string(size()));
    if (snap.node_offset != node_offset_)
        throw std::invalid_argument(
            "PopulationStore::restore: snapshot node_offset "
            + std::to_string(snap.node_offset) + " != store node_offset "
            + std::to_string(node_offset_));
    salt_history_ = snap.salt_history;
    theta_ = snap.columns[0];
    data_size_ = snap.columns[1];
    category_ = snap.columns[2];
    bandwidth_ = snap.columns[3];
    cpu_ = snap.columns[4];
    data_cap_ = snap.columns[5];
    category_cap_ = snap.columns[6];
    bandwidth_cap_ = snap.columns[7];
    cpu_cap_ = snap.columns[8];
}

namespace {

void slice_into(const std::vector<double>& whole, std::size_t lo, std::size_t hi,
                std::vector<double>& out) {
    out.assign(whole.begin() + static_cast<std::ptrdiff_t>(lo),
               whole.begin() + static_cast<std::ptrdiff_t>(hi));
}

} // namespace

std::vector<PopulationStore>
PopulationStore::split(const std::vector<std::size_t>& boundaries) const {
    const std::size_t n = size();
    for (std::size_t b = 0; b < boundaries.size(); ++b) {
        if (boundaries[b] == 0 || boundaries[b] >= n)
            throw std::invalid_argument(
                "PopulationStore::split: boundary " + std::to_string(boundaries[b])
                + " outside (0, " + std::to_string(n) + ")");
        if (b > 0 && boundaries[b] <= boundaries[b - 1])
            throw std::invalid_argument(
                "PopulationStore::split: boundaries must be strictly increasing");
    }
    std::vector<PopulationStore> shards;
    shards.reserve(boundaries.size() + 1);
    std::size_t lo = 0;
    for (std::size_t b = 0; b <= boundaries.size(); ++b) {
        const std::size_t hi = b < boundaries.size() ? boundaries[b] : n;
        PopulationStore shard;
        shard.node_offset_ = node_offset_ + lo;
        shard.dynamics_ = dynamics_;
        shard.theta_lo_ = theta_lo_;
        shard.theta_hi_ = theta_hi_;
        slice_into(theta_, lo, hi, shard.theta_);
        slice_into(data_size_, lo, hi, shard.data_size_);
        slice_into(category_, lo, hi, shard.category_);
        slice_into(bandwidth_, lo, hi, shard.bandwidth_);
        slice_into(cpu_, lo, hi, shard.cpu_);
        slice_into(data_cap_, lo, hi, shard.data_cap_);
        slice_into(category_cap_, lo, hi, shard.category_cap_);
        slice_into(bandwidth_cap_, lo, hi, shard.bandwidth_cap_);
        slice_into(cpu_cap_, lo, hi, shard.cpu_cap_);
        shards.push_back(std::move(shard));
        lo = hi;
    }
    return shards;
}

std::vector<std::size_t> PopulationStore::even_boundaries(std::size_t size,
                                                          std::size_t num_shards) {
    if (num_shards == 0 || num_shards > size)
        throw std::invalid_argument("PopulationStore: num_shards = "
                                    + std::to_string(num_shards)
                                    + " must be in [1, size = " + std::to_string(size)
                                    + "]");
    const std::size_t base = size / num_shards;
    const std::size_t extra = size % num_shards;
    std::vector<std::size_t> cuts;
    cuts.reserve(num_shards - 1);
    std::size_t at = 0;
    for (std::size_t s = 0; s + 1 < num_shards; ++s) {
        at += base + (s < extra ? 1 : 0);
        cuts.push_back(at);
    }
    return cuts;
}

std::vector<PopulationStore> PopulationStore::split_even(std::size_t num_shards) const {
    return split(even_boundaries(size(), num_shards));
}

} // namespace fmore::mec
