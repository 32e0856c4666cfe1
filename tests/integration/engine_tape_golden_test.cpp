// Bit-level goldens of the trial engine's tape, one per coordinator lane.
// The lane-vs-lane suites (DeterminismGolden, ShardEquivalence, ...) pin
// one lane against another, so a change that shifts both sides together
// passes them; these digests pin each lane against recorded bits instead.
// Every lane runs a tiny spec and hashes every round's accuracy, loss,
// payments, wall-clock seconds, winner ids and score board.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fmore/core/experiment.hpp"
#include "fmore/core/scenarios.hpp"

namespace fmore::core {
namespace {

/// FNV-1a over 64-bit words.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

std::uint64_t tape_digest(const fl::RunResult& run) {
    Fnv1a f;
    f.add(static_cast<std::uint64_t>(run.rounds.size()));
    for (const fl::RoundMetrics& round : run.rounds) {
        f.add(round.test_accuracy);
        f.add(round.test_loss);
        f.add(round.mean_winner_payment);
        f.add(round.round_seconds);
        f.add(static_cast<std::uint64_t>(round.selection.selected.size()));
        for (const fl::SelectedClient& winner : round.selection.selected)
            f.add(static_cast<std::uint64_t>(winner.client));
        f.add(static_cast<std::uint64_t>(round.selection.all_scores.size()));
        for (const double score : round.selection.all_scores) f.add(score);
    }
    return f.h;
}

std::string hex(std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

void expect_tape(const ExperimentSpec& spec, const std::string& policy,
                 std::uint64_t golden) {
    ExperimentTrial trial(spec, /*trial_index=*/0);
    const fl::RunResult run = trial.run(policy);
    ASSERT_EQ(run.rounds.size(), spec.training.rounds);
    const std::uint64_t digest = tape_digest(run);
    EXPECT_EQ(digest, golden) << "tape digest " << hex(digest);
}

/// Shrink a simulator or testbed world so a three-round run is cheap while
/// every round still holds a real auction.
ExperimentSpec tiny(ExperimentSpec spec) {
    spec.population.num_nodes = 12;
    spec.population.data_lo = 10;
    spec.population.data_hi = 40;
    spec.auction.winners = 4;
    spec.training.train_samples = 400;
    spec.training.test_samples = 120;
    spec.training.rounds = 3;
    spec.training.eval_cap = 100;
    return spec;
}

/// Shrink a named scenario's training workload, keeping its market.
ExperimentSpec short_scenario(const std::string& name) {
    ExperimentSpec spec = named_scenario(name);
    spec.training.train_samples = 900;
    spec.training.test_samples = 200;
    spec.training.rounds = 3;
    spec.training.eval_cap = 120;
    return spec;
}

ExperimentSpec sim_mnist() { return tiny(default_experiment(DatasetKind::mnist_o)); }
ExperimentSpec testbed() { return tiny(default_testbed_experiment()); }

TEST(EngineTapeGolden, SimulationMnistFmore) {
    expect_tape(sim_mnist(), "fmore", 0xb8cfecd843197dc5ULL);
}

TEST(EngineTapeGolden, SimulationMnistPsiFmore) {
    ExperimentSpec spec = sim_mnist();
    spec.auction.psi = 0.6;
    expect_tape(spec, "psi_fmore", 0x01d38c63e9e7ae2fULL);
}

TEST(EngineTapeGolden, SimulationMnistRandfl) {
    expect_tape(sim_mnist(), "randfl", 0x9f74d2039ac3334bULL);
}

TEST(EngineTapeGolden, SimulationMnistFixfl) {
    expect_tape(sim_mnist(), "fixfl", 0xe63aaf473ad71799ULL);
}

TEST(EngineTapeGolden, SimulationHpnewsLstm) {
    expect_tape(tiny(default_experiment(DatasetKind::hpnews)), "fmore",
                0x4060447c83c687cdULL);
}

TEST(EngineTapeGolden, SimulationShardedWithCrashFaults) {
    ExperimentSpec spec = sim_mnist();
    spec.auction.shards = 4;
    spec.auction.shard_timeout_s = 1.0;
    spec.auction.fault_plan = "seed=5,crash=0.2";
    expect_tape(spec, "fmore", 0x9ee044d7e948f7d5ULL);
}

TEST(EngineTapeGolden, SimulationLatencyDiscountHasNoLatencyTable) {
    // The simulator has no wall clock: its latency table stays empty, so
    // the discount subtracts nothing and this tape equals
    // SimulationMnistFmore.
    ExperimentSpec spec = sim_mnist();
    spec.auction.latency_discount = 0.3;
    expect_tape(spec, "fmore", 0xb8cfecd843197dc5ULL);
}

TEST(EngineTapeGolden, TestbedSyncFmore) {
    expect_tape(testbed(), "fmore", 0x5758dfaaa660adf7ULL);
}

TEST(EngineTapeGolden, TestbedSyncRandfl) {
    expect_tape(testbed(), "randfl", 0x76c3999a75ba2a24ULL);
}

TEST(EngineTapeGolden, TestbedMnistTakesTheHardCifarProxy) {
    // The testbed trains its hard CIFAR-10 proxy and deeper CNN for every
    // dataset but hpnews, so this tape equals TestbedSyncFmore.
    ExperimentSpec spec = testbed();
    spec.training.dataset = DatasetKind::mnist_o;
    expect_tape(spec, "fmore", 0x5758dfaaa660adf7ULL);
}

TEST(EngineTapeGolden, TestbedLatencyDiscounted) {
    ExperimentSpec spec = testbed();
    spec.auction.mechanism = "latency_discounted";
    spec.auction.latency_discount = 0.3;
    spec.timing.latency_spread = 0.4;
    expect_tape(spec, "fmore", 0x9936a03ce15233f6ULL);
}

TEST(EngineTapeGolden, StragglerMildSemiSync) {
    expect_tape(short_scenario("straggler/mild"), "fmore", 0xb99b72f38c1dbc42ULL);
}

TEST(EngineTapeGolden, StragglerHeavyAsyncDropout) {
    expect_tape(short_scenario("straggler/heavy"), "fmore", 0x8ff3a7487404f93dULL);
}

TEST(EngineTapeGolden, StreamShardedAdaptiveQuorum) {
    ExperimentSpec spec = named_scenario("stream/sharded");
    spec.training.eval_cap = 120;
    expect_tape(spec, "fmore", 0x48816f224aa164e5ULL);
}

} // namespace
} // namespace fmore::core
