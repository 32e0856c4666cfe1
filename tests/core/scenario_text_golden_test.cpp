// Text goldens of every built-in spec: the FNV-1a digest of `to_text` for
// each registered scenario and for the per-kind default factories. These
// pin every default value, including the ones a kind does not read, so a
// preset or a default cannot drift without a deliberate re-record.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fmore/core/experiment.hpp"
#include "fmore/core/scenarios.hpp"

namespace fmore::core {
namespace {

/// FNV-1a over bytes.
std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string hex(std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

struct Golden {
    const char* name;
    std::uint64_t digest;
};

const std::vector<Golden>& scenario_goldens() {
    static const std::vector<Golden> all = {
        {"ablation/budget", 0x129f9b4daf69a7e6ULL},
        {"ablation/second_score", 0xf9213d9fc241f73cULL},
        {"faults/churn", 0xaa6f140e4cba38daULL},
        {"faults/corrupt", 0x8a11a966fcfa407dULL},
        {"faults/flaky", 0x04e748aedd86830dULL},
        {"paper/fig04", 0xe8e01544ad009a0eULL},
        {"paper/fig05", 0xbf3a45bd93f1d34dULL},
        {"paper/fig06", 0x4de8085787e9563dULL},
        {"paper/fig07", 0x89140b4df727859cULL},
        {"paper/fig08", 0x255aa7781aa84dbaULL},
        {"paper/fig09", 0x010fc010c3b5bc39ULL},
        {"paper/fig10", 0x010fc010c3b5bc39ULL},
        {"paper/fig11", 0x787e089e3040e2f8ULL},
        {"paper/fig12", 0x73f7d19118b256baULL},
        {"paper/fig13", 0x73f7d19118b256baULL},
        {"scale/100k", 0xfeac28fe0aaf6e68ULL},
        {"scale/10k", 0x918dc3a1be1442bcULL},
        {"scale/10m", 0x5f6c7b4bd66fa7d5ULL},
        {"scale/1m", 0x782d31afb5ab587cULL},
        {"sim/default", 0xe8e01544ad009a0eULL},
        {"straggler/async_vs_sync", 0x275ac1f5c7048a7fULL},
        {"straggler/heavy", 0xed1cb4158c9f5032ULL},
        {"straggler/mild", 0xfd3b6d45a5346ab9ULL},
        {"stream/heavy", 0xedba472748b67c0aULL},
        {"stream/light", 0x0b32da56a6ca92d7ULL},
        {"stream/quorum", 0xa88cc971e7998a56ULL},
        {"stream/sharded", 0xef4a23e763b02d74ULL},
        {"testbed/default", 0x73f7d19118b256baULL},
    };
    return all;
}

TEST(ScenarioTextGolden, EveryBuiltinScenario) {
    for (const Golden& golden : scenario_goldens()) {
        SCOPED_TRACE(golden.name);
        const std::uint64_t digest = fnv1a(to_text(named_scenario(golden.name)));
        EXPECT_EQ(digest, golden.digest) << "text digest " << hex(digest);
    }
}

TEST(ScenarioTextGolden, TableCoversTheRegistry) {
    // Downstream tests register "test/..." scenarios of their own.
    for (const ScenarioRegistry::Entry& entry : ScenarioRegistry::instance().list()) {
        if (entry.name.rfind("test/", 0) == 0) continue;
        bool found = false;
        for (const Golden& golden : scenario_goldens())
            found = found || entry.name == golden.name;
        EXPECT_TRUE(found) << entry.name << " has no text golden";
    }
}

TEST(ScenarioTextGolden, DefaultExperimentPerDataset) {
    const struct {
        DatasetKind dataset;
        std::uint64_t digest;
    } goldens[] = {
        {DatasetKind::mnist_o, 0xe8e01544ad009a0eULL},
        {DatasetKind::mnist_f, 0xbf3a45bd93f1d34dULL},
        {DatasetKind::cifar10, 0x4de8085787e9563dULL},
        {DatasetKind::hpnews, 0x89140b4df727859cULL},
    };
    for (const auto& golden : goldens) {
        SCOPED_TRACE(to_string(golden.dataset));
        const std::uint64_t digest = fnv1a(to_text(default_experiment(golden.dataset)));
        EXPECT_EQ(digest, golden.digest) << "text digest " << hex(digest);
    }
}

TEST(ScenarioTextGolden, DefaultTestbedExperiment) {
    const std::uint64_t digest = fnv1a(to_text(default_testbed_experiment()));
    EXPECT_EQ(digest, 0x73f7d19118b256baULL) << "text digest " << hex(digest);
}

} // namespace
} // namespace fmore::core
