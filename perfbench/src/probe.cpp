#include "probe.hpp"

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "fmore/fl/policy.hpp"
#include "fmore/fl/run_state.hpp"
#include "speed.hpp"

namespace perfbench {

namespace {

RunProbe* g_probe = nullptr;

/// Forwards everything to the wrapped `fmore` selector; only the clock
/// stamps are added, so the tape is the plain policy's tape.
class TimedSelector final : public fl::ClientSelector {
public:
    TimedSelector(std::unique_ptr<fl::ClientSelector> inner, std::size_t num_clients)
        : inner_(std::move(inner)), num_clients_(num_clients) {}

    [[nodiscard]] fl::SelectionRecord select(std::size_t round, std::size_t k,
                                             stats::Rng& rng) override {
        // One reference-kernel pass between rounds samples the host's speed
        // next to every round; it lies outside both rounds' intervals.
        const Clock::time_point enter = Clock::now();
        const double cpu_enter = process_cpu_seconds();
        const double kernel_s = g_probe ? kernel_pass_seconds() : 0.0;
        const double cpu_start = process_cpu_seconds();
        const Clock::time_point start = Clock::now();
        fl::SelectionRecord record = inner_->select(round, k, rng);
        const Clock::time_point end = Clock::now();
        if (g_probe) {
            const std::size_t bids =
                record.close_reason.empty() ? num_clients_ : record.arrived_bids;
            g_probe->selects.push_back(
                SelectStamp{enter, start, end, bids, cpu_enter, cpu_start, kernel_s});
        }
        return record;
    }
    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] bool contracts_data_volume() const override {
        return inner_->contracts_data_volume();
    }
    void save_checkpoint(fl::SelectorCheckpoint& ckpt) const override {
        inner_->save_checkpoint(ckpt);
    }
    void restore_checkpoint(const fl::SelectorCheckpoint& ckpt) override {
        inner_->restore_checkpoint(ckpt);
    }

private:
    std::unique_ptr<fl::ClientSelector> inner_;
    std::size_t num_clients_;
};

class BenchPolicy final : public fl::SelectionPolicy {
public:
    [[nodiscard]] std::string name() const override { return kBenchPolicy; }
    [[nodiscard]] std::unique_ptr<fl::ClientSelector>
    make_selector(const fl::PolicyContext& context) const override {
        return std::make_unique<TimedSelector>(
            fl::make_policy("fmore")->make_selector(context), context.num_clients);
    }
};

struct Fnv {
    std::uint64_t h = 1469598103934665603ULL;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    }
    template <class T> void value(const T& v) { bytes(&v, sizeof v); }
};

} // namespace

std::vector<double> RunProbe::round_ms() const {
    std::vector<double> out;
    out.reserve(selects.size());
    for (std::size_t r = 1; r <= selects.size(); ++r)
        out.push_back(1e3 * seconds_between(round_start(r), round_end(r)));
    return out;
}

std::vector<double> RunProbe::round_cpu_ms() const {
    std::vector<double> out;
    out.reserve(selects.size());
    for (std::size_t r = 1; r <= selects.size(); ++r) {
        const double end = r < selects.size() ? selects[r].cpu_enter : run_end_cpu;
        out.push_back(1e3 * (end - selects[r - 1].cpu_start));
    }
    return out;
}

std::vector<double> RunProbe::round_speed() const {
    std::vector<double> out;
    out.reserve(selects.size());
    for (std::size_t r = 0; r < selects.size(); ++r) {
        const double pass = r + 1 < selects.size()
                                ? 0.5 * (selects[r].kernel_s + selects[r + 1].kernel_s)
                                : selects[r].kernel_s;
        out.push_back(kReferenceKernelSeconds / pass);
    }
    return out;
}

std::vector<double> RunProbe::round_ref_ms() const {
    std::vector<double> out = round_cpu_ms();
    const std::vector<double> speed = round_speed();
    for (std::size_t r = 0; r < out.size(); ++r) out[r] *= speed[r];
    return out;
}

std::vector<double> RunProbe::ref_round_ends() const {
    const std::vector<double> ms = round_ref_ms();
    // Before round 1: the run's own set-up inside ExperimentTrial::run.
    double seconds = (selects.at(0).cpu_enter - run_start_cpu) * round_speed()[0];
    std::vector<double> ends;
    ends.reserve(ms.size());
    for (const double m : ms) ends.push_back(seconds += 1e-3 * m);
    return ends;
}

double RunProbe::run_speed() const {
    std::vector<double> passes;
    for (const SelectStamp& s : selects) passes.push_back(s.kernel_s);
    return speed_factor(std::move(passes));
}

Clock::time_point RunProbe::round_start(std::size_t r) const {
    return selects.at(r - 1).start;
}

Clock::time_point RunProbe::round_end(std::size_t r) const {
    return r < selects.size() ? selects[r].enter : run_end;
}

void register_bench_policy() {
    static std::once_flag once;
    std::call_once(once, [] {
        fl::PolicyRegistry::instance().add(
            kBenchPolicy, [] { return std::make_unique<BenchPolicy>(); });
    });
}

void set_active_probe(RunProbe* probe) { g_probe = probe; }

std::string tape_digest(const fl::RunResult& result) {
    Fnv fnv;
    for (const fl::RoundMetrics& m : result.rounds) {
        fnv.value(m.round);
        for (const fl::SelectedClient& c : m.selection.selected) {
            fnv.value(c.client);
            fnv.value(c.payment);
            fnv.value(c.score);
            fnv.value(c.train_samples.value_or(SIZE_MAX));
        }
        fnv.value(m.test_accuracy);
        fnv.value(m.test_loss);
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(fnv.h));
    return hex;
}

std::size_t failed_rounds(const fl::RunResult& result, std::size_t expected_rounds) {
    std::size_t failed =
        expected_rounds > result.rounds.size() ? expected_rounds - result.rounds.size() : 0;
    for (const fl::RoundMetrics& m : result.rounds) {
        const bool ok = !m.selection.selected.empty() && std::isfinite(m.test_accuracy)
                        && m.test_accuracy >= 0.0 && m.test_accuracy <= 1.0;
        if (!ok) ++failed;
    }
    return failed;
}

} // namespace perfbench
