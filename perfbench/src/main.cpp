// FL-round benchmark program.
//
//   fl_round_bench --workload NAME|all --seed N --seconds S --trace 0|1
//                  [--out DIR] [--commit SHA]
//   fl_round_bench --selftest [--out DIR]
//
// Each workload runs full FL rounds through core::ExperimentTrial under the
// `fmore` policy (wrapped by `bench_fmore`, which only stamps the clock).
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics. The
// per-workload result (environment, tape digest, sample counts, span self
// times) is also written to DIR/<workload>-s<seed>-t<trace>.json, and the
// traced run's spans to DIR/<workload>-s<seed>-spans.jsonl.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fmore/core/equilibrium_cache.hpp"
#include "fmore/core/experiment.hpp"
#include "fmore/core/run_checkpoint.hpp"
#include "fmore/core/scenarios.hpp"
#include "fmore/util/thread_pool.hpp"
#include "probe.hpp"
#include "replay.hpp"
#include "speed.hpp"
#include "trace.hpp"

namespace fs = std::filesystem;
using namespace fmore;
using perfbench::Clock;

namespace {

using Overrides = std::vector<std::pair<std::string, std::string>>;

/// Reference-seed trials whose mean accuracy curve gives the quality guards
/// (rounds_to_target, final_accuracy).
constexpr std::size_t kQualityTrials = 2;

/// One benchmark workload. Why each exists is recorded in BENCHMARK.json
/// and perfbench/BENCHMARK.md; the accuracy target is fixed here and
/// stated in BENCHMARK.json.
struct Workload {
    const char* name;
    const char* scenario;
    Overrides overrides;
    double target_accuracy;
    /// Smaller copy of the same workload for the self-test.
    Overrides reduced;
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> table{
        {"paper_cifar", "paper/fig06", {}, 0.45, {{"training.rounds", "3"}}},
        // 150 rounds a run: a round is ~15 ms against ~1.7 s of set-up, so
        // long runs keep the timed share of the run (and the samples) up.
        {"market_100k",
         "scale/100k",
         {{"auction.shards", "8"}, {"training.rounds", "150"}},
         0.5,
         {{"population.num_nodes", "3000"},
          {"training.train_samples", "6000"},
          {"training.rounds", "3"}}},
        // Five local epochs and the whole 400-sample test set make learning
        // visible over 30 rounds at 1-3 samples per node (one epoch stays
        // near chance); neither touches the market or the checkpoints.
        {"stream_durable",
         "stream/sharded",
         {{"population.num_nodes", "20000"},
          {"population.data_lo", "1"},
          {"population.data_hi", "3"},
          {"training.train_samples", "40000"},
          {"timing.min_updates", "15000"},
          {"timing.arrival_rate_hz", "200000"},
          {"timing.checkpoint_every", "1"},
          {"training.rounds", "30"},
          {"training.local_epochs", "5"},
          {"training.eval_cap", "400"}},
         0.2,
         {{"population.num_nodes", "2000"},
          {"training.train_samples", "4000"},
          {"timing.min_updates", "1500"},
          {"training.rounds", "3"}}},
    };
    return table;
}

const Workload& find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (name == w.name) return w;
    throw std::invalid_argument("unknown workload '" + name
                                + "' (paper_cifar, market_100k, stream_durable, all)");
}

core::ExperimentSpec make_spec(const Workload& w, std::uint64_t seed,
                               const std::string& checkpoint_dir, bool reduced = false) {
    core::ExperimentSpec spec = core::named_scenario(w.scenario);
    for (const auto& [key, value] : w.overrides) core::apply_key_value(spec, key, value);
    if (reduced)
        for (const auto& [key, value] : w.reduced) core::apply_key_value(spec, key, value);
    spec.seed = seed;
    if (spec.timing.checkpoint_every > 0) spec.timing.checkpoint_dir = checkpoint_dir;
    return spec;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selftest = false;
    std::string out_dir = ".bench_build/out";
    std::string commit = "unknown";
};

Options parse_options(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") opt.workload = value();
        else if (arg == "--seed") opt.seed = std::stoull(value());
        else if (arg == "--seconds") opt.seconds = std::stod(value());
        else if (arg == "--trace") opt.trace = value() == "1";
        else if (arg == "--out") opt.out_dir = value();
        else if (arg == "--commit") opt.commit = value();
        else if (arg == "--selftest") opt.selftest = true;
        else throw std::invalid_argument("unknown argument " + arg);
    }
    if (!opt.selftest && opt.workload.empty())
        throw std::invalid_argument("--workload is required");
    return opt;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
    const char* better;
};

struct WorkloadResult {
    std::string workload;
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  ///< human-readable run facts
};

std::string json_string(const std::string& text) {
    std::string quoted = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') quoted += '\\';
        quoted += c == '\n' ? ' ' : c;
    }
    return quoted + "\"";
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double median_or_zero(const std::vector<double>& v) {
    return v.empty() ? 0.0 : perfbench::median(v);
}

/// Round (1-based, fractional) at which `curve` first reaches `target`,
/// interpolated linearly between the rounds either side of the crossing.
std::optional<double> crossing_round(const std::vector<double>& curve, double target) {
    for (std::size_t k = 0; k < curve.size(); ++k) {
        if (curve[k] < target) continue;
        if (k == 0) return 1.0;
        return static_cast<double>(k) + (target - curve[k - 1]) / (curve[k] - curve[k - 1]);
    }
    return std::nullopt;
}

/// Seconds from a run's start to fractional round `round`; `ends[r - 1]` is
/// when round r ended.
double seconds_at_round(const std::vector<double>& ends, double round) {
    const auto whole = static_cast<std::size_t>(round);
    const double at = ends[whole - 1];
    const double frac = round - static_cast<double>(whole);
    return frac > 0.0 ? at + frac * (ends[whole] - at) : at;
}

std::string environment_json(const Options& opt) {
    __builtin_cpu_init();
    std::ostringstream env;
    env << "{\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"round_threads\": " << util::thread_budget()
        << ", \"cpu_avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
        << ", \"cpu_avx512f\": " << (__builtin_cpu_supports("avx512f") ? "true" : "false")
#if defined(__AVX512F__)
        << ", \"compiled_isa\": \"avx512f\""
#elif defined(__AVX2__)
        << ", \"compiled_isa\": \"avx2\""
#else
        << ", \"compiled_isa\": \"baseline\""
#endif
        << ", \"build_type\": \"" << FMORE_BENCH_BUILD_TYPE << "\""
        << ", \"compiler\": \"" << FMORE_BENCH_COMPILER << "\""
        << ", \"git_commit\": \"" << opt.commit << "\"}";
    return env.str();
}

/// One `ExperimentTrial::run` under the stamping policy.
struct TimedRun {
    perfbench::RunProbe probe;
    fl::RunResult result;
    bool ok = false;
};

TimedRun timed_run(core::ExperimentTrial& trial, std::size_t rounds, WorkloadResult& out) {
    TimedRun run;
    perfbench::set_active_probe(&run.probe);
    out.attempted += rounds;
    run.probe.run_start_cpu = perfbench::process_cpu_seconds();
    run.probe.run_start = Clock::now();
    try {
        run.result = trial.run(perfbench::kBenchPolicy);
    } catch (const std::exception& e) {
        perfbench::set_active_probe(nullptr);
        out.correct = false;
        out.failed += rounds;
        out.notes.push_back(std::string("run threw: ") + e.what());
        return run;
    }
    run.probe.run_end = Clock::now();
    run.probe.run_end_cpu = perfbench::process_cpu_seconds();
    perfbench::set_active_probe(nullptr);
    run.ok = run.probe.selects.size() == rounds && run.result.rounds.size() == rounds;
    out.failed += run.ok ? perfbench::failed_rounds(run.result, rounds) : rounds;
    if (!run.ok) {
        out.correct = false;
        out.notes.push_back("a run's select count or tape length is not "
                            + std::to_string(rounds));
    }
    return run;
}

/// A trial built on a cold equilibrium cache (set-up pays the solve, as a
/// fresh process does), and the process CPU seconds its construction took.
std::pair<std::unique_ptr<core::ExperimentTrial>, double>
timed_setup(const core::ExperimentSpec& spec, std::size_t t) {
    core::EquilibriumCache::instance().clear();
    const double start = perfbench::process_cpu_seconds();
    auto trial = std::make_unique<core::ExperimentTrial>(spec, t);
    return {std::move(trial), perfbench::process_cpu_seconds() - start};
}

/// Everything one workload invocation measures.
///
/// Quality guards (untraced invocations): `kQualityTrials` worlds of the
/// workload's reference seed (the scenario's own), one run each; the
/// trial-mean accuracy curve gives rounds_to_target and final_accuracy,
/// exact at every --seed. Timing: worlds of --seed, trial 0 run twice (the
/// rerun must reproduce the tape), more trials until --seconds have passed
/// and the p90 has 10 samples beyond it. Traced invocations run every
/// timing trial untraced and then traced, and replay the layers of trial 0.
/// Round and set-up times are process CPU times rescaled to reference speed
/// (speed.hpp): a round by the kernel passes next to it, a set-up by those
/// of the run that follows it. Times as measured are printed next to them.
WorkloadResult run_workload(const Workload& w, const Options& opt,
                            perfbench::SpanRecorder& spans) {
    WorkloadResult out;
    out.workload = w.name;
    const std::string ckpt_base = opt.out_dir + "/ckpt-" + w.name;
    const core::ExperimentSpec spec = make_spec(w, opt.seed, ckpt_base);
    const std::size_t rounds = spec.training.rounds;
    const bool checkpointing = spec.timing.checkpoint_every > 0;
    const std::size_t min_rounds = perfbench::min_samples_for(0.9, 10);
    // Stop adding trials past this, whatever the sample counts say, so a
    // pathological slowdown still ends the run in time.
    const double hard_cap_s = std::max(4.0 * opt.seconds, 60.0);
    const Clock::time_point begin = Clock::now();

    std::vector<double> setup_s;      ///< reference-speed CPU s
    std::vector<double> raw_setup_s;  ///< as measured
    auto keep_setup = [&](double cpu_s, const perfbench::RunProbe& next_run) {
        raw_setup_s.push_back(cpu_s);
        setup_s.push_back(cpu_s * next_run.run_speed());
    };
    std::vector<double> curve(rounds, 0.0);
    if (!opt.trace) {
        const core::ExperimentSpec reference =
            make_spec(w, core::named_scenario(w.scenario).seed, ckpt_base);
        for (std::size_t t = 0; t < kQualityTrials; ++t) {
            const auto [trial, setup_cpu_s] = timed_setup(reference, t);
            if (checkpointing) fs::remove_all(ckpt_base);
            const TimedRun run = timed_run(*trial, rounds, out);
            if (!run.ok) continue;
            keep_setup(setup_cpu_s, run.probe);
            for (std::size_t r = 0; r < rounds; ++r) curve[r] += run.result.rounds[r].test_accuracy;
        }
        for (double& a : curve) a /= static_cast<double>(kQualityTrials);
    }

    std::vector<double> untraced_ms;  ///< round CPU times at reference speed
    std::vector<double> traced_ms;
    std::vector<double> raw_cpu_ms;  ///< untraced round CPU times as measured
    std::vector<double> wall_ms;     ///< untraced round wall times
    std::vector<double> kernel_s;    ///< untraced runs' kernel passes
    /// Per untraced run: round ends, reference CPU s since the run's start.
    std::vector<std::vector<double>> untraced_ends;
    std::vector<double> select_ms;
    double select_total_s = 0.0;
    double traced_round_total_s = 0.0;
    double bids = 0.0;
    double dropped = 0.0;
    std::vector<double> quorum_fraction;
    std::string digest;
    std::size_t trials = 0;
    std::uint64_t traced_runs = 0;
    perfbench::LayerSamples layers;
    std::unique_ptr<perfbench::LayerReplay> replay;
    double other_ms_total = 0.0;  ///< trial 0's traced rounds minus their layer spans

    for (std::size_t t = 0;; ++t) {
        const double elapsed = perfbench::seconds_between(begin, Clock::now());
        const std::vector<double>& counted = opt.trace ? traced_ms : untraced_ms;
        if (t > 0 && elapsed >= opt.seconds && counted.size() >= min_rounds) break;
        if (elapsed > hard_cap_s) {
            out.correct = false;
            out.notes.push_back("stopped at the time cap before the sample counts were met");
            break;
        }
        const auto [trial, setup_cpu_s] = timed_setup(spec, t);
        ++trials;

        const int passes = (opt.trace || t == 0) ? 2 : 1;
        std::string digests[2];
        for (int pass = 0; pass < passes; ++pass) {
            const bool traced = opt.trace && pass == 1;
            if (checkpointing) fs::remove_all(ckpt_base);
            const TimedRun run = timed_run(*trial, rounds, out);
            if (!run.ok) continue;
            const perfbench::RunProbe& probe = run.probe;
            if (pass == 0) keep_setup(setup_cpu_s, probe);
            digests[pass] = perfbench::tape_digest(run.result);
            // The last round's interval also holds the run's teardown, so
            // it is no round sample.
            std::vector<double> round_ms = probe.round_ms();
            round_ms.pop_back();
            std::vector<double> ref_ms = probe.round_ref_ms();
            ref_ms.pop_back();
            std::vector<double>& samples = traced ? traced_ms : untraced_ms;
            samples.insert(samples.end(), ref_ms.begin(), ref_ms.end());
            if (!traced) {
                const std::vector<double> cpu_ms = probe.round_cpu_ms();
                raw_cpu_ms.insert(raw_cpu_ms.end(), cpu_ms.begin(), cpu_ms.end() - 1);
                wall_ms.insert(wall_ms.end(), round_ms.begin(), round_ms.end());
                for (const perfbench::SelectStamp& s : probe.selects) kernel_s.push_back(s.kernel_s);
                untraced_ends.push_back(probe.ref_round_ends());
                continue;
            }

            // Traced pass: in-run spans from the probe's stamps, then the
            // layer replays (trial 0 only; they do not overlap the rounds).
            const std::uint64_t run_id = ++traced_runs << 16;
            for (std::size_t r = 1; r <= rounds; ++r) {
                const perfbench::SelectStamp& s = probe.selects[r - 1];
                const std::int64_t root = spans.add("fl.round", probe.round_start(r),
                                                    probe.round_end(r), -1, run_id + r);
                spans.add("mec.select", s.start, s.end, root, run_id + r);
                if (r == rounds) continue;
                const double sel = perfbench::seconds_between(s.start, s.end);
                select_ms.push_back(1e3 * sel);
                select_total_s += sel;
                bids += static_cast<double>(s.bids);
                dropped += static_cast<double>(run.result.rounds[r - 1].dropped_shards);
            }
            traced_round_total_s += 1e-3 * std::accumulate(round_ms.begin(), round_ms.end(), 0.0);
            quorum_fraction.push_back(run.result.health().quorum_close_fraction);
            if (t == 0) {
                replay = std::make_unique<perfbench::LayerReplay>(spec, trial->shards(), spans,
                                                                  layers);
                replay->replay_market(5);
                for (const fl::RoundMetrics& m : run.result.rounds)
                    replay->replay_round(m, run_id + m.round);
                if (checkpointing)
                    replay->replay_checkpoints(
                        core::checkpoint_run_dir(ckpt_base, perfbench::kBenchPolicy, t),
                        opt.out_dir + "/replay.fmsnap", run_id);
                for (std::size_t r = 1; r < rounds; ++r) {
                    const perfbench::SelectStamp& s = probe.selects[r - 1];
                    other_ms_total += round_ms[r - 1]
                                      - 1e3 * perfbench::seconds_between(s.start, s.end)
                                      - layers.train_ms[r - 1] - layers.eval_ms[r - 1]
                                      - layers.fedavg_ms[r - 1]
                                      - (checkpointing ? layers.checkpoint_ms[r - 1] : 0.0);
                }
            }
        }
        if (passes == 2 && digests[0] != digests[1]) {
            out.correct = false;
            out.failed += rounds;  // the rerun's rounds failed the output check
            out.notes.push_back("trial " + std::to_string(t)
                                + ": the two runs' tape digests differ");
        }
        if (t == 0) digest = digests[0];
    }
    if (checkpointing) fs::remove_all(ckpt_base);

    const std::vector<double>& timed = opt.trace ? traced_ms : untraced_ms;
    out.notes.push_back("timing trials " + std::to_string(trials) + ", round samples "
                        + std::to_string(timed.size()) + " ("
                        + std::to_string(perfbench::samples_beyond(timed.size(), 0.9))
                        + " beyond p90), setup samples " + std::to_string(setup_s.size()));
    out.notes.push_back("tape digest (seed " + std::to_string(opt.seed) + ", trial 0) "
                        + digest);
    if (!opt.trace)
        out.notes.push_back("as measured: round CPU p50 " + json_number(median_or_zero(raw_cpu_ms))
                            + " ms, round wall p50 " + json_number(median_or_zero(wall_ms))
                            + " ms, setup CPU " + json_number(median_or_zero(raw_setup_s))
                            + " s; reference kernel pass median "
                            + json_number(1e3 * median_or_zero(kernel_s)) + " ms over "
                            + std::to_string(kernel_s.size()) + " passes (reference speed: "
                            + json_number(1e3 * perfbench::kReferenceKernelSeconds) + " ms)");
    if (out.failed > 0) out.correct = false;
    const double fail_ratio = out.attempted == 0
                                  ? 1.0
                                  : static_cast<double>(out.failed)
                                        / static_cast<double>(out.attempted);
    out.notes.push_back("round_fail_ratio " + json_number(fail_ratio) + " ("
                        + std::to_string(out.failed) + "/" + std::to_string(out.attempted)
                        + " rounds)");

    auto pct = [&](const std::vector<double>& v, double q) {
        try {
            return perfbench::tail_percentile(v, q);
        } catch (const std::invalid_argument& e) {
            out.correct = false;
            out.notes.push_back(e.what());
            return 0.0;
        }
    };
    if (!opt.trace) {
        const std::optional<double> crossing = crossing_round(curve, w.target_accuracy);
        std::vector<double> to_target_s;
        if (crossing)
            for (const std::vector<double>& ends : untraced_ends)
                to_target_s.push_back(seconds_at_round(ends, *crossing));
        else {
            out.correct = false;
            out.notes.push_back("the trial-mean accuracy never reached the target");
        }
        out.metrics = {
            {"round_cpu_ms_p50", pct(untraced_ms, 0.5), "ms", "lower"},
            {"round_cpu_ms_p90", pct(untraced_ms, 0.9), "ms", "lower"},
            {"cpu_s_to_target", median_or_zero(to_target_s), "s", "lower"},
            {"rounds_to_target", crossing.value_or(0.0), "rounds", "lower"},
            {"final_accuracy", curve.back(), "fraction", "higher"},
            {"setup_s", median_or_zero(setup_s), "s", "lower"},
            {"peak_rss_mb", peak_rss_mb(), "MB", "lower"},
        };
        return out;
    }

    const double train_s = 1e-3 * std::accumulate(layers.train_ms.begin(), layers.train_ms.end(), 0.0);
    const double traced_rounds = static_cast<double>(traced_ms.size());
    const double num_nodes = static_cast<double>(spec.population.num_nodes);
    out.metrics = {
        {"mec.select_ms_p50", median_or_zero(select_ms), "ms", "lower"},
        {"mec.select_share", traced_round_total_s > 0 ? select_total_s / traced_round_total_s : 0.0,
         "fraction", "lower"},
        {"mec.bids_per_s", select_total_s > 0 ? bids / select_total_s : 0.0, "1/s", "higher"},
        {"mec.dropped_shards", dropped, "count", "lower"},
        {"mec.evolve_ms", median_or_zero(layers.evolve_ms), "ms", "lower"},
        {"mec.bid_pass_ms", median_or_zero(layers.bid_pass_ms), "ms", "lower"},
        {"mec.stream_arrived_ratio", traced_rounds > 0 ? bids / (num_nodes * traced_rounds) : 0.0,
         "fraction", "higher"},
        {"mec.quorum_close_fraction", mean(quorum_fraction), "fraction", "higher"},
        {"ml.train_ms_per_round", median_or_zero(layers.train_ms), "ms", "lower"},
        {"ml.train_samples_per_s", train_s > 0 ? layers.train_samples / train_s : 0.0, "1/s",
         "higher"},
        {"ml.eval_ms", median_or_zero(layers.eval_ms), "ms", "lower"},
        {"fl.fedavg_ms", median_or_zero(layers.fedavg_ms), "ms", "lower"},
        {"fl.fedavg_bytes", layers.fedavg_bytes, "bytes", "lower"},
        {"fl.round_other_ms", other_ms_total / static_cast<double>(rounds - 1), "ms", "lower"},
        {"core.checkpoint_write_ms", median_or_zero(layers.checkpoint_ms), "ms", "lower"},
        {"core.checkpoint_bytes", layers.checkpoint_bytes, "bytes", "lower"},
        {"ml.dataset_ms", layers.dataset_ms, "ms", "lower"},
        {"ml.partition_ms", layers.partition_ms, "ms", "lower"},
        {"auction.equilibrium_solve_ms", layers.equilibrium_solve_ms, "ms", "lower"},
        {"trace.overhead_ratio", pct(traced_ms, 0.5) / pct(untraced_ms, 0.5), "ratio", "lower"},
    };
    return out;
}

std::string metrics_json(const WorkloadResult& r, const std::string& prefix) {
    std::string json;
    for (const Metric& m : r.metrics) {
        if (!json.empty()) json += ", ";
        json += "\"" + prefix + m.name + "\": {\"value\": " + json_number(m.value)
                + ", \"unit\": \"" + m.unit + "\"}";
    }
    return json;
}

void print_table(const WorkloadResult& r, const Options& opt) {
    std::printf("== %s  seed %llu  trace %d\n", r.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
    for (const std::string& note : r.notes) std::printf("   %s\n", note.c_str());
    for (const Metric& m : r.metrics)
        std::printf("   %-30s %16.6g %-9s (%s is better)\n", m.name.c_str(), m.value, m.unit,
                    m.better);
}

void write_result_file(const WorkloadResult& r, const Options& opt, const std::string& env,
                       const perfbench::SpanRecorder& spans) {
    const std::string stem = opt.out_dir + "/" + r.workload + "-s" + std::to_string(opt.seed);
    std::string self;
    for (const auto& [name, seconds] : spans.self_seconds()) {
        if (!self.empty()) self += ", ";
        self += "\"" + name + "\": " + json_number(1e3 * seconds);
    }
    std::string notes;
    for (const std::string& note : r.notes) {
        if (!notes.empty()) notes += ", ";
        notes += json_string(note);
    }
    std::FILE* f = std::fopen((stem + "-t" + (opt.trace ? "1" : "0") + ".json").c_str(), "w");
    if (!f) throw std::runtime_error("cannot write the result file under " + opt.out_dir);
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"environment\": %s, "
                 "\"notes\": [%s], \"self_ms\": {%s}, \"metrics\": {%s}}\n",
                 r.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                 opt.trace ? 1 : 0, env.c_str(), notes.c_str(), self.c_str(),
                 metrics_json(r, "").c_str());
    std::fclose(f);
    if (!spans.spans().empty()) spans.write_jsonl(stem + "-spans.jsonl");
}

int run_benchmark(const Options& opt) {
    perfbench::register_bench_policy();
    fs::create_directories(opt.out_dir);
    const std::string env = environment_json(opt);
    std::printf("environment %s\n", env.c_str());

    std::vector<const Workload*> selected;
    if (opt.workload == "all")
        for (const Workload& w : workloads()) selected.push_back(&w);
    else
        selected.push_back(&find_workload(opt.workload));

    std::vector<WorkloadResult> results;
    for (const Workload* w : selected) {
        perfbench::SpanRecorder spans;
        results.push_back(run_workload(*w, opt, spans));
        print_table(results.back(), opt);
        if (opt.trace) {
            std::printf("   self time by layer (ms):");
            for (const auto& [name, seconds] : spans.self_seconds())
                std::printf(" %s=%.3f", name.c_str(), 1e3 * seconds);
            std::printf("\n");
        }
        write_result_file(results.back(), opt, env, spans);
    }

    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string metrics;
    for (const WorkloadResult& r : results) {
        correct = correct && r.correct;
        attempted += r.attempted;
        failed += r.failed;
        if (!metrics.empty()) metrics += ", ";
        metrics += metrics_json(r, selected.size() > 1 ? r.workload + "/" : "");
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, metrics.c_str());
    return 0;
}

// --- self-test -------------------------------------------------------------

int g_failures = 0;

void check(bool ok, const std::string& what) {
    std::printf("   [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

int run_selftest(const Options& opt) {
    perfbench::register_bench_policy();
    std::printf("percentile helper\n");
    check(perfbench::samples_beyond(100, 0.9) == 10, "p90 of 100 samples has 10 beyond");
    check(perfbench::samples_beyond(99, 0.9) == 9, "p90 of 99 samples has 9 beyond");
    check(perfbench::min_samples_for(0.9, 10) == 100, "p90 needs 100 samples");
    check(perfbench::min_samples_for(0.5, 10) == 20, "p50 needs 20 samples");
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0);
    check(perfbench::tail_percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90");
    check(perfbench::tail_percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
    v.pop_back();
    bool refused = false;
    try {
        (void)perfbench::tail_percentile(v, 0.9);
    } catch (const std::invalid_argument&) {
        refused = true;
    }
    check(refused, "p90 of 99 samples is refused");
    check(perfbench::median({3.0, 1.0, 2.0}) == 2.0 && perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5,
          "median of odd and even counts");

    std::printf("span self time\n");
    {
        perfbench::SpanRecorder spans;
        const Clock::time_point t0 = Clock::now();
        auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
        const std::int64_t root = spans.add("root", at(0), at(10), -1, 1);
        spans.add("child", at(1), at(3), root, 1);
        spans.add("child", at(2), at(5), root, 1);
        const auto self = spans.self_seconds();
        check(std::abs(self.at("root") - 0.006) < 1e-9, "parent self time excludes the union of its children");
        check(std::abs(self.at("child") - 0.005) < 1e-9, "children keep their own durations");
    }

    std::printf("bench_fmore leaves the tape bit-identical to fmore (reduced workloads)\n");
    fs::create_directories(opt.out_dir);
    for (const Workload& w : workloads()) {
        const std::string ckpt = opt.out_dir + "/selftest-" + w.name;
        fs::remove_all(ckpt);
        const core::ExperimentSpec spec = make_spec(w, opt.seed, ckpt, /*reduced=*/true);
        core::ExperimentTrial trial(spec, 0);
        const fl::RunResult plain = trial.run("fmore");
        perfbench::RunProbe probe;
        perfbench::set_active_probe(&probe);
        const fl::RunResult wrapped = trial.run(perfbench::kBenchPolicy);
        perfbench::set_active_probe(nullptr);
        const std::string a = perfbench::tape_digest(plain);
        const std::string b = perfbench::tape_digest(wrapped);
        check(a == b && !plain.rounds.empty(), std::string(w.name) + ": digest " + a + " == " + b);
        check(probe.selects.size() == wrapped.rounds.size(),
              std::string(w.name) + ": one select stamp per round");
        bool scores_equal = plain.rounds.size() == wrapped.rounds.size();
        for (std::size_t r = 0; scores_equal && r < plain.rounds.size(); ++r)
            scores_equal = plain.rounds[r].selection.scores_by_node
                               == wrapped.rounds[r].selection.scores_by_node
                           && plain.rounds[r].selection.all_scores
                                  == wrapped.rounds[r].selection.all_scores;
        check(scores_equal, std::string(w.name) + ": score boards identical");
        if (spec.timing.checkpoint_every > 0) {
            const auto p = core::find_latest_valid(core::checkpoint_run_dir(ckpt, "fmore", 0));
            const auto q = core::find_latest_valid(
                core::checkpoint_run_dir(ckpt, perfbench::kBenchPolicy, 0));
            check(p && q && p->model_params == q->model_params
                      && p->rng_state == q->rng_state && p->completed_rounds == q->completed_rounds,
                  std::string(w.name) + ": checkpoints carry the same state");
        }
        fs::remove_all(ckpt);
    }
    std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
    return g_failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Options opt = parse_options(argc, argv);
        return opt.selftest ? run_selftest(opt) : run_benchmark(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fl_round_bench: %s\n", e.what());
        return 2;
    }
}
