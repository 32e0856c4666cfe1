#pragma once

/// @file probe.hpp
/// How the benchmark sees inside a run without touching the library: the
/// `bench_fmore` selection policy wraps the registered `fmore` selector and
/// stamps the clock around every `ClientSelector::select` call. A round is
/// the interval from one select to the next (the last one ends when
/// `ExperimentTrial::run` returns), so it covers selection, local training,
/// FedAvg, evaluation and the checkpoint write of that round. Each stamp
/// reads the wall clock and the process's CPU clock. Between two rounds the
/// wrapper also runs one pass of the reference kernel (speed.hpp), outside
/// both rounds, so every round's time can be rescaled to reference speed by
/// the host speed measured right before and right after it.

#include <cstdint>
#include <string>
#include <vector>

#include "fmore/fl/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace fl = fmore::fl;
namespace stats = fmore::stats;

/// Registry name of the wrapping policy.
inline constexpr const char* kBenchPolicy = "bench_fmore";

struct SelectStamp {
    Clock::time_point enter;  ///< the wrapper was called; the previous round ends
    Clock::time_point start;  ///< after the kernel pass; this round starts
    Clock::time_point end;
    std::size_t bids = 0;  ///< bids the round ranked (arrivals when streaming)
    double cpu_enter = 0.0;  ///< process_cpu_seconds() at `enter`
    double cpu_start = 0.0;  ///< process_cpu_seconds() at `start`
    double kernel_s = 0.0;   ///< CPU seconds of the reference-kernel pass
};

/// Clock stamps of one `ExperimentTrial::run` call.
struct RunProbe {
    Clock::time_point run_start;
    Clock::time_point run_end;
    double run_start_cpu = 0.0;  ///< process_cpu_seconds() at `run_start`
    double run_end_cpu = 0.0;
    std::vector<SelectStamp> selects;

    /// Wall time of each round, in ms (needs `run_end` set).
    [[nodiscard]] std::vector<double> round_ms() const;
    /// Process CPU time of each round, in ms (needs `run_end_cpu` set).
    [[nodiscard]] std::vector<double> round_cpu_ms() const;
    /// Per round: the multiplier to reference speed, from the mean of the
    /// kernel passes right before and right after the round (the last round
    /// has only the one before it).
    [[nodiscard]] std::vector<double> round_speed() const;
    /// `round_cpu_ms()` rescaled by `round_speed()`.
    [[nodiscard]] std::vector<double> round_ref_ms() const;
    /// Per round: reference-speed CPU seconds from the run's start to the
    /// round's end; the kernel passes in between are left out.
    [[nodiscard]] std::vector<double> ref_round_ends() const;
    /// Multiplier to reference speed over the whole run: from the median of
    /// its kernel passes.
    [[nodiscard]] double run_speed() const;
    /// Start of round r (1-based) and end of round r.
    [[nodiscard]] Clock::time_point round_start(std::size_t r) const;
    [[nodiscard]] Clock::time_point round_end(std::size_t r) const;
};

/// Register `bench_fmore` once per process. Selectors it builds stamp into
/// whichever probe `set_active_probe` installed last.
void register_bench_policy();
void set_active_probe(RunProbe* probe);

/// FNV-1a digest of a run's tape: per round the winners (client, payment,
/// score, contracted samples), test accuracy and test loss, bit for bit.
[[nodiscard]] std::string tape_digest(const fl::RunResult& result);

/// Rounds of `result` that fail the output checks (at least one winner,
/// finite accuracy in [0, 1]); rounds missing from a short tape count as
/// failed.
[[nodiscard]] std::size_t failed_rounds(const fl::RunResult& result,
                                        std::size_t expected_rounds);

} // namespace perfbench
