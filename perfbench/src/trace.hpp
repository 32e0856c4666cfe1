#pragma once

/// @file trace.hpp
/// The benchmark's span recorder and sample statistics. Spans are kept in
/// memory while the benchmark runs and written out once at exit, so
/// recording a span costs two clock reads and a vector push.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// CPU seconds the process (every thread) has run so far. Unlike wall time,
/// it leaves out the time the host took the vCPU away (steal) and the time
/// the process waited to run or on I/O.
[[nodiscard]] inline double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One timed interval at a layer boundary. `round_id` is shared by every
/// span of one FL round (in-run spans and the replays of that round).
struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;  ///< index of the enclosing span; -1 for a root
    std::uint64_t round_id = 0;
};

class SpanRecorder {
public:
    /// Record an interval that was timed elsewhere; returns its index.
    std::int64_t add(std::string name, Clock::time_point start, Clock::time_point end,
                     std::int64_t parent, std::uint64_t round_id);
    /// Start a span now; `close` stamps its end.
    std::int64_t open(std::string name, std::int64_t parent, std::uint64_t round_id);
    void close(std::int64_t index);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Per span name: total duration minus the part of each interval its
    /// child spans cover, in seconds.
    [[nodiscard]] std::map<std::string, double> self_seconds() const;

    /// One JSON object per line: name, start/end in ns since the first
    /// span, parent index and round id.
    void write_jsonl(const std::string& path) const;

private:
    std::vector<Span> spans_;
};

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Smallest sample count whose q-quantile has at least `tail` samples
/// beyond it (100 for the p90 with 10 beyond).
[[nodiscard]] std::size_t min_samples_for(double q, std::size_t tail);

/// Nearest-rank q-quantile. @throws std::invalid_argument when `v` is empty
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// A reported percentile: the nearest-rank q-quantile, refused (throws
/// std::invalid_argument) unless at least `min_tail` samples lie beyond it.
[[nodiscard]] double tail_percentile(const std::vector<double>& v, double q,
                                     std::size_t min_tail = 10);

/// Middle value (mean of the two middle values for even counts).
[[nodiscard]] double median(std::vector<double> v);

} // namespace perfbench
