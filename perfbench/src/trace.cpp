#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t SpanRecorder::add(std::string name, Clock::time_point start,
                               Clock::time_point end, std::int64_t parent,
                               std::uint64_t round_id) {
    spans_.push_back(Span{std::move(name), start, end, parent, round_id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent,
                                std::uint64_t round_id) {
    const Clock::time_point now = Clock::now();
    return add(std::move(name), now, now, parent, round_id);
}

void SpanRecorder::close(std::int64_t index) {
    spans_.at(static_cast<std::size_t>(index)).end = Clock::now();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> children(
        spans_.size());
    for (const Span& span : spans_) {
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                         span.end);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        Clock::time_point cursor = span.start;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, cursor);
            hi = std::min(hi, span.end);
            if (hi > lo) {
                covered += seconds_between(lo, hi);
                cursor = hi;
            }
        }
        self[span.name] += seconds_between(span.start, span.end) - covered;
    }
    return self;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out) throw std::runtime_error("cannot write span file " + path);
    const Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_[0].start;
    for (const Span& span : spans_) {
        const auto ns = [&](Clock::time_point t) {
            return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
        };
        std::fprintf(out,
                     "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"parent\": %lld, \"round_id\": %llu}\n",
                     span.name.c_str(), ns(span.start), ns(span.end),
                     static_cast<long long>(span.parent),
                     static_cast<unsigned long long>(span.round_id));
    }
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write span file " + path);
}

namespace {

/// 1-based nearest rank of the q-quantile; the epsilon keeps q*n that is
/// mathematically integral (0.9 * 100) from rounding up a rank.
std::size_t nearest_rank(std::size_t n, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

std::size_t samples_beyond(std::size_t n, double q) {
    return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::size_t min_samples_for(double q, std::size_t tail) {
    std::size_t n = 1;
    while (samples_beyond(n, q) < tail) ++n;
    return n;
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
    const std::size_t rank = nearest_rank(v.size(), q);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
    return v[rank - 1];
}

double tail_percentile(const std::vector<double>& v, double q, std::size_t min_tail) {
    if (samples_beyond(v.size(), q) < min_tail)
        throw std::invalid_argument("percentile " + std::to_string(q) + " of "
                                    + std::to_string(v.size())
                                    + " samples has fewer than "
                                    + std::to_string(min_tail) + " samples beyond it");
    return quantile(v, q);
}

double median(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("median of an empty sample");
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

} // namespace perfbench
