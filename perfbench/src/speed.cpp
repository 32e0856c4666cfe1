#include "speed.hpp"

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kDenseFloats = std::size_t{1} << 14;  // 64 KiB
constexpr std::size_t kTableWords = std::size_t{1} << 19;   // 4 MiB
constexpr int kDenseSweeps = 12;
constexpr std::size_t kGathers = std::size_t{1} << 17;

struct Buffers {
    std::vector<float> dense;
    std::vector<std::uint64_t> table;
};

const Buffers& buffers() {
    static const Buffers b = [] {
        Buffers out;
        out.dense.resize(kDenseFloats);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (float& v : out.dense) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            v = 0.5f + static_cast<float>(x >> 40) * 0x1p-25f;
        }
        out.table.resize(kTableWords);
        std::iota(out.table.begin(), out.table.end(), std::uint64_t{1});
        return out;
    }();
    return b;
}

volatile double g_sink = 0.0;

void one_pass(const Buffers& b) {
    float acc[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    for (int sweep = 0; sweep < kDenseSweeps; ++sweep)
        for (std::size_t i = 0; i < kDenseFloats; i += 4)
            for (std::size_t j = 0; j < 4; ++j)
                acc[j] = acc[j] * 0.999f
                         + b.dense[i + j] * b.dense[(i * 7 + j) & (kDenseFloats - 1)];
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kGathers; ++i)
        sum += b.table[(i * 2654435761ULL) & (kTableWords - 1)];
    g_sink = static_cast<double>(acc[0] + acc[1] + acc[2] + acc[3]) + static_cast<double>(sum);
}

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

double kernel_pass_seconds() {
    const Buffers& b = buffers();
    one_pass(b);  // warm: the pass times the host, not the cache the caller left
    const double start = thread_cpu_seconds();
    one_pass(b);
    return thread_cpu_seconds() - start;
}

double speed_factor(std::vector<double> passes) {
    if (passes.empty()) return 1.0;
    const auto mid = passes.begin() + static_cast<std::ptrdiff_t>(passes.size() / 2);
    std::nth_element(passes.begin(), mid, passes.end());
    return kReferenceKernelSeconds / *mid;
}

} // namespace perfbench
