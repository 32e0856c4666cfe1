#pragma once

/// @file speed.hpp
/// Host-speed reference for the end-to-end times. The benchmark runs on
/// shared hosts where the CPU time of one fixed single-threaded computation
/// swings by a quarter or more within seconds (neighbours on the sibling
/// hyperthread, the shared cache and the memory bus), which swamps the
/// changes the benchmark exists to catch. So the wrapping policy runs a
/// fixed reference kernel between every two rounds, and the benchmark
/// rescales every reported time to the speed at which the kernel takes
/// `kReferenceKernelSeconds` of CPU time. A change to the library moves the
/// measured times but not the kernel; a slower host moves both.
///
/// The kernel mixes the two kinds of work the workloads do: a dependent
/// float multiply-add sweep over a 64 KiB array (cache-resident compute, as
/// in local training) and scattered reads over a 4 MiB table (cache-missing
/// reads, as in the market's bid passes). One untimed pass warms the caches
/// before the timed one, so the time reflects the host and not what the
/// round before it left in the caches. It is compiled with fixed flags of
/// its own, so a change to the library's compile flags moves the workloads
/// and not the reference.

#include <vector>

namespace perfbench {

/// Kernel pass CPU time, in seconds, that defines reference speed: a round
/// number close to a pass on a quiet host of the 4-vCPU Xeon (AVX-512)
/// guest the benchmark was built on (~0.55 ms).
inline constexpr double kReferenceKernelSeconds = 0.0005;

/// CPU seconds of one warm pass of the reference kernel, run now.
[[nodiscard]] double kernel_pass_seconds();

/// Multiplier that rescales times measured while `passes` were taken to
/// reference speed: `kReferenceKernelSeconds` / the median pass (1 when
/// there are none).
[[nodiscard]] double speed_factor(std::vector<double> passes);

} // namespace perfbench
