#include "calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSpinSteps = 20'000'000;

std::atomic<std::uint64_t> gSink{0};

void spin(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < kSpinSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  gSink.fetch_add(x, std::memory_order_relaxed);
}

double timedSpinNs(unsigned threads) {
  const std::int64_t start = nowNs();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin, t + 1);
  for (std::thread& th : pool) th.join();
  return static_cast<double>(nowNs() - start);
}

}  // namespace

HostProbe probeHost(unsigned threads) {
  threads = std::max(1u, threads);
  // Best of two single-thread passes: the first may pay frequency ramp-up.
  const double single = std::min(timedSpinNs(1), timedSpinNs(1));
  const double all = timedSpinNs(threads);
  HostProbe probe;
  probe.effectiveCores = static_cast<double>(threads) * single / all;
  probe.singleCoreMops = static_cast<double>(kSpinSteps) / (single / 1e3);
  return probe;
}

}  // namespace perfbench
