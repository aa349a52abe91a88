#pragma once

namespace perfbench {

/// What the host could actually deliver when the run started. On a shared
/// host the usable core count can drift from minute to minute, so every
/// run records it beside its figures.
struct HostProbe {
  double effectiveCores = 0.0;   ///< threads * t(1 spinner) / t(all spinners)
  double singleCoreMops = 0.0;   ///< spin-loop steps per microsecond, 1 thread
};

/// Times a fixed integer spin on one thread, then on `threads` threads at
/// once. About 0.1 s.
[[nodiscard]] HostProbe probeHost(unsigned threads);

}  // namespace perfbench
