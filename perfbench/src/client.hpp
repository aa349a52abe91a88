#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A persistent NDJSON connection to the daemon's Unix socket: one request
/// line out, one reply line back.
class Connection {
 public:
  explicit Connection(const std::string& socketPath);  ///< throws
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends `line` (without newline) and returns the reply line. Throws
  /// std::runtime_error on transport failure.
  std::string roundTrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Starts `argv` (argv[0] is the program path) with stdout and stderr
/// appended to `logPath`; returns its pid. Throws on failure.
pid_t spawnProcess(const std::vector<std::string>& argv,
                   const std::string& logPath);

/// Waits for `pid` up to `timeoutS`, then kills it; returns true when it
/// exited on its own with status 0.
bool reapProcess(pid_t pid, double timeoutS);

/// One pimsched_served process with default flags on its own socket. The
/// destructor stops it (and kills it if it does not drain in time), so no
/// daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socketPath,
         const std::string& logPath);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Retries connect until the daemon listens, sends `probeLine` and
  /// returns seconds from launch to its ok reply. Throws on timeout or on
  /// a reply without "ok":true.
  double awaitFirstOk(const std::string& probeLine, double timeoutS);

  /// VmHWM of the daemon process, in MiB.
  [[nodiscard]] double peakRssMb() const;

  /// Sends the shutdown verb and waits for a clean exit; true when the
  /// daemon drained and exited 0. Idempotent.
  bool stop();

 private:
  std::string socket_;
  pid_t pid_ = -1;
  std::int64_t launchNs_ = 0;
};

/// VmHWM of a process from /proc/<pid>/status (0 = self), in MiB.
[[nodiscard]] double peakRssMbOf(pid_t pid);

}  // namespace perfbench
