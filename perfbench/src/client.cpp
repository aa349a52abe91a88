#include "client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "spans.hpp"

extern char** environ;

namespace perfbench {
namespace {

int tryConnect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Connection::Connection(const std::string& socketPath)
    : fd_(tryConnect(socketPath)) {
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to " + socketPath + ": " +
                             std::strerror(errno));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Connection::roundTrip(const std::string& line) {
  std::string frame = line;
  frame.push_back('\n');
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send failed: " + std::string(strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      std::string reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return reply;
    }
    scanned = buffer_.size();
    char chunk[1 << 16];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("read failed: " + std::string(strerror(errno)));
    }
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

pid_t spawnProcess(const std::vector<std::string>& argv,
                   const std::string& logPath) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

bool reapProcess(pid_t pid, double timeoutS) {
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(timeoutS * 1e9);
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (r < 0 && errno != EINTR) return false;
    if (nowNs() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::kill(pid, SIGKILL);
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return false;
}

double peakRssMbOf(pid_t pid) {
  std::ifstream is(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (is >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
    is.ignore(1 << 12, '\n');
  }
  return 0.0;
}

Daemon::Daemon(const std::string& binary, std::string socketPath,
               const std::string& logPath)
    : socket_(std::move(socketPath)) {
  ::unlink(socket_.c_str());
  launchNs_ = nowNs();
  pid_ = spawnProcess({binary, "--socket", socket_}, logPath);
}

Daemon::~Daemon() { stop(); }

double Daemon::awaitFirstOk(const std::string& probeLine, double timeoutS) {
  const std::int64_t deadline =
      launchNs_ + static_cast<std::int64_t>(timeoutS * 1e9);
  int fd = -1;
  while ((fd = tryConnect(socket_)) < 0) {
    if (nowNs() > deadline) {
      throw std::runtime_error("daemon did not listen on " + socket_);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ::close(fd);
  Connection conn(socket_);
  const std::string reply = conn.roundTrip(probeLine);
  const std::int64_t end = nowNs();
  if (reply.find("\"ok\":true") == std::string::npos) {
    throw std::runtime_error("daemon set-up probe failed: " + reply);
  }
  return static_cast<double>(end - launchNs_) / 1e9;
}

double Daemon::peakRssMb() const { return peakRssMbOf(pid_); }

bool Daemon::stop() {
  if (pid_ < 0) return true;
  bool asked = false;
  try {
    Connection conn(socket_);
    asked = conn.roundTrip("{\"verb\":\"shutdown\"}").find("\"ok\":true") !=
            std::string::npos;
  } catch (const std::exception&) {
  }
  if (!asked) ::kill(pid_, SIGTERM);
  const bool clean = reapProcess(pid_, 30.0);
  pid_ = -1;
  ::unlink(socket_.c_str());
  return clean && asked;
}

}  // namespace perfbench
