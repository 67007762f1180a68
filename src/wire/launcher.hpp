// WorkerSupervisor: spawns, kills, respawns and reaps the lotec_worker
// processes behind a distributed run.
//
// The supervisor pre-binds every worker's listen socket *before* forking
// anything and keeps its own copy of each fd for the life of the run.  Two
// properties fall out of that:
//   - no startup races: peers connect into the backlog of a socket that
//     already exists, regardless of spawn order, and
//   - crash/restart chaos works: when a worker is killed its listen fd
//     survives in the supervisor, so the respawned process resumes
//     accepting on the very same socket and peers reconnect lazily.
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "net/wire_config.hpp"
#include "wire/socket.hpp"

namespace lotec::wire {

/// Resolve the lotec_worker executable: cfg.worker_path, then the
/// LOTEC_WORKER environment variable, then `lotec_worker` next to the
/// running executable.  Throws Error when nothing is executable.
[[nodiscard]] std::string find_worker_binary(const WireConfig& cfg);

class WorkerSupervisor {
 public:
  /// Binds all listen sockets and spawns one worker per node.
  WorkerSupervisor(const WireConfig& cfg, std::uint32_t nodes);

  /// Kills (SIGKILL) and reaps any workers still running; removes the
  /// socket directory if this supervisor created it.
  ~WorkerSupervisor();

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  [[nodiscard]] std::uint32_t nodes() const noexcept { return nodes_; }

  /// Connect to worker `node`'s listen socket (coordinator side).
  [[nodiscard]] Fd connect_to(std::uint32_t node, Millis timeout) const;

  /// SIGKILL + reap one worker (crash injection).  No-op if already dead.
  void kill_worker(std::uint32_t node);

  /// Restart a killed worker on its original listen socket.
  void respawn_worker(std::uint32_t node);

  [[nodiscard]] bool alive(std::uint32_t node) const;

  /// Process id of worker `node`, -1 when it is not running (tests signal
  /// it directly).
  [[nodiscard]] pid_t pid(std::uint32_t node) const { return pids_.at(node); }

  /// Total kill_worker() + respawn_worker() calls (soak assertions).
  [[nodiscard]] std::uint64_t kills() const noexcept { return kills_; }
  [[nodiscard]] std::uint64_t respawns() const noexcept { return respawns_; }

  [[nodiscard]] const std::string& socket_dir() const noexcept {
    return socket_dir_;
  }
  [[nodiscard]] const std::vector<std::uint16_t>& ports() const noexcept {
    return ports_;
  }
  [[nodiscard]] bool tcp() const noexcept { return cfg_.tcp; }

 private:
  void spawn(std::uint32_t node);

  WireConfig cfg_;
  std::uint32_t nodes_;
  std::string worker_binary_;
  std::string socket_dir_;
  bool owns_socket_dir_ = false;
  std::vector<Fd> listen_fds_;
  std::vector<std::uint16_t> ports_;  // TCP mode only
  std::vector<pid_t> pids_;           // -1 = not running
  std::uint64_t kills_ = 0;
  std::uint64_t respawns_ = 0;
};

}  // namespace lotec::wire
