// WireTransport: the Transport backend behind `--distributed N`.
//
// The deterministic in-process simulation stays the driver: the coordinator
// process executes families exactly as before, and the base Transport does
// all accounting, fault-hook consultation and reachability checking.  What
// this subclass adds is physics — after the base class accepts a remote
// message, the same message is *shipped* through real OS processes:
//
//   coordinator --Data--> worker[src] --Data--> worker[dst]
//   coordinator <--Ack--- worker[src] <--Ack--- worker[dst]
//
// Worker[dst] counts the delivery into its own ledger before
// acknowledging.  Because the identical code path
// decides what gets accounted in both modes, the wire backend produces
// bit-identical message/byte counts to the in-process transport for the
// same seed and scenario — and on_batch_complete() *proves* it by
// gathering every worker's ledger and cross-checking per message kind.
//
// Failure mapping: ship timeouts retry with exponential backoff
// (ack_timeout_ms doubling, max_send_attempts) and then surface as
// NodeUnreachable(src, dst) — the exact exception the runtime's existing
// retry/recovery paths (PR 1 lease/epoch recovery) already handle.
// set_node_failed(node, true) first resolves every deferred batch ack (so
// frames shipped before a crash count as delivered, as in-process), then
// kills the real worker process (SIGKILL); recovery respawns it on the
// same pre-bound listen socket.  Any kill marks the ledger incomplete and
// downgrades the batch-end cross-check (a dead incarnation's deliveries
// died with it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "net/wire_config.hpp"
#include "wire/frame.hpp"
#include "wire/launcher.hpp"
#include "wire/ledger.hpp"
#include "wire/socket.hpp"

namespace lotec::wire {

class WireTransport final : public Transport {
 public:
  /// Spawns the worker fleet and completes the Hello/HelloAck handshake
  /// with every worker.  Throws on spawn or handshake failure.
  WireTransport(std::size_t num_nodes, NetworkConfig net_config,
                WireConfig wire_config);

  /// Shuts the fleet down gracefully (Shutdown frames, so workers flush
  /// their span files) before the supervisor reaps anything left.
  ~WireTransport() override;

  void send(const WireMessage& m) override;
  std::vector<NodeId> send_to_all(
      const WireMessage& m, const std::vector<NodeId>& destinations) override;
  void set_node_failed(NodeId node, bool failed) override;
  void on_batch_complete() override;

  /// Deferred acks still outstanding (0 outside an open batch window).
  [[nodiscard]] std::size_t deferred_pending() const noexcept {
    std::size_t n = 0;
    for (const auto& v : deferred_) n += v.size();
    return n;
  }

  /// What this coordinator successfully shipped, by kind (full wire bytes).
  [[nodiscard]] const std::array<KindCounts, kNumWireKinds>& shipped()
      const noexcept {
    return shipped_;
  }
  /// Sum of all worker ledgers gathered by the last on_batch_complete().
  [[nodiscard]] const WorkerLedger& gathered() const noexcept {
    return gathered_;
  }
  /// Per-worker ledgers from the last gather (index = node id).
  [[nodiscard]] const std::vector<WorkerLedger>& worker_ledgers()
      const noexcept {
    return worker_ledgers_;
  }
  /// False once any worker was killed: deliveries accounted by a dead
  /// incarnation are unrecoverable, so the strict cross-check is skipped.
  [[nodiscard]] bool ledger_complete() const noexcept {
    return ledger_complete_;
  }
  [[nodiscard]] const WorkerSupervisor& supervisor() const noexcept {
    return *supervisor_;
  }

 protected:
  /// Flush every deferred ack when the outermost batch window closes.
  void on_batch_window_end() override;

 private:
  /// A frame written without waiting for its ack (batched tail): resolved
  /// when the batch window closes.
  struct PendingShip {
    MessageKind kind{};
    NodeId dst{};
    std::uint64_t total_bytes = 0;
    std::uint64_t correlation = 0;
  };

  void handshake(std::uint32_t node);
  void reconnect(std::uint32_t node);
  /// Write one Data frame (header plus zero-filled payload) to
  /// worker[src], reconnecting first if the link is down.  Throws
  /// SocketError on a torn write.
  void write_data_frame(std::uint32_t src, const Frame& f);
  /// Count one acknowledged frame into shipped_.
  void note_shipped(MessageKind kind, std::uint64_t bytes) {
    ++shipped_[static_cast<std::size_t>(kind)].messages;
    shipped_[static_cast<std::size_t>(kind)].bytes += bytes;
  }
  /// One physical delivery attempt cycle with retry/backoff; counts the
  /// frame into shipped_ on success, throws NodeUnreachable on exhaustion.
  /// With `deferred` set (the message joined an open batch) the frame is
  /// written and queued on deferred_[src] instead of waiting for its ack.
  void ship(const WireMessage& m, std::uint32_t dst, bool deferred = false);
  /// Wait for the ack of every frame queued on deferred_[src]; counts the
  /// acked frames into shipped_ and throws NodeUnreachable if any frame got
  /// a Nack or no reply.
  void flush_deferred(std::uint32_t src);
  /// flush_deferred for every worker; a failing queue does not stop the
  /// others, and the first failure is rethrown once all are resolved.
  void flush_all_deferred();
  /// Read frames from worker[node]'s connection until an Ack/Nack matching
  /// `correlation` arrives.  Skipped Ack/Nack frames are remembered in
  /// stray_replies_[node] — they are the acknowledgements of earlier
  /// deferred ships, consumed later by flush_deferred.
  Frame read_reply(std::uint32_t node, std::uint64_t correlation,
                   std::chrono::steady_clock::time_point deadline,
                   std::vector<std::byte>* payload_out = nullptr);

  WireConfig wire_;
  std::unique_ptr<WorkerSupervisor> supervisor_;
  std::vector<Fd> conns_;  // coordinator -> worker[k], index = node id
  std::uint64_t next_correlation_ = 0;
  std::array<KindCounts, kNumWireKinds> shipped_{};
  WorkerLedger gathered_;
  std::vector<WorkerLedger> worker_ledgers_;
  std::vector<std::vector<PendingShip>> deferred_;   // index = src node
  std::vector<std::map<std::uint64_t, FrameType>> stray_replies_;
  bool ledger_complete_ = true;
};

}  // namespace lotec::wire
