#include "wire/wire_transport.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

namespace lotec::wire {

WireTransport::WireTransport(std::size_t num_nodes, NetworkConfig net_config,
                             WireConfig wire_config)
    : Transport(num_nodes, net_config),
      wire_(std::move(wire_config)),
      supervisor_(std::make_unique<WorkerSupervisor>(
          wire_, static_cast<std::uint32_t>(num_nodes))) {
  conns_.resize(num_nodes);
  worker_ledgers_.resize(num_nodes);
  deferred_.resize(num_nodes);
  stray_replies_.resize(num_nodes);
  for (std::uint32_t k = 0; k < num_nodes; ++k) handshake(k);
}

WireTransport::~WireTransport() {
  // Windows are RAII-closed by their opener, so nothing should be pending
  // here; if teardown happens mid-window anyway (exception unwind), drop
  // the queue silently — the shutdown below supersedes any flush.
  for (auto& v : deferred_) v.clear();
  // Graceful shutdown first so workers flush span files; the supervisor's
  // destructor SIGKILLs whatever ignored us.
  for (std::uint32_t k = 0; k < conns_.size(); ++k) {
    if (!conns_[k].valid()) continue;
    try {
      Frame f;
      f.type = FrameType::kShutdown;
      f.dst = k;
      f.correlation = ++next_correlation_;
      write_full(conns_[k], encode_frame(f));
      (void)read_reply(k, f.correlation,
                       deadline_after(Millis(wire_.ack_timeout_ms)));
    } catch (const Error&) {
      // Best effort; the supervisor cleans up.
    }
  }
}

void WireTransport::handshake(std::uint32_t node) {
  conns_[node] = supervisor_->connect_to(
      node, Millis(wire_.handshake_timeout_ms));
  Frame hello;
  hello.type = FrameType::kHello;
  hello.src = kCoordinatorNode;
  hello.dst = node;
  hello.correlation = ++next_correlation_;
  write_full(conns_[node], encode_frame(hello));
  const Frame reply =
      read_reply(node, hello.correlation,
                 deadline_after(Millis(wire_.handshake_timeout_ms)));
  if (reply.type != FrameType::kHelloAck)
    throw Error("wire: worker " + std::to_string(node) +
                " handshake failed (got frame type " +
                std::to_string(static_cast<int>(reply.type)) + ")");
}

void WireTransport::reconnect(std::uint32_t node) {
  conns_[node].reset();
  handshake(node);
}

Frame WireTransport::read_reply(std::uint32_t node, std::uint64_t correlation,
                                std::chrono::steady_clock::time_point deadline,
                                std::vector<std::byte>* payload_out) {
  const Fd& conn = conns_[node];
  for (;;) {
    std::array<std::byte, kFrameSize> header;
    read_full(conn, header, deadline);
    const Frame f = decode_frame(header);
    std::vector<std::byte> payload(f.payload_bytes);
    if (f.payload_bytes > 0) read_full(conn, payload, deadline);
    if (f.correlation == correlation &&
        (f.type == FrameType::kAck || f.type == FrameType::kNack ||
         f.type == FrameType::kHelloAck || f.type == FrameType::kStatsReply)) {
      if (payload_out != nullptr) *payload_out = std::move(payload);
      return f;
    }
    // Not ours.  An Ack/Nack belongs to an earlier deferred ship on this
    // connection — remember it for flush_deferred.  Anything else is a
    // stale reply from a timed-out attempt: skip and keep reading.
    if (f.type == FrameType::kAck || f.type == FrameType::kNack)
      stray_replies_[node].emplace(f.correlation, f.type);
  }
}

void WireTransport::write_data_frame(std::uint32_t src, const Frame& f) {
  if (!conns_[src].valid()) reconnect(src);
  write_full(conns_[src], encode_frame(f));
  static const std::array<std::byte, 64 * 1024> zeros{};
  for (std::uint64_t left = f.payload_bytes; left > 0;) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, zeros.size()));
    write_full(conns_[src], std::span<const std::byte>(zeros.data(), n));
    left -= n;
  }
}

void WireTransport::ship(const WireMessage& m, std::uint32_t dst,
                         bool deferred) {
  const std::uint32_t src = m.src.value();
  Frame f = data_frame(m, ++next_correlation_);
  f.dst = dst;  // send_to_all ships one copy per destination
  if (deferred) {
    // Batched tail: write the frame and move on.  No retry cycle — there is
    // no ack to time out on here; flush_deferred waits for this frame's own
    // ack when the window closes.  A torn write is a hard connection
    // failure, mapped to the same NodeUnreachable the retry exhaustion path
    // produces.
    try {
      write_data_frame(src, f);
    } catch (const SocketError&) {
      conns_[src].reset();
      ledger_complete_ = false;
      throw NodeUnreachable(m.src, NodeId(dst));
    }
    deferred_[src].push_back(
        PendingShip{m.kind, NodeId(dst), m.total_bytes(), f.correlation});
    return;
  }
  Millis timeout(wire_.ack_timeout_ms);
  for (std::uint32_t attempt = 0; attempt < wire_.max_send_attempts;
       ++attempt) {
    try {
      write_data_frame(src, f);
      const Frame reply =
          read_reply(src, f.correlation, deadline_after(timeout));
      if (reply.type == FrameType::kAck) {
        note_shipped(m.kind, m.total_bytes());
        return;
      }
      // Nack: the relay chain reported the destination unreachable or a
      // timeout; retry after backoff like a lost message.
    } catch (const SocketError&) {
      // Connection to worker[src] is gone; next attempt reconnects.
      conns_[src].reset();
    }
    timeout *= 2;
  }
  // The message was accounted but never physically delivered: the strict
  // batch-end ledger comparison can no longer hold.
  ledger_complete_ = false;
  throw NodeUnreachable(m.src, NodeId(dst));
}

void WireTransport::flush_deferred(std::uint32_t src) {
  auto& pending = deferred_[src];
  if (pending.empty()) return;
  auto& stray = stray_replies_[src];
  // Acks relayed back from different destination workers reach worker[src]
  // over different peer links, so they arrive in any order: every pending
  // correlation is resolved on its own, under one shared deadline.
  const auto deadline = deadline_after(
      Millis(wire_.ack_timeout_ms *
             std::max<std::uint32_t>(1, wire_.max_send_attempts)));
  std::optional<NodeId> failed_dst;
  for (const PendingShip& p : pending) {
    FrameType reply = FrameType::kNack;
    if (const auto it = stray.find(p.correlation); it != stray.end()) {
      reply = it->second;
    } else if (conns_[src].valid()) {
      try {
        reply = read_reply(src, p.correlation, deadline).type;
      } catch (const SocketError&) {
        conns_[src].reset();
      }
    }
    if (reply == FrameType::kAck)
      note_shipped(p.kind, p.total_bytes);
    else if (!failed_dst)
      failed_dst = p.dst;
  }
  pending.clear();
  // Every deferred frame is resolved, so what is left are replies nothing
  // will look up again (a retransmit's second ack, an ack after its relay
  // timed out).
  stray.clear();
  if (failed_dst) {
    ledger_complete_ = false;
    throw NodeUnreachable(NodeId(src), *failed_dst);
  }
}

void WireTransport::flush_all_deferred() {
  std::optional<NodeUnreachable> first;
  for (std::uint32_t src = 0; src < deferred_.size(); ++src) {
    try {
      flush_deferred(src);
    } catch (const NodeUnreachable& e) {
      if (!first) first = e;
    }
  }
  if (first) throw *first;
}

void WireTransport::on_batch_window_end() { flush_all_deferred(); }

void WireTransport::send(const WireMessage& m) {
  // Base class: tracer tick, causal stamp, probe, fault hooks,
  // reachability, NetworkStats accounting.  Throws exactly as in-process.
  Transport::send(m);
  if (m.src == m.dst) return;  // local: no wire traffic in either mode
  // A message that joined an open batch pipelines: its frame goes out now,
  // its ack is collected when the batch window closes.
  ship(m, m.dst.value(), last_send_joined());
}

std::vector<NodeId> WireTransport::send_to_all(
    const WireMessage& m, const std::vector<NodeId>& destinations) {
  std::vector<NodeId> unreachable = Transport::send_to_all(m, destinations);
  // Ship one physical copy per destination the base class accounted as
  // reached.  (With multicast the *accounting* records one wire copy; the
  // cross-check compares shipped_ — what this method counted — against the
  // workers' delivered ledgers, so the bases differ by design and stay
  // consistent.)
  for (const NodeId dst : destinations) {
    if (dst == m.src) continue;
    bool skipped = false;
    for (const NodeId u : unreachable)
      if (u == dst) {
        skipped = true;
        break;
      }
    if (!skipped) ship(m, dst.value());
  }
  return unreachable;
}

void WireTransport::set_node_failed(NodeId node, bool failed) {
  if (failed) {
    // Frames shipped before the crash event count as delivered, as they do
    // in-process: resolve every deferred ack while the worker still runs.
    // A flush that fails anyway has marked the ledger incomplete; the
    // crash proceeds regardless (this runs inside a fault event).
    try {
      flush_all_deferred();
    } catch (const NodeUnreachable&) {
    }
  }
  Transport::set_node_failed(node, failed);
  const std::uint32_t k = node.value();
  if (failed) {
    if (supervisor_->alive(k)) {
      supervisor_->kill_worker(k);
      // Whatever that incarnation had delivered died with it.
      ledger_complete_ = false;
    }
    conns_[k].reset();
    stray_replies_[k].clear();
  } else if (!supervisor_->alive(k)) {
    supervisor_->respawn_worker(k);
    reconnect(k);
  }
}

void WireTransport::on_batch_complete() {
  // No window is open here, but one an exception unwound through closed
  // without flushing, and the ledger cross-check below requires every
  // shipped frame resolved.
  flush_all_deferred();
  gathered_ = WorkerLedger{};
  for (std::uint32_t k = 0; k < conns_.size(); ++k) {
    if (!supervisor_->alive(k)) {
      worker_ledgers_[k] = WorkerLedger{};
      continue;
    }
    Frame req;
    req.type = FrameType::kStatsRequest;
    req.dst = k;
    req.correlation = ++next_correlation_;
    std::vector<std::byte> payload;
    try {
      if (!conns_[k].valid()) reconnect(k);
      write_full(conns_[k], encode_frame(req));
      const Frame reply =
          read_reply(k, req.correlation,
                     deadline_after(Millis(wire_.handshake_timeout_ms)),
                     &payload);
      if (reply.type != FrameType::kStatsReply)
        throw Error("wire: worker " + std::to_string(k) +
                    " answered the stats request with frame type " +
                    std::to_string(static_cast<int>(reply.type)));
    } catch (const SocketError& e) {
      throw Error("wire: gathering stats from worker " + std::to_string(k) +
                  ": " + e.what());
    }
    worker_ledgers_[k] = parse_ledger(payload);
    gathered_ += worker_ledgers_[k];
  }
  if (!ledger_complete_) return;  // kills happened; strict check impossible
  for (std::size_t kind = 0; kind < kNumWireKinds; ++kind) {
    if (shipped_[kind] == gathered_.delivered[kind]) continue;
    throw Error(
        "wire: ledger mismatch for " +
        std::string(to_string(static_cast<MessageKind>(kind))) +
        ": coordinator shipped " + std::to_string(shipped_[kind].messages) +
        " msgs / " + std::to_string(shipped_[kind].bytes) +
        " bytes, workers delivered " +
        std::to_string(gathered_.delivered[kind].messages) + " msgs / " +
        std::to_string(gathered_.delivered[kind].bytes) + " bytes");
  }
}

}  // namespace lotec::wire
