// Wall-clock bench for the wire transport: the same fig2 scenario executed
// on the in-process transport and as real OS processes over Unix-domain
// sockets (`--distributed`), reporting sustained throughput (txn/s over
// one full batch) and closed-loop latency (p50/p99 over single-request
// batches).  Writes BENCH_walltime.json — the artifact the distributed
// CI smoke job uploads.
//
// The two modes must account byte-identical traffic (same seed, same
// scenario, same decision code path); this bench exits non-zero if the
// message/byte totals diverge, doubling as a coarse golden-counter gate.
//
// The wire rows need the lotec_worker binary: resolved via $LOTEC_WORKER
// or next to this executable's sibling tools/ directory; when neither
// exists the wire mode is skipped (reported in the JSON) so the bench
// still runs from unusual layouts.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "json_out.hpp"
#include "runtime/cluster.hpp"
#include "sim/scenarios.hpp"
#include "wire/launcher.hpp"
#include "workload/generator.hpp"

using namespace lotec;

namespace {

constexpr std::size_t kNodes = 8;
constexpr std::size_t kLatencyProbes = 100;

struct ModeOutcome {
  double batch_seconds = 0;
  std::size_t committed = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<double> latencies_us;
};

ClusterConfig make_config(bool wire, const std::string& worker_path) {
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.wire.enabled = wire;
  cfg.wire.worker_path = worker_path;
  return cfg;
}

ModeOutcome run_mode(const Workload& workload, bool wire,
                     const std::string& worker_path) {
  ModeOutcome out;
  {
    // Sustained throughput: one full batch, all roots in flight.
    Cluster cluster(make_config(wire, worker_path));
    std::vector<RootRequest> requests = workload.instantiate(cluster);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<TxnResult> results =
        cluster.execute(std::move(requests));
    const auto t1 = std::chrono::steady_clock::now();
    out.batch_seconds = std::chrono::duration<double>(t1 - t0).count();
    for (const TxnResult& r : results) out.committed += r.committed ? 1 : 0;
    out.messages = cluster.stats().total().messages;
    out.bytes = cluster.stats().total().bytes;
  }
  {
    // Closed-loop latency: one root per batch on a fresh cluster (the
    // worker fleet persists across batches in wire mode, so probes measure
    // steady-state round trips, not process spawning).
    Cluster cluster(make_config(wire, worker_path));
    std::vector<RootRequest> requests = workload.instantiate(cluster);
    const std::size_t probes = std::min(kLatencyProbes, requests.size());
    out.latencies_us.reserve(probes);
    for (std::size_t i = 0; i < probes; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)cluster.execute({requests[i]});
      const auto t1 = std::chrono::steady_clock::now();
      out.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  return out;
}

void emit_row(bench::BenchJson& json, const std::string& label,
              const ModeOutcome& m) {
  json.row(label)
      .field("batch_seconds", m.batch_seconds)
      .field("txn_per_sec",
             m.batch_seconds > 0
                 ? static_cast<double>(m.committed) / m.batch_seconds
                 : 0.0)
      .field("committed", static_cast<std::uint64_t>(m.committed))
      .field("messages", m.messages)
      .field("bytes", m.bytes)
      .field("latency_p50_us", percentile(m.latencies_us, 50))
      .field("latency_p99_us", percentile(m.latencies_us, 99));
}

}  // namespace

int main() {
  const Workload workload(scenarios::medium_high_contention());

  std::string worker_path;
  bool wire_available = true;
  try {
    worker_path = wire::find_worker_binary(WireConfig{});
  } catch (const Error& e) {
    wire_available = false;
    std::cout << "wire mode skipped: " << e.what() << "\n";
  }

  const ModeOutcome inproc = run_mode(workload, false, "");
  std::cout << "inproc: " << inproc.committed << " committed in "
            << inproc.batch_seconds << " s ("
            << (inproc.committed / inproc.batch_seconds) << " txn/s), p50="
            << percentile(inproc.latencies_us, 50) << " us, p99="
            << percentile(inproc.latencies_us, 99) << " us\n";

  bench::BenchJson json("walltime");
  emit_row(json, "inproc", inproc);

  int exit_code = 0;
  if (wire_available) {
    const ModeOutcome wired = run_mode(workload, true, worker_path);
    std::cout << "wire:   " << wired.committed << " committed in "
              << wired.batch_seconds << " s ("
              << (wired.committed / wired.batch_seconds) << " txn/s), p50="
              << percentile(wired.latencies_us, 50) << " us, p99="
              << percentile(wired.latencies_us, 99) << " us\n";
    emit_row(json, "wire", wired);
    if (wired.messages != inproc.messages || wired.bytes != inproc.bytes) {
      std::cerr << "FAIL: accounted traffic diverged between transports: "
                << "inproc " << inproc.messages << " msgs / " << inproc.bytes
                << " bytes, wire " << wired.messages << " msgs / "
                << wired.bytes << " bytes\n";
      exit_code = 1;
    } else {
      std::cout << "traffic identical across transports: " << inproc.messages
                << " msgs, " << inproc.bytes << " bytes\n";
    }
  }
  json.row("meta").field("wire_available",
                         static_cast<std::uint64_t>(wire_available ? 1 : 0));
  json.write();
  return exit_code;
}
