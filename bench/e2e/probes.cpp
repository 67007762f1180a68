#include "probes.hpp"

#include <sys/socket.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "gdo/gdo_service.hpp"
#include "net/transport.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "page/object_image.hpp"
#include "page/undo_log.hpp"
#include "runtime/cluster.hpp"
#include "runtime/scheduler.hpp"
#include "wire/frame.hpp"
#include "wire/socket.hpp"

namespace lotec::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSlices = 5;
constexpr std::size_t kMaxSlices = 2000;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Call `slice` (which returns how many units of work it did) until the
/// budget is spent, at least kMinSlices times; median ns per unit.
double median_ns_per_unit(double budget_s,
                          const std::function<double()>& slice) {
  std::vector<double> per_unit;
  const auto start = Clock::now();
  while (per_unit.size() < kMinSlices ||
         (elapsed_ns(start) < budget_s * 1e9 && per_unit.size() < kMaxSlices)) {
    const auto t0 = Clock::now();
    const double units = slice();
    per_unit.push_back(elapsed_ns(t0) / units);
  }
  return percentile(std::move(per_unit), 50);
}

/// Median of (b - a) over paired slices, each side timed back to back so a
/// host slowdown hits both.
double median_paired_delta_ns(double budget_s, const std::function<void()>& a,
                              const std::function<void()>& b) {
  std::vector<double> deltas;
  const auto start = Clock::now();
  while (deltas.size() < kMinSlices ||
         (elapsed_ns(start) < budget_s * 1e9 && deltas.size() < kMaxSlices)) {
    auto t0 = Clock::now();
    a();
    const double ta = elapsed_ns(t0);
    t0 = Clock::now();
    b();
    deltas.push_back(elapsed_ns(t0) - ta);
  }
  return percentile(std::move(deltas), 50);
}

// --- runtime: TokenScheduler ------------------------------------------------

constexpr std::size_t kFamilies = 16;  // ClusterConfig::max_active_families

void run_families(bool preempt) {
  TokenScheduler::Config cfg;
  cfg.max_active = kFamilies;
  TokenScheduler sched(cfg);
  std::vector<std::function<void()>> bodies;
  bodies.reserve(kFamilies);
  for (std::size_t i = 0; i < kFamilies; ++i) {
    if (preempt)
      bodies.emplace_back([&sched, i] { sched.preempt(i); });
    else
      bodies.emplace_back([] {});
  }
  sched.run(std::move(bodies), [] { return Scheduler::kNoVictim; });
}

// --- gdo: GdoService acquire + release --------------------------------------

double probe_gdo(double budget_s) {
  constexpr std::uint64_t kObjects = 64;
  constexpr std::size_t kPages = 2;
  Transport transport(4);
  GdoConfig cfg;
  cfg.replicate = true;
  GdoService gdo(transport, cfg);
  for (std::uint64_t i = 0; i < kObjects; ++i)
    gdo.register_object(ObjectId(i + 1), kPages,
                        NodeId(static_cast<std::uint32_t>(i % 4)));
  ReleaseInfo info;
  info.dirty = PageSet(kPages);
  info.dirty.insert(PageIndex(0));
  std::uint64_t family = 0;
  return median_ns_per_unit(budget_s, [&] {
    constexpr int kOps = 256;
    for (int k = 0; k < kOps; ++k) {
      ++family;
      const ObjectId object(family % kObjects + 1);
      const NodeId site(static_cast<std::uint32_t>(family % 4));
      const TxnId txn{FamilyId(family), 0};
      const AcquireResult r = gdo.acquire(object, txn, site, LockMode::kWrite);
      if (r.status != AcquireStatus::kGranted)
        throw Error("gdo probe: uncontended acquire was queued");
      (void)gdo.release_family(object, FamilyId(family), site, &info);
    }
    return static_cast<double>(kOps);
  });
}

// --- page: ObjectImage copy and UndoLog capture -----------------------------

double probe_page_copy(double budget_s) {
  constexpr std::uint32_t kPage = 4096;
  ObjectImage img(ObjectId(1), 1, kPage);
  img.materialize_all();
  std::vector<std::byte> buf(kPage, std::byte{0x5a});
  return median_ns_per_unit(budget_s, [&] {
    constexpr int kOps = 256;
    for (int k = 0; k < kOps; ++k) {
      buf[static_cast<std::size_t>(k)] = static_cast<std::byte>(k);
      img.write_bytes(0, buf);
    }
    img.clear_dirty();  // keeps the per-epoch range list from growing
    return static_cast<double>(kOps);
  });
}

double probe_undo(double budget_s, unsigned attr_bytes) {
  constexpr std::size_t kPages = 4;
  constexpr std::uint32_t kPage = 4096;
  ObjectImage img(ObjectId(1), kPages, kPage);
  img.materialize_all();
  const std::uint64_t slots = kPages * kPage / attr_bytes;
  UndoLog log;
  const double kib_per_capture = attr_bytes / 1024.0;
  return median_ns_per_unit(budget_s, [&] {
    constexpr int kOps = 64;  // one attempt's worth of captures, then reset
    for (int k = 0; k < kOps; ++k) {
      const std::uint64_t slot = static_cast<std::uint64_t>(k) % slots;
      log.before_write(img, slot * attr_bytes, attr_bytes);
    }
    log.clear();
    return kOps * kib_per_capture;
  });
}

// --- method: attribute writes through a real method body --------------------

double probe_method(double budget_s, unsigned attr_bytes) {
  constexpr std::uint32_t kAttrs = 16;
  ClusterConfig cfg;
  cfg.nodes = 1;  // every page local: the run is pure method execution
  Cluster cluster(cfg);
  auto writer = [attr_bytes](std::uint32_t count) {
    return [attr_bytes, count](MethodContext& ctx) {
      std::vector<std::byte> buf(attr_bytes, std::byte{0x11});
      for (std::uint32_t a = 0; a < count; ++a) ctx.write_raw(AttrId(a), buf);
    };
  };
  ClassBuilder writer_class("E2eProbeWriter", cfg.page_size);
  std::vector<std::string> names;
  for (std::uint32_t a = 0; a < kAttrs; ++a) {
    names.push_back("a" + std::to_string(a));
    writer_class.attribute(names.back(), attr_bytes);
  }
  writer_class.method("w1", {}, {names.front()}, writer(1));
  writer_class.method("w16", {}, names, writer(kAttrs));
  const ObjectId object =
      cluster.create_object(cluster.define_class(writer_class));
  (void)cluster.run_root(object, "w16");  // materialize before timing
  const auto run = [&](const char* method) {
    if (!cluster.run_root(object, method).committed)
      throw Error("method probe: run_root did not commit");
  };
  return median_paired_delta_ns(budget_s, [&] { run("w1"); },
                                [&] { run("w16"); }) /
         (kAttrs - 1);
}

// --- net: Transport::send as the cluster wires it ---------------------------

double probe_send(double budget_s) {
  constexpr std::uint32_t kNodes = 4;
  Transport transport(kNodes);
  FlightRecorder recorder(kNodes, 512);
  MetricsRegistry registry;
  SpanTracer tracer;  // attached but disabled, as in an untraced cluster
  transport.set_tracer(&tracer);
  transport.set_flight_recorder(&recorder);
  transport.set_send_counters(&registry.counter("net.logical_sends"),
                              &registry.counter("net.physical_sends"));
  WireMessage m{MessageKind::kLockAcquireRequest, NodeId(0), NodeId(1),
                ObjectId(7), wire::kLockRecordBytes};
  std::uint32_t k = 0;
  return median_ns_per_unit(budget_s, [&] {
    constexpr int kOps = 1024;
    for (int i = 0; i < kOps; ++i, ++k) {
      m.src = NodeId(k % kNodes);
      m.dst = NodeId((k + 1) % kNodes);
      transport.send(m);
    }
    return static_cast<double>(kOps);
  });
}

// --- wire: frame codec and a socket round trip ------------------------------

double probe_codec(double budget_s) {
  const WireMessage m{MessageKind::kPageFetchReply, NodeId(1), NodeId(2),
                      ObjectId(42), 4096};
  wire::Frame frame = wire::data_frame(m, 1);
  std::array<std::byte, wire::kFrameSize> buf{};
  std::uint64_t sink = 0;
  const double ns = median_ns_per_unit(budget_s, [&] {
    constexpr int kOps = 4096;
    for (int i = 0; i < kOps; ++i) {
      ++frame.correlation;
      wire::encode_frame(frame, buf);
      sink += wire::decode_frame(buf).correlation;
    }
    return static_cast<double>(kOps);
  });
  if (sink == 0) throw Error("codec probe: decoded nothing");
  return ns;
}

double probe_uds_rtt(double budget_s) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw Error("uds probe: socketpair failed");
  wire::Fd near(sv[0]);
  wire::Fd far(sv[1]);
  std::exception_ptr echo_error;
  // Echo until the near end closes (read_full then throws on EOF).
  std::thread echo([&far, &echo_error] {
    std::array<std::byte, 64> buf{};
    try {
      while (true) {
        wire::read_full(far, buf, wire::deadline_after(wire::Millis(60000)));
        wire::write_full(far, buf);
      }
    } catch (const wire::SocketError&) {
      // EOF: the prober is done.
    } catch (...) {
      echo_error = std::current_exception();
    }
  });
  std::array<std::byte, 64> buf{};
  double ns = 0;
  try {
    ns = median_ns_per_unit(budget_s, [&] {
      constexpr int kOps = 64;
      for (int i = 0; i < kOps; ++i) {
        wire::write_full(near, buf);
        wire::read_full(near, buf, wire::deadline_after(wire::Millis(10000)));
      }
      return static_cast<double>(kOps);
    });
  } catch (...) {
    near.reset();
    echo.join();
    throw;
  }
  near.reset();
  echo.join();
  if (echo_error) std::rethrow_exception(echo_error);
  return ns / 1000.0;
}

}  // namespace

ProbeResults run_probes(double budget_s, unsigned attr_bytes) {
  ProbeResults r;
  r.sched_spawn_ns =
      median_ns_per_unit(budget_s, [] {
        run_families(false);
        return static_cast<double>(kFamilies);
      });
  r.sched_handoff_ns =
      median_paired_delta_ns(budget_s, [] { run_families(false); },
                             [] { run_families(true); }) /
      kFamilies;
  r.gdo_acquire_release_ns = probe_gdo(budget_s);
  r.page_copy_ns = probe_page_copy(budget_s);
  r.undo_capture_ns_per_kb = probe_undo(budget_s, attr_bytes);
  r.method_attr_write_ns = probe_method(budget_s, attr_bytes);
  r.net_send_ns = probe_send(budget_s);
  r.wire_codec_ns = probe_codec(budget_s);
  r.wire_uds_rtt_us = probe_uds_rtt(budget_s);
  return r;
}

}  // namespace lotec::e2e
