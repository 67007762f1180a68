// End-to-end wire transport tests: real lotec_worker OS processes joined by
// Unix-domain sockets, driven through the public Cluster API.
//
// The build pins the worker binary path in LOTEC_WORKER_BIN (a generator
// expression in tests/CMakeLists.txt), so these tests run from any ctest
// working directory without relying on the launcher's beside-the-binary
// search.
#include <gtest/gtest.h>
#include <signal.h>

#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "runtime/cluster.hpp"
#include "sim/validate.hpp"
#include "wire/wire_transport.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

ClusterConfig wire_config(std::size_t nodes) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.wire.enabled = true;
#ifdef LOTEC_WORKER_BIN
  cfg.wire.worker_path = LOTEC_WORKER_BIN;
#endif
  return cfg;
}

const wire::WireTransport& wire_backend(Cluster& cluster) {
  const auto* wt =
      dynamic_cast<const wire::WireTransport*>(&cluster.observe().transport());
  EXPECT_NE(wt, nullptr) << "wire.enabled did not select WireTransport";
  return *wt;
}

TEST(WireTransportTest, ExecutesRealWorkAcrossProcesses) {
  const ClusterConfig cfg = wire_config(3);
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(
        cluster.run_root(obj, "increment", NodeId(i % 3)).committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 6);

  const wire::WireTransport& wt = wire_backend(cluster);
  EXPECT_TRUE(wt.ledger_complete());
  // Every remote frame the coordinator shipped was acknowledged as
  // delivered by exactly one worker (the batch-end crosscheck would have
  // thrown otherwise); the fleet really carried traffic.
  EXPECT_GT(cluster.stats().total().messages, 0u);
}

TEST(WireTransportTest, GoldenCountersMatchInProcess) {
  WorkloadSpec spec;
  spec.num_objects = 6;
  spec.num_transactions = 25;
  spec.contention_theta = 0.6;
  spec.max_depth = 2;
  spec.child_probability = 0.4;
  spec.seed = 0x517E;
  const Workload workload(spec);

  ClusterConfig inproc_cfg;
  inproc_cfg.nodes = 3;
  Cluster inproc(inproc_cfg);
  const auto inproc_results = inproc.execute(workload.instantiate(inproc));

  Cluster wired(wire_config(3));
  const auto wired_results = wired.execute(workload.instantiate(wired));

  ASSERT_EQ(inproc_results.size(), wired_results.size());
  for (std::size_t i = 0; i < inproc_results.size(); ++i)
    EXPECT_EQ(inproc_results[i].committed, wired_results[i].committed)
        << "txn " << i;

  // The golden-counter gate: accounted traffic must be bit-identical per
  // kind, not merely in total.
  EXPECT_EQ(inproc.stats().total().messages, wired.stats().total().messages);
  EXPECT_EQ(inproc.stats().total().bytes, wired.stats().total().bytes);
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(MessageKind::kNumKinds); ++k) {
    const auto kind = static_cast<MessageKind>(k);
    EXPECT_EQ(inproc.stats().by_kind(kind).messages,
              wired.stats().by_kind(kind).messages)
        << to_string(kind);
    EXPECT_EQ(inproc.stats().by_kind(kind).bytes,
              wired.stats().by_kind(kind).bytes)
        << to_string(kind);
  }
  EXPECT_TRUE(validate_quiescent(wired).empty());
}

TEST(WireTransportTest, GatheredLedgersAccountEveryShippedFrame) {
  WorkloadSpec spec;
  spec.num_objects = 5;
  spec.num_transactions = 15;
  spec.seed = 0xACC7;
  const Workload workload(spec);

  Cluster cluster(wire_config(3));
  (void)cluster.execute(workload.instantiate(cluster));

  const wire::WireTransport& wt = wire_backend(cluster);
  ASSERT_TRUE(wt.ledger_complete());
  wire::KindCounts shipped_total, delivered_total;
  for (std::size_t k = 0; k < wire::kNumWireKinds; ++k) {
    shipped_total.messages += wt.shipped()[k].messages;
    shipped_total.bytes += wt.shipped()[k].bytes;
  }
  const wire::KindCounts d = wt.gathered().delivered_total();
  delivered_total = d;
  EXPECT_GT(shipped_total.messages, 0u);
  EXPECT_EQ(shipped_total.messages, delivered_total.messages);
  EXPECT_EQ(shipped_total.bytes, delivered_total.bytes);
  // Retransmission dedup never fired on a clean local socket run.
  EXPECT_EQ(wt.gathered().duplicates_dropped, 0u);
}

TEST(WireTransportTest, ManualFailoverKillsTheRealWorker) {
  // The failover scenario from failover_test: marking the directory home
  // failed must now SIGKILL a real OS process, and the lock service keeps
  // running from the mirror.
  ClusterConfig cfg = wire_config(4);
  cfg.gdo.replicate = true;
  Cluster cluster(cfg);

  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  const NodeId home = cluster.gdo().home_of(obj);
  const NodeId a((home.value() + 2) % 4);
  const NodeId b((home.value() + 3) % 4);

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "increment", i % 2 ? a : b).committed);

  cluster.transport().set_node_failed(home, true);
  const wire::WireTransport& wt = wire_backend(cluster);
  EXPECT_EQ(wt.supervisor().kills(), 1u);
  EXPECT_FALSE(wt.supervisor().alive(home.value()));

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "increment", i % 2 ? a : b).committed)
        << "increment " << i << " failed during failover";

  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 10);
}

TEST(WireTransportTest, FaultEngineCrashRestartDrivesRealProcesses) {
  // The PR 1 recovery path end-to-end over the wire: a FaultEngine crash
  // event SIGKILLs a real worker process mid-batch, the restart event
  // respawns one on the same listen socket, and the batch recovers to an
  // honest, quiescent final state.
  ClusterConfig cfg = wire_config(4);
  cfg.gdo.replicate = true;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.on_kind = MessageKind::kLockAcquireRequest;
  crash.nth = 5;
  crash.node = NodeId(1);
  FaultEvent restart;
  restart.action = FaultAction::kRestartNode;
  restart.at_tick = 80;
  restart.node = NodeId(1);
  cfg.fault.events = {crash, restart};
  Cluster cluster(cfg);

  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  const MethodId m = cluster.method_id(obj, "increment");
  std::vector<RootRequest> reqs;
  for (int i = 0; i < 12; ++i)
    reqs.push_back(
        {obj, m, NodeId(static_cast<std::uint32_t>(i % 4)), {}, nullptr});

  const auto results = cluster.execute(std::move(reqs));

  std::int64_t committed = 0, crashed_in_commit = 0;
  for (const TxnResult& r : results) {
    if (r.committed) ++committed;
    if (r.crashed_in_commit) ++crashed_in_commit;
  }
  EXPECT_GE(committed, 1);
  const std::int64_t value = cluster.peek<std::int64_t>(obj, "value");
  EXPECT_GE(value, committed);
  EXPECT_LE(value, committed + crashed_in_commit);
  EXPECT_TRUE(validate_quiescent(cluster).empty());

  // The crash and restart were real OS-process events, and a killed
  // incarnation's ledger is honestly reported as incomplete.
  EXPECT_EQ(cluster.fault_engine()->stats().crashes, 1u);
  const wire::WireTransport& wt = wire_backend(cluster);
  EXPECT_EQ(wt.supervisor().kills(), 1u);
  EXPECT_GE(wt.supervisor().respawns(), 1u);
  EXPECT_TRUE(wt.supervisor().alive(1));
  EXPECT_FALSE(wt.ledger_complete());
}

TEST(WireTransportTest, CrashInsideBatchWindowResolvesDeferredAcks) {
  // A crash event that kills worker B while frames A->B still owe their
  // acks must not leave the window-close flush to throw: set_node_failed
  // resolves every deferred ack first, so frames sent before the crash
  // count as delivered, as they do in-process.
  wire::WireTransport wt(3, NetworkConfig{}, wire_config(3).wire);
  const NodeId a(0), b(1);
  const WireMessage sync{MessageKind::kGdoReplicaSync, a, b, ObjectId(1),
                         wire::kLockRecordBytes};
  BatchWindow window(wt);
  wt.send(sync);  // batch head: waits for its ack
  wt.send(sync);  // joins the frame: its ack is deferred
  EXPECT_EQ(wt.stats().batched_joins(), 1u);
  EXPECT_EQ(wt.deferred_pending(), 1u);

  wt.set_node_failed(b, true);
  EXPECT_EQ(wt.deferred_pending(), 0u);
  EXPECT_NO_THROW(window.close());

  const auto kind = static_cast<std::size_t>(MessageKind::kGdoReplicaSync);
  EXPECT_EQ(wt.shipped()[kind].messages, 2u);
  EXPECT_FALSE(wt.ledger_complete());  // the killed incarnation's ledger
  EXPECT_FALSE(wt.supervisor().alive(b.value()));
  EXPECT_THROW(wt.send(sync), NodeUnreachable);
}

TEST(WireTransportTest, UnwoundBatchWindowLeavesItsAcksToTheBatchEnd) {
  // An exception unwinding through a round closes its window without a
  // flush (nothing may throw out of the destructor); the batch-end gather
  // resolves the deferred ack and the strict ledger check still holds.
  wire::WireTransport wt(3, NetworkConfig{}, wire_config(3).wire);
  const WireMessage sync{MessageKind::kGdoReplicaSync, NodeId(0), NodeId(1),
                         ObjectId(1), wire::kLockRecordBytes};
  try {
    BatchWindow window(wt);
    wt.send(sync);
    wt.send(sync);
    throw MessageDropped(sync);  // e.g. a fault verdict later in the round
  } catch (const MessageDropped&) {
  }
  EXPECT_EQ(wt.deferred_pending(), 1u);

  wt.on_batch_complete();
  EXPECT_EQ(wt.deferred_pending(), 0u);
  EXPECT_TRUE(wt.ledger_complete());
  const auto kind = static_cast<std::size_t>(MessageKind::kGdoReplicaSync);
  EXPECT_EQ(wt.shipped()[kind].messages, 2u);
  EXPECT_EQ(wt.gathered().delivered[kind].messages, 2u);
}

TEST(WireTransportTest, DeferredFlushResolvesEveryDestination) {
  // Acks relayed back from different destinations reach the source worker
  // over different peer links, in any order.  With worker B stopped, the
  // ack of the later frame to C arrives first; the flush must still not
  // count the frame to B as shipped.
  WireConfig cfg = wire_config(3).wire;
  cfg.ack_timeout_ms = 300;
  cfg.max_send_attempts = 1;
  wire::WireTransport wt(3, NetworkConfig{}, cfg);
  const NodeId a(0), b(1), c(2);
  const auto sync = [&](NodeId dst) {
    return WireMessage{MessageKind::kGdoReplicaSync, a, dst, ObjectId(1),
                       wire::kLockRecordBytes};
  };
  BatchWindow window(wt);
  wt.send(sync(b));  // batch heads: each waits for its ack
  wt.send(sync(c));
  const pid_t stopped = wt.supervisor().pid(b.value());
  ASSERT_EQ(::kill(stopped, SIGSTOP), 0);
  wt.send(sync(b));  // joins: acks deferred
  wt.send(sync(c));
  EXPECT_EQ(wt.deferred_pending(), 2u);

  EXPECT_THROW(window.close(), NodeUnreachable);
  EXPECT_EQ(wt.deferred_pending(), 0u);
  const auto kind = static_cast<std::size_t>(MessageKind::kGdoReplicaSync);
  EXPECT_EQ(wt.shipped()[kind].messages, 3u);  // not the frame to B
  EXPECT_FALSE(wt.ledger_complete());
  ::kill(stopped, SIGCONT);
}

// --- every plane composes with the wire -------------------------------------
// The coordinator makes every protocol, fault and checker decision before a
// frame is shipped, so each plane runs the same on the wire as in-process:
// the same per-kind traffic, a worker ledger that accounts every shipped
// frame, and clean oracles (all five ride along as the check sink).

struct WirePlane {
  const char* name;
  void (*configure)(ClusterConfig&);
  /// The plane really ran (its traffic or its faults showed up).
  bool (*engaged)(Cluster&);
  double read_only_fraction = 0.0;
};

void PrintTo(const WirePlane& plane, std::ostream* os) { *os << plane.name; }

class WireCompositionTest : public ::testing::TestWithParam<WirePlane> {};

TEST_P(WireCompositionTest, MatchesInProcess) {
  const WirePlane& plane = GetParam();
  WorkloadSpec spec;
  spec.num_objects = 8;
  spec.num_transactions = 80;
  spec.contention_theta = 0.6;
  spec.max_depth = 2;
  spec.child_probability = 0.4;
  spec.seed = 0xC0DE;
  const Workload workload(spec);

  const auto run = [&](bool wired) {
    check::SerializabilityOracle ser;
    check::LockDisciplineOracle lock;
    check::CoherenceOracle coherence;
    check::CacheEpochOracle cache;
    check::RingOwnershipOracle ring;
    check::FanoutSink fanout;
    check::OracleBase* oracles[] = {&ser, &lock, &coherence, &cache, &ring};
    for (check::OracleBase* o : oracles) fanout.add(o);

    ClusterConfig cfg = wired ? wire_config(4) : ClusterConfig{};
    cfg.nodes = 4;
    cfg.check_sink = &fanout;
    plane.configure(cfg);
    Cluster cluster(cfg);
    (void)cluster.execute(
        workload.instantiate(cluster, plane.read_only_fraction));

    EXPECT_TRUE(plane.engaged(cluster)) << (wired ? "wire" : "in-process");
    for (const auto& v : validate_quiescent(cluster)) ADD_FAILURE() << v;
    for (check::OracleBase* o : oracles)
      if (const auto v = o->finish())
        ADD_FAILURE() << v->oracle << ": " << v->detail;
    if (wired) {
      // The strict batch-end cross-check ran (no kill downgraded it) and
      // every shipped frame was delivered exactly once.
      const wire::WireTransport& wt = wire_backend(cluster);
      EXPECT_TRUE(wt.ledger_complete());
      for (std::size_t k = 0; k < wire::kNumWireKinds; ++k)
        EXPECT_EQ(wt.shipped()[k], wt.gathered().delivered[k])
            << to_string(static_cast<MessageKind>(k));
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_kind;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(MessageKind::kNumKinds); ++k) {
      const auto c = cluster.stats().by_kind(static_cast<MessageKind>(k));
      by_kind.emplace_back(c.messages, c.bytes);
    }
    return by_kind;
  };
  const auto inproc = run(false);
  EXPECT_EQ(inproc, run(true));
}

INSTANTIATE_TEST_SUITE_P(
    Planes, WireCompositionTest,
    ::testing::Values(
        WirePlane{"MvRead",
                  [](ClusterConfig& cfg) { cfg.mv_read = true; },
                  [](Cluster& c) {
                    return c.stats()
                               .by_kind(MessageKind::kSnapshotFetchRequest)
                               .messages > 0;
                  },
                  0.5},
        WirePlane{"RingChurn",
                  [](ClusterConfig& cfg) {
                    cfg.gdo.replicate = true;
                    cfg.gdo.ring.enabled = true;
                    cfg.fault = fault_presets::rebalance(
                        {NodeId(1), NodeId(2)}, /*cycles=*/3,
                        /*first_tick=*/20, /*window=*/40);
                  },
                  [](Cluster& c) { return c.gdo().ring_epoch() >= 6; }},
        WirePlane{"MessageChaos",
                  [](ClusterConfig& cfg) {
                    cfg.fault = fault_presets::message_chaos(
                        /*seed=*/11, /*drop=*/0.02, /*dup=*/0.02,
                        /*delay=*/0.05);
                    FaultEvent drop;
                    drop.action = FaultAction::kDropMessage;
                    drop.on_kind = MessageKind::kPageFetchRequest;
                    drop.nth = 3;
                    cfg.fault.events.push_back(drop);
                  },
                  [](Cluster& c) {
                    const FaultStats fs = c.fault_engine()->stats();
                    return fs.dropped > 1 && fs.duplicated > 0 &&
                           fs.delayed > 0;
                  }},
        WirePlane{"CheckSinkAlone", [](ClusterConfig&) {},
                  [](Cluster&) { return true; }}),
    [](const ::testing::TestParamInfo<WirePlane>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace lotec
