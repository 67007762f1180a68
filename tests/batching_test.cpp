// Message batching is a physical-only optimisation and the only send path:
// every directory round (release, replica-sync, callback) coalesces traffic
// to one destination into one frame, while the logical ledgers — totals,
// per-kind, per-object — stay exactly what the protocol sent (the golden
// counts in message_count_test pin them).  These tests pin the frame cut on
// a real workload, show it composes with crashes and message chaos, and run
// the schedule checker's oracles over batched schedules to show the
// protocol semantics are untouched.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/checker.hpp"
#include "check/oracles.hpp"
#include "fault/fault_engine.hpp"
#include "sim/validate.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

WorkloadSpec batching_spec() {
  // Multi-object families under contention: root release batches span
  // several objects whose directory homes collide, which is what gives the
  // release/replica-sync rounds something to coalesce.
  WorkloadSpec spec;
  spec.num_objects = 24;
  spec.min_pages = 1;
  spec.max_pages = 3;
  spec.num_transactions = 60;
  spec.max_depth = 3;
  spec.child_probability = 0.7;
  spec.max_children = 3;
  spec.contention_theta = 0.9;
  spec.seed = 404;
  return spec;
}

ClusterConfig batching_config() {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = ProtocolKind::kLotec;
  cfg.seed = 10;
  cfg.gdo.replicate = true;  // replica-sync fan-out gives rounds to coalesce
  return cfg;
}

/// Every saved physical send is one logical message that joined a frame.
void expect_frame_cut(const NetworkStats& stats) {
  const TrafficCounter total = stats.total();
  const TrafficCounter physical = stats.physical();
  EXPECT_GT(stats.batched_joins(), 0u);
  EXPECT_EQ(physical.messages + stats.batched_joins(), total.messages);
  EXPECT_LT(physical.messages, total.messages);
  EXPECT_LT(physical.bytes, total.bytes);
}

TEST(BatchingTest, RoundsCoalesceIntoFewerFrames) {
  Cluster cluster(batching_config());
  const Workload workload(batching_spec());
  std::size_t committed = 0;
  for (const auto& r : cluster.execute(workload.instantiate(cluster)))
    committed += r.committed ? 1 : 0;
  EXPECT_EQ(committed, batching_spec().num_transactions);
  expect_frame_cut(cluster.stats());
  for (const auto& v : validate_quiescent(cluster)) ADD_FAILURE() << v;
}

TEST(BatchingTest, BatchedRoundsComposeWithCrashesAndChaos) {
  // Transport::send runs the fault verdict and the reachability check on
  // every message before the batch decision, so crashes, restarts and
  // drops land on batched rounds exactly as on single messages.
  check::SerializabilityOracle ser;
  check::LockDisciplineOracle lock;
  check::CoherenceOracle coherence;
  check::CacheEpochOracle cache;
  check::FanoutSink fanout;
  check::OracleBase* oracles[] = {&ser, &lock, &coherence, &cache};
  for (check::OracleBase* o : oracles) fanout.add(o);

  ClusterConfig cfg = batching_config();
  cfg.fault = fault_presets::chaos(NodeId(1), NodeId(3), /*seed=*/7,
                                   /*first_crash_tick=*/200, /*window=*/300,
                                   /*drop=*/0.02);
  cfg.check_sink = &fanout;
  Cluster cluster(cfg);
  const Workload workload(batching_spec());
  (void)cluster.execute(workload.instantiate(cluster));

  const FaultStats fs = cluster.fault_engine()->stats();
  EXPECT_EQ(fs.crashes, 2u);
  EXPECT_GT(fs.dropped, 0u);
  expect_frame_cut(cluster.stats());
  for (const auto& v : validate_quiescent(cluster)) ADD_FAILURE() << v;
  for (check::OracleBase* o : oracles)
    if (const auto v = o->finish())
      ADD_FAILURE() << v->oracle << ": " << v->detail;
}

TEST(BatchingTest, CheckerOraclesStayGreenOverBatchedSchedules) {
  check::CheckOptions opts;
  opts.scenario = check::check_tiny();
  opts.mode = check::ExploreMode::kRandom;
  opts.max_schedules = 40;
  opts.minimize = false;
  check::ScheduleChecker checker(opts);
  const check::CheckReport report = checker.run();
  EXPECT_EQ(report.schedules_run, 40u);
  EXPECT_EQ(report.schedules_with_errors, 0u);
  EXPECT_FALSE(report.violation.has_value()) << report.summary();
}

}  // namespace
}  // namespace lotec
