// ExperimentOptions::validate(): every incoherent knob combination is
// rejected up front with an actionable UsageError (run_scenario calls it
// before building a cluster).
#include <gtest/gtest.h>

#include <set>

#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"

namespace lotec {
namespace {

/// The validation error for `options` must mention every `needles` substring
/// (the message has to tell the user what to change, not just say "invalid").
void expect_rejected(const ExperimentOptions& options,
                     std::initializer_list<const char*> needles) {
  try {
    options.validate();
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    for (const char* needle : needles)
      EXPECT_NE(what.find(needle), std::string::npos)
          << "message '" << what << "' lacks '" << needle << "'";
  }
}

TEST(ExperimentOptionsTest, DefaultsValidate) {
  const ExperimentOptions options;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsEmptyCluster) {
  ExperimentOptions options;
  options.cluster.nodes = 0;
  expect_rejected(options, {"nodes"});

  options = {};
  options.cluster.page_size = 0;
  expect_rejected(options, {"page_size"});

  options = {};
  options.cluster.max_active_families = 0;
  expect_rejected(options, {"max_active_families"});
}

TEST(ExperimentOptionsTest, RejectsLockCacheCapacityWithoutLockCache) {
  ExperimentOptions options;
  options.cluster.lock_cache_capacity = 8;
  expect_rejected(options, {"lock_cache_capacity", "enable lock_cache"});

  options.cluster.lock_cache = true;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsSiteLocalityOutsideUnitRange) {
  ExperimentOptions options;
  options.site_locality = 1.5;
  expect_rejected(options, {"site_locality", "[-1, 1]"});

  options.site_locality = -2.0;
  expect_rejected(options, {"site_locality"});

  options.site_locality = -1.0;  // negative within range disables the knob
  EXPECT_NO_THROW(options.validate());
  options.site_locality = 1.0;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsFaultProbabilitiesOutsideUnitRange) {
  ExperimentOptions options;
  options.cluster.fault.drop_probability = 1.5;
  expect_rejected(options, {"drop_probability", "[0, 1]"});

  options = {};
  options.cluster.fault.duplicate_probability = -0.1;
  expect_rejected(options, {"duplicate_probability"});

  options = {};
  options.cluster.fault.delay_probability = 2.0;
  expect_rejected(options, {"delay_probability"});
}

TEST(ExperimentOptionsTest, RejectsFaultsAgainstNonexistentNodes) {
  // Crash targeting a node outside the cluster.
  ExperimentOptions options;
  options.cluster.nodes = 4;
  options.cluster.gdo.replicate = true;  // node faults need it
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = 10;
  crash.node = NodeId(7);
  options.cluster.fault.events.push_back(crash);
  expect_rejected(options, {"node 7", "no such node"});

  // Crash with no target node at all.
  options.cluster.fault.events[0].node = NodeId{};
  expect_rejected(options, {"no such node"});

  // A valid target passes.
  options.cluster.fault.events[0].node = NodeId(3);
  EXPECT_NO_THROW(options.validate());

  // Partition naming a node outside the cluster.
  options = {};
  options.cluster.nodes = 4;
  FaultEvent part;
  part.action = FaultAction::kPartitionStart;
  part.at_tick = 10;
  part.group_a = {NodeId(0), NodeId(9)};
  part.group_b = {NodeId(1)};
  options.cluster.fault.events.push_back(part);
  expect_rejected(options, {"partitions node 9"});
}

TEST(ExperimentOptionsTest, MessageTargetedFaultsNeedNoFixedNode) {
  // kMessageSrc/kMessageDst crashes resolve their node at fire time — the
  // fixed-node check must not reject them.
  ExperimentOptions options;
  options.cluster.nodes = 4;
  options.cluster.gdo.replicate = true;  // node faults need it
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.on_kind = MessageKind::kLockAcquireRequest;
  crash.target = FaultTarget::kMessageDst;
  options.cluster.fault.events.push_back(crash);
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsSpanFilesWithoutTracing) {
  ExperimentOptions options;
  options.cluster.obs.spans_jsonl = "spans.jsonl";
  expect_rejected(options, {"trace_spans"});

  options = {};
  options.cluster.obs.chrome_trace = "trace.json";
  expect_rejected(options, {"trace_spans"});

  options.cluster.obs.trace_spans = true;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RunScenarioValidatesBeforeBuildingACluster) {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 1;
  const Workload workload(spec);
  ExperimentOptions options;
  options.site_locality = 2.0;
  EXPECT_THROW((void)run_scenario(workload, ProtocolKind::kLotec, options),
               UsageError);
}

TEST(ExperimentOptionsTest, RunScenarioUsesTheEmbeddedClusterConfig) {
  // run_scenario builds its cluster from options.cluster as given, except
  // for the protocol, which its own argument names.
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 20;
  const Workload workload(spec);
  ExperimentOptions options;
  options.cluster.nodes = 3;
  options.cluster.protocol = ProtocolKind::kCotec;
  options.cluster.obs.trace_spans = true;
  const ScenarioResult r = run_scenario(workload, ProtocolKind::kRc, options);
  EXPECT_EQ(r.protocol, ProtocolKind::kRc);
  std::set<std::uint32_t> nodes;
  for (const SpanRecord& s : r.spans) nodes.insert(s.node);
  EXPECT_EQ(nodes, (std::set<std::uint32_t>{0, 1, 2}));
}

TEST(ExperimentOptionsTest, NodeFaultsImplyGdoReplication) {
  // Node faults need a replicated directory; the caller turns it on.
  ExperimentOptions options;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = 10;
  crash.node = NodeId(1);
  options.cluster.fault.events.push_back(crash);
  expect_rejected(options, {"gdo.replicate"});

  options.cluster.gdo.replicate = true;
  EXPECT_NO_THROW(options.validate());
}

// The previously missing test: a directly-constructed Cluster rejects the
// same incoherent configs run_scenario rejects — validation happens in
// ClusterCore construction, not only in the experiment harness.
TEST(ExperimentOptionsTest, ClusterConstructionValidates) {
  const auto expect_ctor_rejected = [](const ClusterConfig& cfg,
                                       const char* needle) {
    try {
      Cluster cluster(cfg);
      FAIL() << "expected UsageError mentioning '" << needle << "'";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  ClusterConfig cfg;
  cfg.nodes = 0;
  expect_ctor_rejected(cfg, "nodes must be >= 1");

  cfg = {};
  cfg.lock_cache_capacity = 4;
  expect_ctor_rejected(cfg, "enable lock_cache");

  cfg = {};
  cfg.fault.drop_probability = 1.5;
  expect_ctor_rejected(cfg, "[0, 1]");

  cfg = {};
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = 1;
  crash.node = NodeId(99);
  cfg.fault.events.push_back(crash);
  cfg.gdo.replicate = true;
  expect_ctor_rejected(cfg, "no such node");

  cfg = {};
  FaultEvent part;
  part.action = FaultAction::kPartitionStart;
  part.at_tick = 1;
  part.group_a = {NodeId(99)};
  cfg.fault.events.push_back(part);
  expect_ctor_rejected(cfg, "partitions node");

  cfg = {};
  cfg.obs.chrome_trace = "trace.json";
  expect_ctor_rejected(cfg, "trace_spans");

  cfg = {};
  EXPECT_NO_THROW(Cluster{cfg});
}

TEST(ExperimentOptionsTest, WireDefaultsValidate) {
  ExperimentOptions options;
  options.cluster.wire.enabled = true;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, ProtocolTracePathInsertsTagBeforeExtension) {
  EXPECT_EQ(protocol_trace_path("trace.json", ProtocolKind::kLotec),
            "trace_LOTEC.json");
  EXPECT_EQ(protocol_trace_path("out/spans.jsonl", ProtocolKind::kCotec),
            "out/spans_COTEC.jsonl");
  EXPECT_EQ(protocol_trace_path("spans", ProtocolKind::kRc), "spans_RC");
  // A dot inside a directory name is not an extension.
  EXPECT_EQ(protocol_trace_path("run.d/spans", ProtocolKind::kOtec),
            "run.d/spans_OTEC");
}

}  // namespace
}  // namespace lotec
