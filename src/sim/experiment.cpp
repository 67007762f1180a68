#include "sim/experiment.hpp"

#include <unordered_set>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace lotec {

namespace {

bool is_lock_kind(MessageKind k) {
  switch (k) {
    case MessageKind::kLockAcquireRequest:
    case MessageKind::kLockAcquireGrant:
    case MessageKind::kLockAcquireQueued:
    case MessageKind::kLockGrantWakeup:
    case MessageKind::kLockReleaseRequest:
    case MessageKind::kLockReleaseAck:
    case MessageKind::kPrefetchLockRequest:
    case MessageKind::kLockCallback:
    case MessageKind::kCallbackReply:
      return true;
    default:
      return false;
  }
}

bool is_page_kind(MessageKind k) {
  switch (k) {
    case MessageKind::kPageFetchRequest:
    case MessageKind::kPageFetchReply:
    case MessageKind::kDemandFetchRequest:
    case MessageKind::kDemandFetchReply:
    case MessageKind::kUpdatePush:
    case MessageKind::kPrefetchPageReply:
    case MessageKind::kSnapshotMapRequest:
    case MessageKind::kSnapshotMapReply:
    case MessageKind::kSnapshotFetchRequest:
    case MessageKind::kSnapshotFetchReply:
      return true;
    default:
      return false;
  }
}

/// Distinct (object, method) pairs of a script, first-seen order — the
/// family's statically predictable lock set for the prefetch ablation.
std::vector<std::pair<ObjectId, MethodId>> script_lock_set(
    const FamilyScript& script) {
  std::vector<std::pair<ObjectId, MethodId>> out;
  std::unordered_set<std::size_t> seen;
  for (const ScriptNode& node : script.nodes)
    if (seen.insert(node.object).second)
      out.emplace_back(ObjectId(node.object), node.method);
  return out;
}

}  // namespace

void ExperimentOptions::validate() const {
  if (site_locality < -1.0 || site_locality > 1.0)
    throw UsageError(
        "ExperimentOptions: site_locality must lie in [-1, 1] (negative "
        "disables hot-site placement); got " + std::to_string(site_locality));
  if (read_only_fraction < 0.0 || read_only_fraction > 1.0)
    throw UsageError(
        "ExperimentOptions: read_only_fraction must lie in [0, 1]; got " +
        std::to_string(read_only_fraction));
  if (prefetch_hints && read_only_fraction > 0.0)
    throw UsageError(
        "ExperimentOptions: prefetch_hints assumes every family takes the "
        "locking path; disable it when read_only_fraction > 0");
  // Cluster construction runs the same checks, so nothing slips through a
  // path that skips run_scenario.
  cluster.validate();
}

std::string protocol_trace_path(const std::string& base,
                                ProtocolKind protocol) {
  const std::string tag = "_" + std::string(to_string(protocol));
  const auto dot = base.rfind('.');
  const auto slash = base.find_last_of("/\\");
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return base + tag;
  return base.substr(0, dot) + tag + base.substr(dot);
}

std::vector<RootRequest> make_requests(const Workload& workload,
                                       Cluster& cluster,
                                       const ExperimentOptions& options) {
  std::vector<RootRequest> requests =
      workload.instantiate(cluster, options.read_only_fraction);
  if (options.strip_family_kinds)
    for (RootRequest& r : requests) r.kind = FamilyKind::kReadWrite;
  if (options.site_locality >= 0.0) {
    Rng placement(options.cluster.seed ^ 0x10CA11D1ULL);
    for (RootRequest& r : requests)
      r.node = NodeId(static_cast<std::uint32_t>(
          placement.chance(options.site_locality)
              ? 0
              : placement.below(options.cluster.nodes)));
  }
  if (options.prefetch_hints) {
    for (RootRequest& r : requests) {
      const auto* script = static_cast<const FamilyScript*>(r.user_data.get());
      r.prefetch = script_lock_set(*script);
    }
  }
  return requests;
}

ScenarioResult run_scenario(const Workload& workload, ProtocolKind protocol,
                            const ExperimentOptions& options) {
  options.validate();
  ClusterConfig cfg = options.cluster;
  cfg.protocol = protocol;
  Cluster cluster(cfg);
  if (options.record_trace) cluster.stats().enable_trace(std::size_t{1} << 22);

  std::vector<RootRequest> requests = make_requests(workload, cluster, options);

  const std::vector<TxnResult> results = cluster.execute(std::move(requests));

  ScenarioResult out;
  out.protocol = protocol;
  for (std::size_t i = 0; i < workload.num_objects(); ++i)
    out.object_ids.push_back(ObjectId(i));

  ClusterObservation obs = cluster.observe();
  const NetworkStats& stats = obs.stats();
  out.per_object = stats.per_object();
  for (const ObjectId id : out.object_ids)
    out.page_data[id] = stats.page_data_by_object(id);
  out.total = stats.total();

  // Fold stats-derived measurements into the registry so the counters map
  // is the single complete snapshot.  Everything the runners and the
  // directory tally ("txn.*", "page.*", "cache.*", "lease.*",
  // "net.round_trips", "lock.local_grants") is already there — only the
  // message-kind classification and the local-lock tally live in
  // NetworkStats and get folded here.
  MetricsRegistry& metrics = obs.metrics();
  metrics.counter("lock.local_ops").add(stats.local_lock_ops());
  {
    std::uint64_t lock_msgs = 0, page_msgs = 0;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(MessageKind::kNumKinds); ++k) {
      const auto kind = static_cast<MessageKind>(k);
      const TrafficCounter c = stats.by_kind(kind);
      if (is_lock_kind(kind)) lock_msgs += c.messages;
      if (is_page_kind(kind)) page_msgs += c.messages;
      // Per-kind breakdown ("net.kind.<Kind>.messages/bytes"): the series
      // lotec_sim --counters-out exports and the distributed-smoke CI job
      // diffs between in-process and --distributed runs.
      const std::string base = "net.kind." + std::string(to_string(kind));
      metrics.counter(base + ".messages").add(c.messages);
      metrics.counter(base + ".bytes").add(c.bytes);
    }
    metrics.counter("net.lock_messages").add(lock_msgs);
    metrics.counter("net.page_messages").add(page_msgs);
  }

  std::vector<double> trips;
  trips.reserve(results.size());
  for (const TxnResult& r : results) {
    if (r.committed)
      ++out.committed;
    else
      ++out.aborted;
    if (r.crashed_in_commit) ++out.crashed_in_commit;
    trips.push_back(static_cast<double>(r.remote_round_trips));
  }
  out.round_trips_p50 = percentile(trips, 50);
  out.round_trips_p95 = percentile(trips, 95);
  if (const FaultEngine* engine = obs.fault_engine())
    out.fault_stats = engine->stats();
  if (options.record_trace) {
    out.trace = stats.trace();
    out.trace_dropped = stats.trace_dropped();
  }

  out.counters = metrics.counters();
  if (cfg.obs.trace_spans) {
    obs.tracer().flush_sinks();
    out.spans = obs.spans();
    out.messages = obs.messages();
    out.histograms = metrics.histograms();
  }
  return out;
}

std::vector<ScenarioResult> run_protocol_suite(
    const Workload& workload, const std::vector<ProtocolKind>& protocols,
    const ExperimentOptions& options) {
  std::vector<ScenarioResult> out;
  out.reserve(protocols.size());
  for (const ProtocolKind p : protocols) {
    ExperimentOptions per = options;
    ObsConfig& obs = per.cluster.obs;
    if (!obs.spans_jsonl.empty())
      obs.spans_jsonl = protocol_trace_path(obs.spans_jsonl, p);
    if (!obs.chrome_trace.empty())
      obs.chrome_trace = protocol_trace_path(obs.chrome_trace, p);
    out.push_back(run_scenario(workload, p, per));
  }
  return out;
}

}  // namespace lotec
