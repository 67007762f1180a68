// Experiment harness: run one workload under one (or each) consistency
// protocol on a fresh cluster and collect the measurements the paper's
// figures report.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/cluster.hpp"
#include "workload/generator.hpp"

namespace lotec {

/// Everything measured from one (workload, protocol) run.
///
/// Counter redesign (PR 3): the flat per-run tallies live in `counters`, a
/// name -> value snapshot of the cluster's MetricsRegistry taken at the end
/// of the run (naming conventions: PROTOCOL.md §9).  Read them via
/// `counter(name)`; new measurements get a registry name and need no new
/// struct field.  (The PR-3 compatibility accessors over this map were
/// retired once every call site migrated.)
struct ScenarioResult {
  ProtocolKind protocol = ProtocolKind::kLotec;
  /// Object ids in creation order (Oi of the figures = object_ids[i]).
  std::vector<ObjectId> object_ids;
  /// Total consistency+locking traffic attributed to each object.
  std::unordered_map<ObjectId, TrafficCounter> per_object;
  /// Page-data-only traffic per object.
  std::unordered_map<ObjectId, TrafficCounter> page_data;
  TrafficCounter total;
  /// End-of-run snapshot of every named counter in the cluster's
  /// MetricsRegistry (sorted by name; zero-valued entries included).
  std::map<std::string, std::uint64_t> counters;
  /// Span-duration histograms by name ("span.<phase>"), populated only when
  /// options.cluster.obs.trace_spans was set.
  std::map<std::string, HistogramSnapshot> histograms;
  /// All spans recorded during the run (empty unless trace_spans).
  std::vector<SpanRecord> spans;
  /// All messages observed at the Transport choke point with their causal
  /// stamps (empty unless trace_spans) — the per-message-kind axis
  /// of analyze_critical_path.
  std::vector<MessageRecord> messages;
  // Transaction outcomes.
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t crashed_in_commit = 0;
  /// Distribution of blocking round trips per root transaction (the
  /// latency proxy the prefetch ablation reduces).
  double round_trips_p50 = 0;
  double round_trips_p95 = 0;
  // Fault-injection accounting (zero unless options.cluster.fault enables
  // the engine; fault_stats also reflects the install_hooks-only ablation).
  FaultStats fault_stats;
  /// Full message trace, recorded when options.record_trace is set (the
  /// fault ablation compares runs for byte-identical traffic).
  std::vector<TraceEvent> trace;
  /// Messages the trace buffer could not hold (0 unless the run outgrew it).
  std::uint64_t trace_dropped = 0;

  /// Value of a named registry counter; 0 when never registered.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  [[nodiscard]] TrafficCounter object_traffic(ObjectId id) const {
    const auto it = per_object.find(id);
    return it == per_object.end() ? TrafficCounter{} : it->second;
  }
};

struct ExperimentOptions {
  /// The cluster every run builds.  run_scenario overrides only `protocol`
  /// (its own argument); everything else — geometry, seeds, knobs, faults,
  /// observability outputs, the wire transport — is used as given.  The
  /// defaults are the paper figures' cluster: 16 nodes, seed 7.
  ClusterConfig cluster = [] {
    ClusterConfig cfg;
    cfg.nodes = 16;
    cfg.seed = 7;
    return cfg;
  }();
  /// Section 5.1 ablation: pre-acquire the whole script's lock set at
  /// family start.
  bool prefetch_hints = false;
  /// Site-locality knob (lock-cache ablation): when non-negative, each
  /// family executes at the designated hot site (node 0) with this
  /// probability and at a uniformly random site otherwise — i.e. the
  /// probability that consecutive acquires of an object originate at the
  /// same site, which is the axis callback locking trades on.  Negative
  /// (the default) keeps the cluster's round-robin placement.  The
  /// assignment depends only on cluster.seed and the request list, never on
  /// the protocol or the lock_cache flag, so paired runs see identical
  /// placements.
  double site_locality = -1.0;
  /// Record the full message trace into ScenarioResult::trace.
  bool record_trace = false;
  /// Share of families submitted as declared read-only (kReadOnly), their
  /// scripts remapped onto the generator's shadow reader methods.  Acts on
  /// requests; meaningful with or without mv_read (without it, read-only
  /// families take the ordinary lock path).
  double read_only_fraction = 0.0;
  /// Test hook (knob-off bit-identity): after instantiation, demote every
  /// kReadOnly request back to kReadWrite.  With mv_read off the two runs
  /// must produce bit-identical wire traffic — the declared kind alone
  /// never touches the protocol.
  bool strip_family_kinds = false;

  /// Reject incoherent option combinations with an actionable UsageError.
  /// Checks the request-level knobs, then runs cluster.validate() — the
  /// same validation Cluster construction itself runs, so run_scenario and
  /// a directly-built Cluster reject identical configs with identical
  /// messages.  Called by run_scenario before any cluster is built.
  void validate() const;
};

/// The requests run_scenario submits to `cluster` for `workload`: the
/// workload's instantiation with the request-level options applied
/// (read-only share, kind stripping, site locality, prefetch hints).
[[nodiscard]] std::vector<RootRequest> make_requests(
    const Workload& workload, Cluster& cluster,
    const ExperimentOptions& options);

/// Run `workload` under `protocol` on a fresh cluster.
[[nodiscard]] ScenarioResult run_scenario(const Workload& workload,
                                          ProtocolKind protocol,
                                          const ExperimentOptions& options = {});

/// Run the workload under each protocol in `protocols` (fresh identical
/// cluster each time).  When options name span output files, each
/// protocol's files get a `_<PROTOCOL>` suffix before the extension (see
/// protocol_trace_path).
[[nodiscard]] std::vector<ScenarioResult> run_protocol_suite(
    const Workload& workload, const std::vector<ProtocolKind>& protocols,
    const ExperimentOptions& options = {});

/// `base` with `_<PROTOCOL>` inserted before the extension:
/// ("trace.json", kLotec) -> "trace_LOTEC.json".
[[nodiscard]] std::string protocol_trace_path(const std::string& base,
                                              ProtocolKind protocol);

}  // namespace lotec
