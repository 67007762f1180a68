// ScheduleChecker: the driver that ties strategies, oracles and the runtime
// together into a stateless model checker.
//
// Each explored schedule builds a FRESH Cluster from the same config and
// workload (fixed seed); the only varying input is the strategy's pick at
// each scheduler decision point, recorded as a DecisionTrace.  After the
// batch drains, the oracles deliver their verdicts.  On a violation the
// driver delta-debugs the trace down to a minimal counterexample (zeroing
// nonzero picks chunk-wise and keeping reductions that preserve the same
// oracle's violation), then verifies the result replays bit-identically —
// same violation, same message count, same message trace — twice in a row,
// and can dump a Chrome trace of the offending schedule for Perfetto.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "check/decision_trace.hpp"
#include "check/oracles.hpp"
#include "check/scenarios.hpp"
#include "check/strategy.hpp"
#include "protocol/protocol.hpp"
#include "runtime/config.hpp"
#include "workload/generator.hpp"

namespace lotec::check {

enum class ExploreMode : std::uint8_t { kRandom, kPct, kDfs };

struct CheckOptions {
  CheckScenario scenario = check_tiny();
  /// The cluster every schedule builds afresh.  The scenario supplies
  /// `nodes` and `mv_read`; the checker installs its own check_sink and
  /// schedule_picker.  `seed` also seeds the random and PCT strategies.
  /// Knobs under exploration (lock_cache, net.batch_messages, the
  /// test_mutations switches) are set here like on any cluster.
  ClusterConfig cluster = [] {
    ClusterConfig cfg;
    cfg.page_size = 256;
    cfg.seed = 42;
    return cfg;
  }();

  ExploreMode mode = ExploreMode::kRandom;
  std::uint64_t max_schedules = 1000;
  /// Wall-clock budget in seconds; 0 = unlimited.  Checked between
  /// schedules, so one schedule may overshoot.
  double budget_seconds = 0;
  std::uint32_t pct_changepoints = 3;
  std::size_t dfs_max_depth = 18;
  /// Delta-debug the counterexample (replays cost schedules).
  bool minimize = true;
  std::uint64_t max_minimize_replays = 300;
  /// When non-empty and a violation was found: write a Chrome trace-event
  /// JSON of the minimized counterexample schedule here.
  std::string chrome_out;
};

/// What one schedule did.
struct ScheduleOutcome {
  DecisionTrace trace;
  std::optional<Violation> violation;
  std::uint64_t messages = 0;  ///< transport steps seen by the probe
  /// FNV-1a fingerprint of the message sequence (FanoutSink::message_hash).
  std::uint64_t message_hash = 0;
  std::uint64_t committed = 0;
  std::uint64_t recursion_preclusions = 0;
  /// A runtime Error escaped Cluster::execute (programming-error paths
  /// surface this way; counted, not treated as a violation).
  std::string error;
};

struct CheckReport {
  std::uint64_t schedules_run = 0;
  std::uint64_t schedules_with_errors = 0;
  std::uint64_t recursion_preclusions = 0;
  /// DFS exhausted its (bounded, pruned) tree before the budget ran out.
  bool exhausted = false;
  bool budget_expired = false;

  std::optional<Violation> violation;
  /// Minimized (when opts.minimize) replayable counterexample.
  DecisionTrace counterexample;
  std::uint64_t counterexample_messages = 0;
  std::uint64_t minimize_replays = 0;
  /// The minimized trace was replayed twice and both runs reproduced the
  /// identical violation, message count and message trace.
  bool replay_verified = false;

  [[nodiscard]] std::string summary() const;
};

class ScheduleChecker {
 public:
  explicit ScheduleChecker(CheckOptions opts);

  /// Explore schedules per opts; on violation, minimize + verify.
  [[nodiscard]] CheckReport run();

  /// Replay one explicit trace (CLI --replay).  No minimization; the
  /// returned report carries the (re-recorded) trace and its verdict.
  [[nodiscard]] CheckReport replay(const DecisionTrace& trace);

 private:
  [[nodiscard]] ScheduleOutcome run_schedule(Strategy& strategy,
                                             const std::string& chrome_out);
  [[nodiscard]] ScheduleOutcome replay_trace(const DecisionTrace& trace,
                                             const std::string& chrome_out);
  [[nodiscard]] DecisionTrace minimize(const ScheduleOutcome& found,
                                       CheckReport& report);
  void verify_and_dump(CheckReport& report);

  CheckOptions opts_;
  Workload workload_;
};

}  // namespace lotec::check
