#include "check/checker.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "runtime/cluster.hpp"

namespace lotec::check {

ScheduleChecker::ScheduleChecker(CheckOptions opts)
    : opts_(std::move(opts)), workload_(opts_.scenario.workload) {}

ScheduleOutcome ScheduleChecker::run_schedule(Strategy& strategy,
                                              const std::string& chrome_out) {
  ScheduleOutcome out;

  // Fresh oracles per schedule; verdict order is fixed so the "first"
  // violation is deterministic across replays of the same trace.
  LockDisciplineOracle locks;
  CoherenceOracle coherence;
  CacheEpochOracle cache;
  SerializabilityOracle serializability;
  FanoutSink fanout;
  fanout.add(&locks);
  fanout.add(&coherence);
  fanout.add(&cache);
  fanout.add(&serializability);
  fanout.set_strategy(&strategy);

  ClusterConfig cfg = opts_.cluster;
  cfg.nodes = opts_.scenario.nodes;
  cfg.mv_read = opts_.scenario.mv_read;
  cfg.check_sink = &fanout;
  if (!chrome_out.empty()) {
    cfg.obs.trace_spans = true;
    cfg.obs.chrome_trace = chrome_out;
  }

  DecisionTrace trace;
  cfg.schedule_picker = [&trace, &strategy](
                            const std::vector<std::size_t>& runnable,
                            std::size_t spawn_candidate) -> std::size_t {
    const auto k = static_cast<std::uint32_t>(
        runnable.size() + (spawn_candidate != Strategy::kNoSpawn ? 1 : 0));
    std::uint32_t pick = strategy.pick(runnable, spawn_candidate);
    if (pick >= k) pick = 0;  // strategies promise [0, k); don't crash on one
    trace.decisions.push_back({k, pick});
    return pick;
  };

  try {
    Cluster cluster(cfg);
    std::vector<RootRequest> requests =
        workload_.instantiate(cluster, opts_.scenario.read_only_fraction);
    const std::vector<TxnResult> results = cluster.execute(std::move(requests));
    for (const TxnResult& r : results)
      if (r.committed) ++out.committed;
    // When this schedule is being dumped (counterexample replay), attach the
    // flight-recorder post-mortem next to the Chrome trace while the cluster
    // is still alive — the last N events per node of the violating run.
    if (!chrome_out.empty()) {
      if (FlightRecorder* rec = cluster.observe().flight_recorder())
        (void)rec->dump_file(chrome_out + ".postmortem.json");
    }
    // Cluster destruction flushes the tracer (Chrome dump, when requested).
  } catch (const Error& e) {
    out.error = e.what();
  }
  strategy.end_schedule();

  out.trace = std::move(trace);
  out.messages = fanout.messages();
  out.message_hash = fanout.message_hash();
  out.recursion_preclusions = locks.recursion_preclusions();

  // A schedule that died on a runtime Error left the oracles watching a
  // truncated event stream; its verdicts are not trustworthy, so it is
  // counted as an error, never as a violation.
  if (out.error.empty()) {
    OracleBase* const oracles[] = {&locks, &coherence, &cache,
                                   &serializability};
    for (OracleBase* o : oracles) {
      if (std::optional<Violation> v = o->finish()) {
        out.violation = std::move(v);
        break;
      }
    }
  }
  return out;
}

ScheduleOutcome ScheduleChecker::replay_trace(const DecisionTrace& trace,
                                              const std::string& chrome_out) {
  ReplayStrategy replay(trace);
  (void)replay.begin_schedule(0);
  return run_schedule(replay, chrome_out);
}

DecisionTrace ScheduleChecker::minimize(const ScheduleOutcome& found,
                                        CheckReport& report) {
  // Greedy ddmin over the NONZERO picks: zeroing a pick means "take the
  // default choice there", which by the replay convention is always a valid
  // schedule.  A reduction is kept only when the replay still violates the
  // SAME oracle; on success the re-recorded trace (whose k values match what
  // the scheduler actually offered) becomes the new current.
  ScheduleOutcome best = found;
  const std::string target_oracle = found.violation->oracle;

  auto nonzero_positions = [](const DecisionTrace& t) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < t.decisions.size(); ++i)
      if (t.decisions[i].pick != 0) idx.push_back(i);
    return idx;
  };

  std::uint64_t replays = 0;
  std::size_t chunk = 0;
  while (replays < opts_.max_minimize_replays) {
    const std::vector<std::size_t> nz = nonzero_positions(best.trace);
    if (nz.empty()) break;
    if (chunk == 0 || chunk > nz.size())
      chunk = std::max<std::size_t>(1, nz.size() / 2);

    bool reduced = false;
    for (std::size_t start = 0;
         start < nz.size() && replays < opts_.max_minimize_replays;
         start += chunk) {
      DecisionTrace cand = best.trace;
      const std::size_t end = std::min(start + chunk, nz.size());
      for (std::size_t i = start; i < end; ++i)
        cand.decisions[nz[i]].pick = 0;
      ++replays;
      ScheduleOutcome out = replay_trace(cand, "");
      if (out.violation && out.violation->oracle == target_oracle) {
        best = std::move(out);
        reduced = true;
        break;  // restart the scan against the smaller trace
      }
    }
    if (!reduced) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }

  report.minimize_replays = replays;
  report.violation = best.violation;
  report.counterexample_messages = best.messages;
  return best.trace;
}

void ScheduleChecker::verify_and_dump(CheckReport& report) {
  // The acceptance bar for a counterexample: two independent replays of the
  // minimized trace must reproduce the identical violation, message count
  // and message fingerprint, and re-record the identical decision trace.
  const ScheduleOutcome a = replay_trace(report.counterexample, "");
  const ScheduleOutcome b = replay_trace(report.counterexample, "");
  report.replay_verified =
      a.violation.has_value() && a.violation == b.violation &&
      a.violation == report.violation && a.messages == b.messages &&
      a.message_hash == b.message_hash && a.trace == b.trace;
  report.counterexample_messages = a.messages;
  if (report.replay_verified) report.counterexample = a.trace;
  if (!opts_.chrome_out.empty())
    (void)replay_trace(report.counterexample, opts_.chrome_out);
}

CheckReport ScheduleChecker::run() {
  CheckReport report;

  std::unique_ptr<Strategy> strategy;
  switch (opts_.mode) {
    case ExploreMode::kRandom:
      strategy = std::make_unique<RandomWalkStrategy>(opts_.cluster.seed);
      break;
    case ExploreMode::kPct:
      strategy = std::make_unique<PctStrategy>(opts_.cluster.seed,
                                               opts_.pct_changepoints);
      break;
    case ExploreMode::kDfs:
      strategy = std::make_unique<DfsStrategy>(opts_.dfs_max_depth);
      break;
  }

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < opts_.max_schedules; ++i) {
    if (opts_.budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= opts_.budget_seconds) {
        report.budget_expired = true;
        break;
      }
    }
    if (!strategy->begin_schedule(i)) {
      report.exhausted = true;
      break;
    }
    ScheduleOutcome out = run_schedule(*strategy, "");
    ++report.schedules_run;
    if (!out.error.empty()) ++report.schedules_with_errors;
    report.recursion_preclusions += out.recursion_preclusions;
    if (out.violation) {
      report.violation = out.violation;
      report.counterexample = out.trace;
      report.counterexample_messages = out.messages;
      if (opts_.minimize) report.counterexample = minimize(out, report);
      verify_and_dump(report);
      break;
    }
  }
  return report;
}

CheckReport ScheduleChecker::replay(const DecisionTrace& trace) {
  CheckReport report;
  const ScheduleOutcome a = replay_trace(trace, "");
  const ScheduleOutcome b = replay_trace(trace, "");
  report.schedules_run = 2;
  report.schedules_with_errors =
      (a.error.empty() ? 0U : 1U) + (b.error.empty() ? 0U : 1U);
  report.recursion_preclusions = a.recursion_preclusions;
  report.violation = a.violation;
  report.counterexample = a.trace;
  report.counterexample_messages = a.messages;
  report.replay_verified = a.violation == b.violation &&
                           a.messages == b.messages &&
                           a.message_hash == b.message_hash &&
                           a.trace == b.trace;
  if (a.violation && !opts_.chrome_out.empty())
    (void)replay_trace(trace, opts_.chrome_out);
  return report;
}

std::string CheckReport::summary() const {
  std::ostringstream os;
  os << "schedules=" << schedules_run;
  if (schedules_with_errors > 0) os << " errors=" << schedules_with_errors;
  if (exhausted) os << " (search space exhausted)";
  if (budget_expired) os << " (budget expired)";
  os << " recursion_preclusions=" << recursion_preclusions;
  if (violation) {
    os << "\nVIOLATION [" << violation->oracle << "] " << violation->detail;
    os << "\ncounterexample: " << counterexample.decisions.size()
       << " decisions (" << counterexample.nonzero_picks() << " nonzero), "
       << counterexample_messages << " messages";
    if (minimize_replays > 0)
      os << ", minimized in " << minimize_replays << " replays";
    os << "\nreplay "
       << (replay_verified ? "verified: bit-identical twice"
                           : "verification FAILED");
  } else {
    os << "\nno invariant violations found";
  }
  return os.str();
}

}  // namespace lotec::check
