// Multi-version snapshot-read ablation (PROTOCOL.md §14): sweep the share
// of declared read-only families and compare LOTEC with mv_read on vs off
// on a read-heavy hot-site mix (site_locality 0.9, the regime the
// ROADMAP's read-dominated north star cares about).  With the knob off a
// read-only family takes the ordinary O2PL lock path — a GDO round per
// object per family; with it on, readers resolve against commit-tick
// snapshots: the first reader after a writer commit pays one map refresh
// plus the changed-page fetches, and every further reader at that site
// until the next commit resolves from the cached map and version ring with
// zero messages.
//
// This bench doubles as a regression gate (nonzero exit on failure):
//   * outcomes (committed/aborted) must match at every fraction — snapshot
//     readers never block or abort writers, and never abort themselves on
//     these sweeps;
//   * at read fraction >= 0.9 total messages must drop by at least 50%;
//   * at read fraction 1.0 the run must send ZERO lock messages — the
//     snapshot path takes no global locks at all;
//   * the declared kind alone must be inert on the wire: with mv_read off,
//     a run with kReadOnly submissions is bit-identical to the same run
//     with every kind stripped back to kReadWrite.
#include <iostream>

#include "json_out.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/scenarios.hpp"

using namespace lotec;

namespace {

WorkloadSpec ablation_spec() {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 80;
  return spec;
}

ExperimentOptions base_options(double read_fraction) {
  ExperimentOptions options;
  options.cluster.nodes = 8;
  // Families run strictly one after another at a mostly-fixed hot site:
  // what remains is pure protocol traffic, and repeat reads at the site
  // are the axis snapshot resolution trades on (exactly as the lock-cache
  // ablation sweeps the same locality for sticky locks).
  options.cluster.max_active_families = 1;
  options.site_locality = 0.9;
  options.read_only_fraction = read_fraction;
  return options;
}

}  // namespace

int main() {
  const Workload workload(ablation_spec());

  print_section(
      "Snapshot-read ablation: LOTEC traffic vs read-only fraction "
      "(multi-version commit-tick snapshots, hot-site mix)");

  bool failed = false;
  bench::BenchJson json("ablation_mvread");
  Table table({"Read frac", "Msgs off", "Msgs on", "Saved", "Lock off",
               "Lock on", "Snap reads", "Fetches", "Retries"});
  for (const double fraction : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    ExperimentOptions options = base_options(fraction);
    const ScenarioResult off =
        run_scenario(workload, ProtocolKind::kLotec, options);
    options.cluster.mv_read = true;
    const ScenarioResult on =
        run_scenario(workload, ProtocolKind::kLotec, options);

    const double saved = 1.0 - static_cast<double>(on.total.messages) /
                                   static_cast<double>(off.total.messages);
    table.row({fmt_double(fraction, 2), fmt_u64(off.total.messages),
               fmt_u64(on.total.messages), fmt_percent(saved),
               fmt_u64(off.counter("net.lock_messages")),
               fmt_u64(on.counter("net.lock_messages")),
               fmt_u64(on.counter("snapshot.reads")),
               fmt_u64(on.counter("snapshot.fetches")),
               fmt_u64(on.counter("snapshot.retries"))});
    json.row("readfrac_" + fmt_double(fraction, 2))
        .field("total_messages_off", off.total.messages)
        .field("total_messages_on", on.total.messages)
        .field("lock_messages_off", off.counter("net.lock_messages"))
        .field("lock_messages_on", on.counter("net.lock_messages"))
        .field("bytes_off", off.total.bytes)
        .field("bytes_on", on.total.bytes)
        .field("snapshot_reads", on.counter("snapshot.reads"))
        .field("snapshot_map_refreshes", on.counter("snapshot.map_refreshes"))
        .field("snapshot_fetches", on.counter("snapshot.fetches"))
        .field("snapshot_local_hits", on.counter("snapshot.local_hits"))
        .field("snapshot_retries", on.counter("snapshot.retries"))
        .field("committed", on.committed);

    if (on.committed != off.committed || on.aborted != off.aborted) {
      std::cerr << "FAIL: mv_read changed outcomes at read fraction "
                << fraction << " (committed " << on.committed << " vs "
                << off.committed << ", aborted " << on.aborted << " vs "
                << off.aborted << ")\n";
      failed = true;
    }
    if (fraction >= 0.9 && saved < 0.50) {
      std::cerr << "FAIL: at read fraction " << fraction
                << " snapshot reads saved only " << fmt_percent(saved)
                << " of total messages (need >= 50%)\n";
      failed = true;
    }
    if (fraction >= 1.0 && on.counter("net.lock_messages") != 0) {
      std::cerr << "FAIL: an all-read-only sweep still sent "
                << on.counter("net.lock_messages")
                << " lock messages with mv_read on (must be 0)\n";
      failed = true;
    }
  }
  table.print();

  // Kind-inertness gate: with mv_read off, the declared FamilyKind must not
  // perturb a single message — compare a kReadOnly-submitting run against
  // the same run with every kind demoted after instantiation.
  {
    ExperimentOptions submitted = base_options(0.5);
    submitted.record_trace = true;
    ExperimentOptions stripped = submitted;
    stripped.strip_family_kinds = true;
    const ScenarioResult a =
        run_scenario(workload, ProtocolKind::kLotec, submitted);
    const ScenarioResult b =
        run_scenario(workload, ProtocolKind::kLotec, stripped);
    if (a.trace != b.trace || a.total.messages != b.total.messages ||
        a.total.bytes != b.total.bytes) {
      std::cerr << "FAIL: the declared family kind is not inert on the wire ("
                << a.total.messages << "/" << a.total.bytes << " msgs/B vs "
                << b.total.messages << "/" << b.total.bytes << ")\n";
      failed = true;
    } else {
      std::cout << "\nkind-inertness check: " << a.total.messages
                << " messages, " << a.total.bytes
                << " bytes — bit-identical with kinds stripped\n";
    }
  }

  json.write();
  if (failed) return 1;
  std::cout << "\nExpectation: savings grow with the read share — the first "
               "reader after a commit\npays one map refresh plus the changed "
               "pages, every further reader at the site\nresolves locally; "
               "at fraction 1.0 the sweep sends zero lock messages.\n";
  return 0;
}
