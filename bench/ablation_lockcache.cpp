// Inter-family lock-cache ablation (extension): sweep site locality — the
// probability that a family runs at the designated hot site instead of a
// uniformly random one — and compare LOTEC with the sticky-lock cache on
// vs off.  The cache converts repeat acquires from the same site into
// zero-message local re-grants, so its win grows with locality; at low
// locality every conflicting acquire costs an extra callback round and the
// ablation shows the break-even.
//
// This bench doubles as a regression gate (nonzero exit on failure):
//   * at high locality (>= 0.9) the cache must cut consistency-maintenance
//     (lock) messages by at least 30%;
//   * with the knob off, message and byte counts must be bit-identical to a
//     default-config run — the extension is inert on the wire when disabled.
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

ExperimentOptions base_options(double locality) {
  ExperimentOptions options;
  options.cluster.nodes = 8;
  options.cluster.max_active_families = 1;
  options.site_locality = locality;
  return options;
}

}  // namespace

int main() {
  const Workload workload(ablation_spec());

  print_section(
      "Lock-cache ablation: LOTEC lock traffic vs site locality (sticky "
      "global locks with callback revocation)");

  bool failed = false;
  bench::BenchJson json("ablation_lockcache");
  Table table({"Locality", "Lock msgs off", "Lock msgs on", "Saved",
               "Regrants", "Callbacks", "Flushes", "Total msgs on/off"});
  for (const double locality : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    ExperimentOptions options = base_options(locality);
    const ScenarioResult off =
        run_scenario(workload, ProtocolKind::kLotec, options);
    options.cluster.lock_cache = true;
    const ScenarioResult on =
        run_scenario(workload, ProtocolKind::kLotec, options);

    const double saved =
        1.0 - static_cast<double>(on.counter("net.lock_messages")) /
                  static_cast<double>(off.counter("net.lock_messages"));
    table.row({fmt_double(locality, 2), fmt_u64(off.counter("net.lock_messages")),
               fmt_u64(on.counter("net.lock_messages")), fmt_percent(saved),
               fmt_u64(on.counter("cache.regrants")), fmt_u64(on.counter("cache.callbacks")),
               fmt_u64(on.counter("cache.flushes")),
               fmt_percent(static_cast<double>(on.total.messages) /
                           static_cast<double>(off.total.messages))});
    json.row("locality_" + fmt_double(locality, 2))
        .field("lock_messages_off", off.counter("net.lock_messages"))
        .field("lock_messages_on", on.counter("net.lock_messages"))
        .field("total_messages_off", off.total.messages)
        .field("total_messages_on", on.total.messages)
        .field("bytes_off", off.total.bytes)
        .field("bytes_on", on.total.bytes)
        .field("cache_regrants", on.counter("cache.regrants"))
        .field("cache_callbacks", on.counter("cache.callbacks"))
        .field("cache_flushes", on.counter("cache.flushes"));

    if (on.committed != off.committed || on.aborted != off.aborted) {
      std::cerr << "FAIL: cache changed outcomes at locality " << locality
                << " (committed " << on.committed << " vs " << off.committed
                << ")\n";
      failed = true;
    }
    if (locality >= 0.9 && saved < 0.30) {
      std::cerr << "FAIL: at locality " << locality
                << " the cache saved only " << fmt_percent(saved)
                << " of lock messages (need >= 30%)\n";
      failed = true;
    }
  }
  table.print();

  // Inertness gate: a run with the knob explicitly off must match a
  // default-config run message for message.
  {
    ExperimentOptions defaults = base_options(0.5);
    defaults.record_trace = true;
    ExperimentOptions knob_off = defaults;
    knob_off.cluster.lock_cache = false;
    knob_off.cluster.lock_cache_capacity = 0;
    const ScenarioResult a =
        run_scenario(workload, ProtocolKind::kLotec, defaults);
    const ScenarioResult b =
        run_scenario(workload, ProtocolKind::kLotec, knob_off);
    if (a.trace != b.trace || a.total.messages != b.total.messages ||
        a.total.bytes != b.total.bytes) {
      std::cerr << "FAIL: disabled lock_cache is not inert on the wire ("
                << a.total.messages << "/" << a.total.bytes << " msgs/B vs "
                << b.total.messages << "/" << b.total.bytes << ")\n";
      failed = true;
    } else {
      std::cout << "\ndisabled-knob check: " << a.total.messages
                << " messages, " << a.total.bytes
                << " bytes — bit-identical to the default config\n";
    }
  }

  json.write();
  if (failed) return 1;
  std::cout << "\nExpectation: savings grow with locality — repeat acquires "
               "at the caching site\nare free, while foreign acquires pay "
               "one extra callback round per handoff.\n";
  return 0;
}
