// lotec_sim: command-line driver for the simulation harness.
//
// Runs a randomized nested-object-transaction workload under one or more
// consistency protocols and prints the traffic/outcome report — the same
// machinery as the figure benchmarks, but with every knob on the command
// line for interactive exploration.
//
//   lotec_sim --protocols=cotec,otec,lotec --objects=20 --min-pages=10
//             --max-pages=20 --txns=300 --theta=0.8 --nodes=16
//
// Run `lotec_sim --help` for the full knob list.
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "net/cost_model.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include <fstream>

#include "sim/scenarios.hpp"
#include "sim/trace.hpp"
#include "sim/validate.hpp"
#include "workload/generator.hpp"

using namespace lotec;

namespace {

struct Args {
  WorkloadSpec spec;
  ExperimentOptions options;
  std::vector<ProtocolKind> protocols = {ProtocolKind::kCotec,
                                         ProtocolKind::kOtec,
                                         ProtocolKind::kLotec};
  bool per_object = false;
  bool time_model = false;
  bool validate = false;
  bool faults = false;
  std::uint64_t fault_seed = 42;
  std::string trace_path;
  std::string counters_out;
};

void usage() {
  std::cout <<
      "lotec_sim — LOTEC workload simulator\n\n"
      "Workload:\n"
      "  --objects=N          shared objects (default 20)\n"
      "  --min-pages=N        min object size in pages (1)\n"
      "  --max-pages=N        max object size in pages (5)\n"
      "  --txns=N             root transactions (300)\n"
      "  --theta=F            Zipf contention skew (0 = uniform)\n"
      "  --touched=F          fraction of attrs a method touches (0.4)\n"
      "  --write-frac=F       fraction of touched attrs written (0.6)\n"
      "  --read-methods=F     fraction of pure-reader methods (0.2)\n"
      "  --depth=N            max nesting depth (3)\n"
      "  --child-prob=F       per-slot child probability (0.45)\n"
      "  --abort-prob=F       injected sub-txn failure probability (0)\n"
      "  --coverage=F         prediction coverage, <1 = demand fetches (1)\n"
      "  --seed=N             workload seed (0xF162)\n"
      "  --flat               non-hierarchical child targets (more deadlocks)\n"
      "Cluster:\n"
      "  --nodes=N            sites (16)\n"
      "  --page-size=N        DSM page size in bytes (4096)\n"
      "  --cache=N            per-node cache budget in pages (0 = unbounded)\n"
      "  --multicast          multicast-capable network\n"
      "  --batch              coalesce same-round directory traffic into\n"
      "                       batch frames (physical-only; PROTOCOL.md 13)\n"
      "  --prefetch           Section 5.1 lock pre-acquisition hints\n"
      "  --read-fraction=F    share of families submitted as declared\n"
      "                       read-only (shadow reader scripts) (0)\n"
      "  --mv-read            snapshot-isolated reads for read-only\n"
      "                       families (PROTOCOL.md 14; zero lock traffic)\n"
      "  --shadow-pages       shadow-page undo instead of byte-range log\n"
      "Run:\n"
      "  --protocols=a,b,...  cotec|otec|lotec|rc|lotec-dsd (default cotec,otec,lotec)\n"
      "  --per-object         print the per-object byte series\n"
      "  --time-model         print the Figure 6-8 time sweep\n"
      "  --validate           check quiescent-state invariants afterwards\n"
      "  --trace=FILE         dump a message-trace CSV of the last protocol\n"
      "  --spans=FILE         record phase spans; writes FILE (JSON lines)\n"
      "                       and FILE.chrome.json (Perfetto-loadable)\n"
      "  --faults[=SEED]      chaos preset: crash+restart two nodes mid-run\n"
      "                       with mild message drop (seed defaults to 42)\n"
      "  --flight-dump=FILE   dump the always-on flight recorder to FILE on\n"
      "                       every node-crash event (post-mortem black box)\n"
      "  --scenario=NAME      preset workload: fig2|fig3|fig4|fig5 (paper\n"
      "                       scenarios; overrides the workload knobs)\n"
      "  --counters-out=FILE  write per-message-kind counts of the last\n"
      "                       protocol as JSON (golden-counter diffing)\n"
      "Distributed (wire transport, src/wire):\n"
      "  --distributed=N      run N nodes as real OS processes joined by\n"
      "                       Unix-domain sockets (sets --nodes=N); every\n"
      "                       accounted message is physically shipped and\n"
      "                       ledger-cross-checked at batch end\n"
      "  --tcp                TCP loopback sockets instead of Unix-domain\n"
      "  --worker=PATH        lotec_worker binary (default: $LOTEC_WORKER,\n"
      "                       then next to this executable)\n"
      "  --worker-spans=PFX   each worker writes PFX.node<K>.jsonl with one\n"
      "                       wire.deliver span per delivered frame\n";
}

bool parse_one(Args& args, const std::string& arg) {
  const auto eq = arg.find('=');
  const std::string key = arg.substr(0, eq);
  const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
  const auto u = [&] { return static_cast<std::size_t>(std::stoull(val)); };
  const auto f = [&] { return std::stod(val); };
  ClusterConfig& cfg = args.options.cluster;

  if (key == "--objects") args.spec.num_objects = u();
  else if (key == "--min-pages") args.spec.min_pages = u();
  else if (key == "--max-pages") args.spec.max_pages = u();
  else if (key == "--txns") args.spec.num_transactions = u();
  else if (key == "--theta") args.spec.contention_theta = f();
  else if (key == "--touched") args.spec.touched_attr_fraction = f();
  else if (key == "--write-frac") args.spec.write_fraction = f();
  else if (key == "--read-methods") args.spec.read_method_fraction = f();
  else if (key == "--depth") args.spec.max_depth = u();
  else if (key == "--child-prob") args.spec.child_probability = f();
  else if (key == "--abort-prob") args.spec.abort_probability = f();
  else if (key == "--coverage") args.spec.prediction_coverage = f();
  else if (key == "--seed") args.spec.seed = std::stoull(val);
  else if (key == "--flat") args.spec.hierarchical_targets = false;
  else if (key == "--nodes") cfg.nodes = u();
  else if (key == "--page-size") cfg.page_size =
      static_cast<std::uint32_t>(u());
  else if (key == "--cache") cfg.cache_capacity_pages = u();
  else if (key == "--multicast") cfg.net.multicast_capable = true;
  else if (key == "--batch") cfg.net.batch_messages = true;
  else if (key == "--prefetch") args.options.prefetch_hints = true;
  else if (key == "--read-fraction") args.options.read_only_fraction = f();
  else if (key == "--mv-read") cfg.mv_read = true;
  else if (key == "--shadow-pages") cfg.undo = UndoStrategy::kShadowPage;
  else if (key == "--protocols") {
    args.protocols.clear();
    std::stringstream ss(val);
    std::string item;
    while (std::getline(ss, item, ',')) args.protocols.push_back(
        parse_protocol(item));
  }
  else if (key == "--per-object") args.per_object = true;
  else if (key == "--time-model") args.time_model = true;
  else if (key == "--validate") args.validate = true;
  else if (key == "--trace") {
    args.trace_path = val;
    args.options.record_trace = true;
  }
  else if (key == "--spans") {
    cfg.obs.trace_spans = true;
    cfg.obs.spans_jsonl = val;
    cfg.obs.chrome_trace = val + ".chrome.json";
  }
  else if (key == "--faults") {
    args.faults = true;
    if (!val.empty()) args.fault_seed = std::stoull(val);
  }
  else if (key == "--flight-dump") cfg.obs.flight_dump = val;
  else if (key == "--scenario") {
    const std::uint64_t keep_seed = args.spec.seed;
    if (val == "fig2") args.spec = scenarios::medium_high_contention();
    else if (val == "fig3") args.spec = scenarios::large_high_contention();
    else if (val == "fig4") args.spec = scenarios::medium_moderate_contention();
    else if (val == "fig5") args.spec = scenarios::large_moderate_contention();
    else throw UsageError("unknown scenario '" + val +
                          "' (fig2|fig3|fig4|fig5)");
    (void)keep_seed;  // presets carry their own seeds (paper fidelity)
  }
  else if (key == "--counters-out") args.counters_out = val;
  else if (key == "--distributed") {
    cfg.wire.enabled = true;
    if (!val.empty()) cfg.nodes = u();
  }
  else if (key == "--tcp") cfg.wire.tcp = true;
  else if (key == "--worker") cfg.wire.worker_path = val;
  else if (key == "--worker-spans") cfg.wire.worker_spans = val;
  else return false;
  return true;
}

/// Per-message-kind counts of one run as a small JSON document — the
/// artifact CI diffs between an in-process and a --distributed run of the
/// same scenario (they must be byte-identical).
void write_counters_json(const ScenarioResult& r, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw UsageError("cannot open --counters-out file: " + path);
  out << "{\n  \"protocol\": \"" << to_string(r.protocol) << "\",\n"
      << "  \"total\": {\"messages\": " << r.total.messages
      << ", \"bytes\": " << r.total.bytes << "},\n  \"by_kind\": {\n";
  for (std::size_t k = 0; k < static_cast<std::size_t>(MessageKind::kNumKinds);
       ++k) {
    const auto kind = static_cast<MessageKind>(k);
    const std::uint64_t msgs = r.counter(
        "net.kind." + std::string(to_string(kind)) + ".messages");
    const std::uint64_t bytes =
        r.counter("net.kind." + std::string(to_string(kind)) + ".bytes");
    out << "    \"" << to_string(kind) << "\": {\"messages\": " << msgs
        << ", \"bytes\": " << bytes << "}"
        << (k + 1 < static_cast<std::size_t>(MessageKind::kNumKinds) ? ","
                                                                     : "")
        << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.spec = WorkloadSpec{};
  args.spec.num_objects = 20;
  args.spec.seed = 0xF162;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    // `--distributed 4` reads naturally in docs and CI scripts; fold the
    // space-separated node count into the uniform key=value form.
    if (arg == "--distributed" && i + 1 < argc &&
        std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
      arg += std::string("=") + argv[++i];
    try {
      if (!parse_one(args, arg)) {
        std::cerr << "unknown flag: " << arg << " (see --help)\n";
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "bad flag " << arg << ": " << e.what() << "\n";
      return 2;
    }
  }

  ClusterConfig& cfg = args.options.cluster;
  if (args.faults) {
    // Built after the flag loop so --nodes takes effect regardless of flag
    // order.  Victims: node 1 (a directory home under the default
    // partitioning) and the last node; node faults need GDO replication.
    cfg.fault = fault_presets::chaos(
        NodeId(1), NodeId(static_cast<std::uint32_t>(cfg.nodes - 1)),
        args.fault_seed);
    cfg.gdo.replicate = true;
  }

  const Workload workload(args.spec);
  std::cout << "workload: " << workload.num_objects() << " objects, "
            << args.spec.num_transactions << " roots, "
            << workload.total_script_nodes() << " invocations, theta="
            << args.spec.contention_theta << ", nodes=" << cfg.nodes << "\n";

  std::vector<ScenarioResult> results;
  for (const ProtocolKind protocol : args.protocols) {
    ExperimentOptions options = args.options;
    ObsConfig& obs = options.cluster.obs;
    if (args.protocols.size() > 1 && obs.trace_spans) {
      obs.spans_jsonl = protocol_trace_path(obs.spans_jsonl, protocol);
      obs.chrome_trace = protocol_trace_path(obs.chrome_trace, protocol);
    }
    if (args.protocols.size() > 1 && !obs.flight_dump.empty())
      obs.flight_dump = protocol_trace_path(obs.flight_dump, protocol);
    results.push_back(run_scenario(workload, protocol, options));
  }

  Table table({"Protocol", "Committed", "Aborted", "DL retries", "Messages",
               "Bytes", "Demand", "Local grants"});
  for (const auto& r : results)
    table.row({std::string(to_string(r.protocol)),
               std::to_string(r.committed), std::to_string(r.aborted),
               fmt_u64(r.counter("txn.deadlock_retries")), fmt_u64(r.total.messages),
               fmt_u64(r.total.bytes), fmt_u64(r.counter("page.demand_fetches")),
               fmt_u64(r.counter("lock.local_ops"))});
  table.print();

  if (!args.counters_out.empty()) {
    write_counters_json(results.back(), args.counters_out);
    std::cout << "\ncounters: " << to_string(results.back().protocol)
              << " -> " << args.counters_out << "\n";
  }

  if (cfg.wire.enabled)
    std::cout << "\nwire: " << cfg.nodes << " worker processes over "
              << (cfg.wire.tcp ? "TCP loopback" : "unix sockets")
              << "; per-worker delivery ledgers cross-checked against "
                 "shipped counters\n";

  if (args.faults) {
    std::cout << "\nfaults: ";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const FaultStats& fs = results[i].fault_stats;
      if (i) std::cout << ", ";
      std::cout << to_string(results[i].protocol) << " crashes=" << fs.crashes
                << " restarts=" << fs.restarts << " dropped=" << fs.dropped;
    }
    if (!cfg.obs.flight_dump.empty())
      std::cout << "\nflight recorder -> " << cfg.obs.flight_dump
                << " (one dump per crash; later crashes get .2, .3, ...)";
    std::cout << "\n";
  }

  if (cfg.obs.trace_spans) {
    std::cout << "\nspans: ";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i) std::cout << ", ";
      std::cout << to_string(results[i].protocol) << "="
                << results[i].spans.size();
    }
    std::cout << " -> "
              << (args.protocols.size() == 1
                      ? cfg.obs.spans_jsonl
                      : protocol_trace_path(cfg.obs.spans_jsonl,
                                            args.protocols.front()) + " ...")
              << " (+ .chrome.json)\n";
  }

  if (args.per_object) {
    print_section("Per-object bytes");
    std::vector<std::string> headers = {"Object"};
    for (const auto& r : results)
      headers.push_back(std::string(to_string(r.protocol)));
    Table po(headers);
    for (const ObjectId id : results.front().object_ids) {
      std::vector<std::string> row = {"O" + std::to_string(id.value())};
      for (const auto& r : results)
        row.push_back(fmt_u64(r.object_traffic(id).bytes));
      po.row(std::move(row));
    }
    po.print();
  }

  if (args.time_model) {
    print_section("Aggregate time model (us)");
    std::vector<std::string> headers = {"Network", "SW cost"};
    for (const auto& r : results)
      headers.push_back(std::string(to_string(r.protocol)));
    Table t2(headers);
    const std::map<std::string, double> nets = {
        {"10Mbps", NetworkCostModel::kEthernet10Mbps},
        {"100Mbps", NetworkCostModel::kEthernet100Mbps},
        {"1Gbps", NetworkCostModel::kEthernet1Gbps}};
    for (const auto& [name, bps] : nets)
      for (const double sw : NetworkCostModel::software_cost_sweep_us()) {
        const NetworkCostModel model(bps, sw);
        std::vector<std::string> row = {name, fmt_double(sw, 1) + "us"};
        for (const auto& r : results)
          row.push_back(fmt_double(
              model.total_time_us(r.total.messages, r.total.bytes), 0));
        t2.row(std::move(row));
      }
    t2.print();
  }

  if (!args.trace_path.empty()) {
    // The last protocol's reported run recorded its trace (--trace sets
    // record_trace), so the CSV matches the table row for row.
    const ScenarioResult& last = results.back();
    std::ofstream out(args.trace_path);
    dump_trace_csv(last.trace, out);
    std::cout << "\ntrace: " << last.trace.size() << " messages -> "
              << args.trace_path;
    if (last.trace_dropped > 0)
      std::cout << " (" << last.trace_dropped << " dropped)";
    std::cout << "\n";
  }

  if (args.validate) {
    // Re-run the last protocol on a fresh cluster with the same config and
    // requests, and validate it (the harness tears its clusters down;
    // validation needs a live one).  The re-run writes no span or flight
    // files: observability never changes traffic.
    ClusterConfig rerun = cfg;
    rerun.protocol = args.protocols.back();
    rerun.obs = ObsConfig{};
    Cluster cluster(rerun);
    (void)cluster.execute(make_requests(workload, cluster, args.options));
    const auto violations = validate_quiescent(cluster);
    if (violations.empty()) {
      std::cout << "\nvalidation: all quiescent-state invariants hold\n";
    } else {
      std::cout << "\nvalidation FAILED:\n";
      for (const auto& v : violations) std::cout << "  " << v << "\n";
      return 1;
    }
  }
  return 0;
}
