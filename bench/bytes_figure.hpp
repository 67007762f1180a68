// Shared harness for the Figure 2-5 byte-count experiments: run a workload
// scenario under COTEC, OTEC and LOTEC and print the per-object
// bytes-transferred series the paper plots, plus aggregate ratios.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "json_out.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/scenarios.hpp"

namespace lotec::bench {

struct BytesFigureOptions {
  /// Print every `sample_step`-th object (the paper's Fig 4/5 label a
  /// sample of the 100 objects).
  std::size_t sample_step = 1;
  /// When non-empty, also write BENCH_<json_name>.json with the aggregate
  /// per-protocol traffic (the numbers CI regression-checks).
  std::string json_name;
  ExperimentOptions experiment;
};

inline void run_bytes_figure(const std::string& title,
                             const WorkloadSpec& spec,
                             const BytesFigureOptions& options = {}) {
  const Workload workload(spec);
  ExperimentOptions experiment = options.experiment;
  // LOTEC_SPANS=<path> turns on span tracing and writes a Perfetto-loadable
  // Chrome trace per protocol (path_<PROTOCOL>.json); used by the CI traced
  // bench artifact and for ad-hoc figure profiling.
  if (const char* spans = std::getenv("LOTEC_SPANS");
      spans != nullptr && *spans != '\0') {
    experiment.cluster.obs.trace_spans = true;
    experiment.cluster.obs.chrome_trace = spans;
  }
  const auto results = run_protocol_suite(
      workload,
      {ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kLotec},
      experiment);
  const ScenarioResult& cotec = results[0];
  const ScenarioResult& otec = results[1];
  const ScenarioResult& lotec = results[2];

  print_section(title);
  std::cout << "objects=" << workload.num_objects() << " pages=["
            << spec.min_pages << "," << spec.max_pages << "]"
            << " txns=" << spec.num_transactions
            << " theta=" << spec.contention_theta
            << " nodes=" << options.experiment.cluster.nodes
            << " page_size=" << options.experiment.cluster.page_size << "\n"
            << "committed: COTEC=" << cotec.committed
            << " OTEC=" << otec.committed << " LOTEC=" << lotec.committed
            << "  (of " << spec.num_transactions << ")\n\n";

  Table table({"Object", "COTEC bytes", "OTEC bytes", "LOTEC bytes",
               "OTEC/COTEC", "LOTEC/OTEC"});
  for (std::size_t i = 0; i < workload.num_objects();
       i += options.sample_step) {
    const ObjectId id(i);
    const std::uint64_t c = cotec.object_traffic(id).bytes;
    const std::uint64_t o = otec.object_traffic(id).bytes;
    const std::uint64_t l = lotec.object_traffic(id).bytes;
    table.row({"O" + std::to_string(i), fmt_u64(c), fmt_u64(o), fmt_u64(l),
               c ? fmt_percent(static_cast<double>(o) / c) : "-",
               o ? fmt_percent(static_cast<double>(l) / o) : "-"});
  }
  table.print();

  std::cout << "\nAggregate consistency traffic:\n";
  Table agg({"Protocol", "Messages", "Bytes", "vs COTEC bytes",
             "vs OTEC bytes", "Demand fetches"});
  const double cb = static_cast<double>(cotec.total.bytes);
  const double ob = static_cast<double>(otec.total.bytes);
  agg.row({"COTEC", fmt_u64(cotec.total.messages), fmt_u64(cotec.total.bytes),
           "100.0%", "-", fmt_u64(cotec.counter("page.demand_fetches"))});
  agg.row({"OTEC", fmt_u64(otec.total.messages), fmt_u64(otec.total.bytes),
           fmt_percent(otec.total.bytes / cb), "100.0%",
           fmt_u64(otec.counter("page.demand_fetches"))});
  agg.row({"LOTEC", fmt_u64(lotec.total.messages), fmt_u64(lotec.total.bytes),
           fmt_percent(lotec.total.bytes / cb),
           fmt_percent(lotec.total.bytes / ob),
           fmt_u64(lotec.counter("page.demand_fetches"))});
  agg.print();

  if (!options.json_name.empty()) {
    BenchJson json(options.json_name);
    for (const ScenarioResult* r : {&cotec, &otec, &lotec})
      json.row(std::string(to_string(r->protocol)))
          .field("messages", r->total.messages)
          .field("bytes", r->total.bytes)
          .field("lock_messages", r->counter("net.lock_messages"))
          .field("page_messages", r->counter("net.page_messages"))
          .field("demand_fetches", r->counter("page.demand_fetches"))
          .field("committed", r->committed)
          .counters(r->counters);
    json.write();
  }

  std::cout << "\nCSV (per-object bytes):\n";
  Table csv({"object", "cotec", "otec", "lotec"});
  for (std::size_t i = 0; i < workload.num_objects(); ++i) {
    const ObjectId id(i);
    csv.row({"O" + std::to_string(i),
             fmt_u64(cotec.object_traffic(id).bytes),
             fmt_u64(otec.object_traffic(id).bytes),
             fmt_u64(lotec.object_traffic(id).bytes)});
  }
  csv.print_csv();
}

}  // namespace lotec::bench
