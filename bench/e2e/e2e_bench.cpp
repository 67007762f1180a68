// e2e_bench: the repository benchmark (README.md in this directory).
//
// Every run builds a 4-node LOTEC cluster with the paper's replicated GDO
// and every other knob at its default; --seed drives only the workload
// generator.  One generator thread drives the load.
//
//   e2e_bench --workload NAME [--seed S] [--seconds T] [--traced]
//             [--trace-out PATH] [--out-dir DIR] [--worker PATH]
//
// Default run (end-to-end metrics): untimed warm-up, then a closed-loop
// saturation phase (execute() batches of 16 = max_active_families), then an
// open-loop paced phase on the same cluster.  --seconds T sizes the run: the
// warm-up and saturation root counts scale with T, the paced phase lasts
// 0.6 T, and set-up is repeated seven times (once below 1 s).
//
// --traced (per-layer metrics): the warm-up plus the first saturation roots
// run twice on fresh clusters, untraced and with span tracing, then the
// layer probes (probes.hpp) run.  On wire-nested the prefix is also replayed
// in-process.  --trace-out writes the traced run as a Chrome trace.
//
// Every metric is printed as `name value unit` and written to
// <out-dir>/BENCH_e2e_<workload>[_layers].json.  A failed correctness gate
// prints FAIL and exits 1; a usage error exits 2.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "json_out.hpp"
#include "obs/tail_attribution.hpp"
#include "probes.hpp"
#include "runtime/cluster.hpp"
#include "sim/validate.hpp"
#include "wire/launcher.hpp"
#include "workload/generator.hpp"

namespace lotec::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 16;  // ClusterConfig::max_active_families
const std::size_t kNodes = ClusterConfig{}.nodes;
constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kDefaultSeconds = 10;
/// Untimed warm-up roots per 10 s of --seconds, at least one batch.
constexpr std::size_t kWarmupRoots = 160;
/// Cluster set-ups per run, setup_s being their median; one below
/// kRepeatSetupsFrom seconds.
constexpr int kSetups = 7;
constexpr double kRepeatSetupsFrom = 1.0;
/// The saturation phase is timed in this many equal chunks.
constexpr std::size_t kChunks = 8;
/// Share of --seconds the saturation phase is sized for; the paced phase
/// takes the rest.
constexpr double kSaturationShare = 0.4;

// --- workloads --------------------------------------------------------------

struct WorkloadDef {
  std::string_view name;
  WorkloadSpec spec;  // seed and root count are filled in per run
  double read_only_fraction = 0.0;
  bool wire = false;
  /// Saturation roots per 10 s of --seconds.
  std::size_t saturation_roots = 0;
  /// Paced arrivals per second.
  double paced_rate = 0;
  /// Saturation prefix run by --traced.
  std::size_t traced_roots = 0;
  /// FNV-1a of the generated inputs at the default seed and seconds: a
  /// generator change cannot silently change the benchmark.
  std::uint64_t fingerprint = 0;
};

/// The bench/throughput mix: many small objects, Zipf-hot, deep nesting.
WorkloadSpec hot_nested_spec() {
  WorkloadSpec s;
  s.num_objects = 2048;
  s.min_pages = 1;
  s.max_pages = 3;
  s.contention_theta = 0.9;
  s.max_depth = 3;
  s.child_probability = 0.7;
  s.max_children = 3;
  return s;
}

/// Few large objects, wide writes, shallow families: page traffic dominates.
WorkloadSpec bulk_pages_spec() {
  WorkloadSpec s;
  s.num_objects = 256;
  s.min_pages = 16;
  s.max_pages = 32;
  s.contention_theta = 0.5;
  s.touched_attr_fraction = 0.8;
  s.write_fraction = 0.8;
  s.read_method_fraction = 0.0;
  s.max_depth = 1;
  s.child_probability = 0.3;
  s.max_children = 3;
  return s;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"hot-nested", hot_nested_spec(), 0.0, false, 4096, 250, 1500,
       0x84bbf2791748a962ULL},
      {"bulk-pages", bulk_pages_spec(), 0.0, false, 10240, 500, 1500,
       0x2a18b35f7c53b1deULL},
      {"read-mostly", hot_nested_spec(), 0.9, false, 5120, 300, 1500,
       0x0feeb0e3a1cbc427ULL},
      {"wire-nested", hot_nested_spec(), 0.0, true, 1024, 50, 400,
       0x1ced205d10144abdULL},
  };
  return defs;
}

// --- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  bool traced = false;
  std::string trace_out;
  std::string out_dir = ".";
  std::string worker_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_bench: " << why << "\nusage: e2e_bench --workload NAME "
            << "[--seed S] [--seconds T] [--traced] [--trace-out PATH] "
            << "[--out-dir DIR] [--worker PATH]\n"
            << "workloads:";
  for (const WorkloadDef& d : workloads()) std::cerr << ' ' << d.name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") opt.workload = value();
      else if (arg == "--seed") opt.seed = std::stoull(value());
      else if (arg == "--seconds") opt.seconds = std::stod(value());
      else if (arg == "--traced") opt.traced = true;
      else if (arg == "--trace-out") opt.trace_out = value();
      else if (arg == "--out-dir") opt.out_dir = value();
      else if (arg == "--worker") opt.worker_path = value();
      else usage("unknown option " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0 && opt.seconds <= 120))
    usage("--seconds must be in (0, 120]");
  return opt;
}

const WorkloadDef& find_workload(const std::string& name) {
  for (const WorkloadDef& d : workloads())
    if (d.name == name) return d;
  usage("unknown workload " + name);
}

// --- run plan and inputs ----------------------------------------------------

struct Plan {
  std::size_t warmup = 0;
  std::size_t saturation = 0;
  std::size_t paced = 0;
  double rate = 0;
  std::size_t traced = 0;
  int setups = 1;

  [[nodiscard]] std::size_t total() const {
    return warmup + saturation + paced;
  }
  [[nodiscard]] double arrival_s(std::size_t i) const {
    return static_cast<double>(i) / rate;
  }
};

/// `roots_per_10s` scaled to `seconds`, in whole batches, at least one.
std::size_t scaled_roots(std::size_t roots_per_10s, double seconds) {
  const double batches = std::round(static_cast<double>(roots_per_10s) *
                                    seconds / kDefaultSeconds / kBatch);
  return kBatch * std::max<std::size_t>(1, static_cast<std::size_t>(batches));
}

Plan make_plan(const WorkloadDef& def, const Options& opt) {
  Plan p;
  p.warmup = scaled_roots(kWarmupRoots, opt.seconds);
  p.saturation = scaled_roots(def.saturation_roots, opt.seconds);
  p.rate = def.paced_rate;
  p.paced = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             def.paced_rate * opt.seconds * (1.0 - kSaturationShare))));
  p.traced = std::min(def.traced_roots, p.saturation);
  p.setups = opt.seconds < kRepeatSetupsFrom ? 1 : kSetups;
  return p;
}

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Fingerprint of everything the program receives: phase sizes, object
/// sizes, scripts, the read-only selection and the arrival times.
std::uint64_t fingerprint_inputs(const Plan& plan, const Workload& workload,
                                 const std::vector<RootRequest>& requests) {
  Fnv1a h;
  h.add(plan.warmup);
  h.add(plan.saturation);
  h.add(plan.paced);
  for (std::size_t i = 0; i < workload.num_objects(); ++i)
    h.add(workload.object_pages(i));
  for (const auto& script : workload.scripts()) {
    h.add(script->nodes.size());
    for (const ScriptNode& n : script->nodes) {
      h.add(n.object);
      h.add(n.method.value());
      h.add(n.inject_abort ? 1 : 0);
      h.add(n.children.size());
      for (const std::size_t c : n.children) h.add(c);
    }
  }
  for (const RootRequest& r : requests)
    h.add(static_cast<std::uint64_t>(r.kind));
  for (std::size_t i = 0; i < plan.paced; ++i)
    h.add(static_cast<std::uint64_t>(std::llround(plan.arrival_s(i) * 1e9)));
  return h.value();
}

// --- measurement helpers ----------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}


volatile std::uint64_t g_host_ref_sink = 0;

/// Fixed integer loop, median of 5: a host-speed reference taken at the
/// start and end of every run, so a run on a slowed host can be spotted.
double host_reference_ns() {
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < (1 << 21); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0xbf58476d1ce4e5b9ULL;
    }
    g_host_ref_sink = g_host_ref_sink + x;
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9);
  }
  return percentile(std::move(ns), 50);
}

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// user+sys CPU of this process's live children (the wire workers), from
/// /proc/<pid>/stat; 0 when there are none.
double children_cpu_s() {
  namespace fs = std::filesystem;
  static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  double total = 0;
  std::error_code ec;
  for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
    std::ifstream children(task.path() / "children");
    long pid = 0;
    while (children >> pid) {
      std::ifstream stat_file("/proc/" + std::to_string(pid) + "/stat");
      std::string stat;
      std::getline(stat_file, stat);
      const std::size_t close = stat.rfind(')');
      if (close == std::string::npos) continue;
      std::istringstream fields(stat.substr(close + 2));
      std::string field;
      double utime = 0, stime = 0;
      // Fields after the command name start at field 3 (state); utime and
      // stime are fields 14 and 15.
      for (int f = 3; f <= 15 && fields >> field; ++f) {
        if (f == 14) utime = std::stod(field);
        if (f == 15) stime = std::stod(field);
      }
      total += (utime + stime) / ticks;
    }
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Cumulative cluster counters; subtract two to get a phase's share.
struct Ledger {
  std::array<TrafficCounter, static_cast<std::size_t>(MessageKind::kNumKinds)>
      by_kind{};
  TrafficCounter total;
  TrafficCounter physical;
  std::map<std::string, std::uint64_t> counters;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  [[nodiscard]] const TrafficCounter& kind(MessageKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
};

Ledger take_ledger(Cluster& cluster) {
  Ledger l;
  for (std::size_t k = 0; k < l.by_kind.size(); ++k)
    l.by_kind[k] = cluster.stats().by_kind(static_cast<MessageKind>(k));
  l.total = cluster.stats().total();
  l.physical = cluster.stats().physical();
  l.counters = cluster.observe().metrics().counters();
  return l;
}

Ledger operator-(const Ledger& a, const Ledger& b) {
  Ledger d;
  auto sub = [](const TrafficCounter& x, const TrafficCounter& y) {
    return TrafficCounter{x.messages - y.messages, x.bytes - y.bytes};
  };
  for (std::size_t k = 0; k < d.by_kind.size(); ++k)
    d.by_kind[k] = sub(a.by_kind[k], b.by_kind[k]);
  d.total = sub(a.total, b.total);
  d.physical = sub(a.physical, b.physical);
  for (const auto& [name, v] : a.counters)
    d.counters[name] = v - b.counter(name);
  return d;
}

// --- gates ------------------------------------------------------------------

class Gates {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) return;
    std::cerr << "FAIL [gate]: " << what << '\n';
    ++failures_;
  }
  void quiescent(Cluster& cluster, const std::string& phase) {
    const std::vector<std::string> v = validate_quiescent(cluster);
    for (const std::string& s : v) std::cerr << "  " << s << '\n';
    check(v.empty(), "validate_quiescent after " + phase + ": " +
                         std::to_string(v.size()) + " violation(s)");
  }
  void same_ledger(const Ledger& a, const Ledger& b, const std::string& what) {
    for (std::size_t k = 0; k < a.by_kind.size(); ++k) {
      const TrafficCounter& x = a.by_kind[k];
      const TrafficCounter& y = b.by_kind[k];
      check(x.messages == y.messages && x.bytes == y.bytes,
            what + ": " + std::string(to_string(static_cast<MessageKind>(k))) +
                " " + std::to_string(x.messages) + " msgs/" +
                std::to_string(x.bytes) + " B vs " +
                std::to_string(y.messages) + " msgs/" +
                std::to_string(y.bytes) + " B");
    }
  }
  [[nodiscard]] int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

// --- metrics output ---------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  void print(std::ostream& os) const {
    const auto flags = os.flags();
    const auto precision = os.precision();
    os << std::setprecision(12);
    for (const Row& r : rows_)
      os << r.name << ' ' << r.value << ' ' << r.unit << '\n';
    os.flags(flags);
    os.precision(precision);
  }
  void write_json(const std::string& bench, const std::string& dir) const {
    bench::BenchJson json(bench);
    json.row("metrics");
    for (const Row& r : rows_) json.field(r.name, r.value);
    json.write(dir);
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

// --- cluster set-up ---------------------------------------------------------

/// A per-run directory for the wire workers' Unix-domain sockets, inside
/// the output directory; removed with the sockets at exit.
class SocketDir {
 public:
  SocketDir(const std::string& out_dir, std::size_t nodes) : nodes_(nodes) {
    path_ = out_dir + "/e2e-sock-" + std::to_string(::getpid());
    if (::mkdir(path_.c_str(), 0700) != 0 && errno != EEXIST)
      throw Error("cannot create socket directory " + path_);
  }
  ~SocketDir() {
    for (std::size_t k = 0; k < nodes_; ++k)
      ::unlink((path_ + "/node" + std::to_string(k) + ".sock").c_str());
    ::rmdir(path_.c_str());
  }
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::size_t nodes_;
};

struct Setup {
  std::unique_ptr<Cluster> cluster;
  std::vector<RootRequest> requests;
  double cluster_s = 0;
  double instantiate_s = 0;
};

Setup set_up(const ClusterConfig& cfg, const Workload& workload,
             double read_only_fraction) {
  Setup s;
  const auto t0 = Clock::now();
  s.cluster = std::make_unique<Cluster>(cfg);
  const auto t1 = Clock::now();
  s.requests = workload.instantiate(*s.cluster, read_only_fraction);
  s.cluster_s = seconds_between(t0, t1);
  s.instantiate_s = seconds_between(t1, Clock::now());
  return s;
}

/// set_up() `repeats` times (each cluster destroyed before the next is
/// built); keeps the last and reports median times.
struct RepeatedSetup {
  Setup last;
  double setup_s = 0;
  double cluster_s = 0;
  double instantiate_s = 0;
};

RepeatedSetup set_up_repeated(int repeats, const ClusterConfig& cfg,
                              const Workload& workload,
                              double read_only_fraction) {
  RepeatedSetup r;
  std::vector<double> total, cluster, instantiate;
  for (int i = 0; i < repeats; ++i) {
    r.last = Setup{};  // tear the previous cluster down first
    r.last = set_up(cfg, workload, read_only_fraction);
    total.push_back(r.last.cluster_s + r.last.instantiate_s);
    cluster.push_back(r.last.cluster_s);
    instantiate.push_back(r.last.instantiate_s);
  }
  r.setup_s = percentile(std::move(total), 50);
  r.cluster_s = percentile(std::move(cluster), 50);
  r.instantiate_s = percentile(std::move(instantiate), 50);
  return r;
}

// --- load -------------------------------------------------------------------

struct Tally {
  std::size_t submitted = 0;
  std::size_t committed = 0;
  std::size_t failed = 0;
  std::uint64_t attempts = 0;
  std::size_t executes = 0;
  /// Declared write sets of the committed roots' script nodes.
  std::uint64_t attr_writes = 0;
  std::uint64_t write_bytes = 0;

  Tally& operator+=(const Tally& o) {
    submitted += o.submitted;
    committed += o.committed;
    failed += o.failed;
    attempts += o.attempts;
    executes += o.executes;
    attr_writes += o.attr_writes;
    write_bytes += o.write_bytes;
    return *this;
  }
};

/// Resolves a script node's declared write set through the cluster's
/// ClassDefs (the generator names object i's class WorkObj<i>_<seed>).
class WriteSets {
 public:
  WriteSets(const Cluster& cluster, const Workload& workload) {
    classes_.reserve(workload.num_objects());
    for (std::size_t i = 0; i < workload.num_objects(); ++i)
      classes_.push_back(&cluster.class_def(cluster.find_class(
          "WorkObj" + std::to_string(i) + "_" +
          std::to_string(cluster.config().seed))));
  }
  void add(const RootRequest& req, Tally& t) const {
    const auto* script = static_cast<const FamilyScript*>(req.user_data.get());
    for (const ScriptNode& n : script->nodes) {
      const ClassDef& cls = *classes_.at(n.object);
      for (const AttrId a : cls.method(n.method).writes.items()) {
        ++t.attr_writes;
        t.write_bytes += cls.layout().attribute(a).size_bytes;
      }
    }
  }

 private:
  std::vector<const ClassDef*> classes_;
};

Tally execute_batch(Cluster& cluster, const std::vector<RootRequest>& requests,
                    std::size_t begin, std::size_t end,
                    const WriteSets& writes) {
  std::vector<RootRequest> batch(
      requests.begin() + static_cast<std::ptrdiff_t>(begin),
      requests.begin() + static_cast<std::ptrdiff_t>(end));
  const std::vector<TxnResult> results = cluster.execute(std::move(batch));
  Tally t;
  t.submitted = end - begin;
  t.executes = 1;
  for (std::size_t i = 0; i < results.size(); ++i) {
    t.attempts += static_cast<std::uint64_t>(results[i].attempts);
    if (results[i].committed) {
      ++t.committed;
      writes.add(requests[begin + i], t);
    } else {
      ++t.failed;
    }
  }
  return t;
}

/// Closed loop: back-to-back execute() batches of kBatch roots.
Tally run_closed(Cluster& cluster, const std::vector<RootRequest>& requests,
                 std::size_t begin, std::size_t end, const WriteSets& writes) {
  Tally t;
  for (std::size_t b = begin; b < end; b += kBatch)
    t += execute_batch(cluster, requests, b, std::min(b + kBatch, end), writes);
  return t;
}

struct PacedResult {
  Tally tally;
  std::vector<double> sojourn_us;
  std::vector<double> lateness_us;
};

/// Open loop: root i is due at start + i / rate.  Each dispatch takes every
/// root that has arrived, up to kBatch; sojourn runs from a root's due time
/// to the execute() return, so a stall also charges the roots queued
/// behind it.  Lateness is how far the dispatch started after its first
/// root was due.
PacedResult run_paced(Cluster& cluster,
                      const std::vector<RootRequest>& requests,
                      std::size_t begin, const Plan& plan,
                      const WriteSets& writes) {
  PacedResult out;
  out.sojourn_us.reserve(plan.paced);
  const auto start = Clock::now();
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan.arrival_s(i)));
  };
  std::size_t next = 0;
  while (next < plan.paced) {
    // Spin rather than sleep until the next arrival: a sleeping generator
    // wakes late by a host-dependent amount, and that lands in the next
    // root's sojourn.
    auto now = Clock::now();
    while (now < due(next)) now = Clock::now();
    std::size_t end = next + 1;
    while (end < plan.paced && end - next < kBatch && due(end) <= now) ++end;
    out.lateness_us.push_back(
        std::chrono::duration<double, std::micro>(now - due(next)).count());
    out.tally += execute_batch(cluster, requests, begin + next, begin + end,
                               writes);
    const auto done = Clock::now();
    for (std::size_t i = next; i < end; ++i)
      out.sojourn_us.push_back(
          std::chrono::duration<double, std::micro>(done - due(i)).count());
    next = end;
  }
  return out;
}

// --- the two modes ----------------------------------------------------------

struct Run {
  const WorkloadDef& def;
  Options opt;
  Plan plan;
  std::unique_ptr<Workload> workload;
  double generate_s = 0;
  std::unique_ptr<SocketDir> socket_dir;
  Gates gates;
  Report report;

  Run(const WorkloadDef& d, Options o) : def(d), opt(std::move(o)) {
    plan = make_plan(def, opt);
    WorkloadSpec spec = def.spec;
    spec.seed = opt.seed;
    spec.num_transactions = plan.total();
    const auto t0 = Clock::now();
    workload = std::make_unique<Workload>(spec);
    generate_s = seconds_between(t0, Clock::now());
    if (def.wire) {
      if (opt.worker_path.empty())
        opt.worker_path = wire::find_worker_binary(WireConfig{});
      socket_dir = std::make_unique<SocketDir>(opt.out_dir, kNodes);
    }
  }

  [[nodiscard]] ClusterConfig config(bool wire, bool traced) const {
    ClusterConfig cfg;
    cfg.gdo.replicate = true;  // the paper's replicated GDO
    if (wire) {
      cfg.wire.enabled = true;
      cfg.wire.worker_path = opt.worker_path;
      cfg.wire.socket_dir = socket_dir->path();
    }
    if (traced) {
      cfg.obs.trace_spans = true;
      cfg.obs.chrome_trace = opt.trace_out;
    }
    return cfg;
  }

  void check_fingerprint(const std::vector<RootRequest>& requests) {
    const std::uint64_t fp = fingerprint_inputs(plan, *workload, requests);
    std::ostringstream hex;
    hex << "0x" << std::hex << std::setw(16) << std::setfill('0') << fp;
    std::cout << "harness.fingerprint " << hex.str() << " fnv1a64" << std::endl;
    if (opt.seed == kDefaultSeed && opt.seconds == kDefaultSeconds)
      gates.check(fp == def.fingerprint,
                  "generated inputs changed: fingerprint " + hex.str() +
                      " at the default seed, recorded value differs");
  }
};

int run_end_to_end(Run& run) {
  const Plan& plan = run.plan;
  Report& rep = run.report;
  const double host_ref_start = host_reference_ns();

  RepeatedSetup setup = set_up_repeated(plan.setups,
                                        run.config(run.def.wire, false),
                                        *run.workload,
                                        run.def.read_only_fraction);
  Cluster& cluster = *setup.last.cluster;
  const std::vector<RootRequest>& requests = setup.last.requests;
  run.check_fingerprint(requests);
  const WriteSets writes(cluster, *run.workload);

  Tally all = run_closed(cluster, requests, 0, plan.warmup, writes);

  // Saturation in up to kChunks equal chunks of whole batches; txn_s is the
  // chunk median, so a host stall inside one chunk does not move it.  CPU
  // time does not accrue while the process waits for the host, so it is
  // taken over the whole phase.
  const Ledger before = take_ledger(cluster);
  const double cpu0 = self_cpu_s() + children_cpu_s();
  Tally sat;
  double sat_s = 0;
  std::vector<double> chunk_txn_s;
  const std::size_t batches = plan.saturation / kBatch;
  const std::size_t chunks = std::min(kChunks, batches);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = plan.warmup + kBatch * (batches * c / chunks);
    const std::size_t end = plan.warmup + kBatch * (batches * (c + 1) / chunks);
    const auto t0 = Clock::now();
    const Tally t = run_closed(cluster, requests, begin, end, writes);
    const double s = seconds_between(t0, Clock::now());
    chunk_txn_s.push_back(static_cast<double>(t.committed) / s);
    sat += t;
    sat_s += s;
  }
  const double cpu_s = self_cpu_s() + children_cpu_s() - cpu0;
  const Ledger sat_ledger = take_ledger(cluster) - before;
  all += sat;
  run.gates.quiescent(cluster, "saturation");
  run.gates.check(sat_ledger.counter("txn.commits") == sat.committed,
                  "txn.commits counter disagrees with committed results");

  const PacedResult paced = run_paced(
      cluster, requests, plan.warmup + plan.saturation, plan, writes);
  all += paced.tally;
  run.gates.quiescent(cluster, "paced phase");
  run.gates.check(all.committed + all.failed == all.submitted &&
                      all.submitted == plan.total(),
                  "committed + failed != submitted");
  run.gates.check(sat.committed > 0, "no root committed in saturation");

  const double committed =
      std::max<double>(1, static_cast<double>(sat.committed));
  rep.add("txn_s", percentile(chunk_txn_s, 50), "txn/s");
  rep.add("p50_us", percentile(paced.sojourn_us, 50), "us");
  rep.add("p90_us", percentile(paced.sojourn_us, 90), "us");
  rep.add("cpu_us_per_txn", cpu_s * 1e6 / committed, "us");
  rep.add("msgs_per_txn",
          static_cast<double>(sat_ledger.total.messages) / committed, "msgs");
  rep.add("bytes_per_txn",
          static_cast<double>(sat_ledger.total.bytes) / committed, "B");
  rep.add("commit_pct",
          100.0 * static_cast<double>(all.committed) /
              static_cast<double>(all.submitted),
          "%");
  rep.add("setup_s", setup.setup_s, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");

  const double host_ref_end = host_reference_ns();
  rep.add("harness.attempted", static_cast<double>(all.submitted), "roots");
  rep.add("harness.failed", static_cast<double>(all.failed), "roots");
  rep.add("harness.p99_us", percentile(paced.sojourn_us, 99), "us");
  rep.add("harness.paced_samples", static_cast<double>(paced.sojourn_us.size()),
          "roots");
  rep.add("harness.lateness_p50_us", percentile(paced.lateness_us, 50), "us");
  rep.add("harness.lateness_max_us", percentile(paced.lateness_us, 100), "us");
  rep.add("harness.saturation_roots", static_cast<double>(plan.saturation),
          "roots");
  rep.add("harness.saturation_s", sat_s, "s");
  rep.add("harness.host_ref_ns", host_ref_start, "ns");
  rep.add("harness.host_drift_pct",
          100.0 * (host_ref_end / host_ref_start - 1.0), "%");
  rep.print(std::cout);
  rep.write_json("e2e_" + std::string(run.def.name), run.opt.out_dir);
  return run.gates.failures() == 0 ? 0 : 1;
}

/// One prefix pass of --traced: warm-up + the first plan.traced saturation
/// roots on a fresh cluster.
struct PrefixRun {
  Tally warm;
  Tally timed;
  double timed_s = 0;
  Ledger timed_ledger;
  Ledger whole_ledger;
  std::vector<SpanRecord> spans;
};

PrefixRun run_prefix(Run& run, Setup setup, const std::string& label) {
  Cluster& cluster = *setup.cluster;
  const WriteSets writes(cluster, *run.workload);
  const Plan& plan = run.plan;
  PrefixRun out;
  out.warm = run_closed(cluster, setup.requests, 0, plan.warmup, writes);
  const Ledger before = take_ledger(cluster);
  const auto t0 = Clock::now();
  out.timed = run_closed(cluster, setup.requests, plan.warmup,
                         plan.warmup + plan.traced, writes);
  out.timed_s = seconds_between(t0, Clock::now());
  out.whole_ledger = take_ledger(cluster);
  out.timed_ledger = out.whole_ledger - before;
  run.gates.quiescent(cluster, label);
  out.spans = cluster.observe().spans();
  cluster.observe().tracer().flush_sinks();
  return out;
}

int run_layers(Run& run) {
  Report& rep = run.report;
  const double host_ref_start = host_reference_ns();
  const bool wire = run.def.wire;

  RepeatedSetup setup =
      set_up_repeated(run.plan.setups, run.config(wire, false), *run.workload,
                      run.def.read_only_fraction);
  run.check_fingerprint(setup.last.requests);
  const PrefixRun plain =
      run_prefix(run, std::move(setup.last), "untraced prefix");
  const PrefixRun traced =
      run_prefix(run, set_up(run.config(wire, true), *run.workload,
                             run.def.read_only_fraction),
                 "traced prefix");
  run.gates.same_ledger(plain.whole_ledger, traced.whole_ledger,
                        "tracing changed the logical ledger");
  Tally attempted;
  attempted += plain.warm;
  attempted += plain.timed;
  attempted += traced.warm;
  attempted += traced.timed;
  if (wire) {
    const PrefixRun replay =
        run_prefix(run, set_up(run.config(false, false), *run.workload,
                               run.def.read_only_fraction),
                   "in-process replay");
    run.gates.same_ledger(plain.whole_ledger, replay.whole_ledger,
                          "in-process replay ledger differs from the wire run");
    attempted += replay.warm;
    attempted += replay.timed;
  }

  const double budget_s = std::clamp(run.opt.seconds * 0.02, 0.002, 0.5);
  const unsigned attr_bytes =
      4096 / static_cast<unsigned>(run.def.spec.attrs_per_page);
  const ProbeResults probe = run_probes(budget_s, attr_bytes);

  const Tally& t = plain.timed;
  const Ledger& l = plain.timed_ledger;
  const double c = std::max<double>(1, static_cast<double>(t.committed));
  const auto per_txn = [c](double v) { return v / c; };
  const auto count = [&](const char* name) {
    return per_txn(static_cast<double>(l.counter(name)));
  };
  const auto kind = [&](MessageKind k) {
    return static_cast<double>(l.kind(k).messages);
  };
  const double traced_c = std::max<double>(
      1, static_cast<double>(traced.warm.committed + traced.timed.committed));
  std::array<double, kNumSpanPhases> phase_spans{};
  for (const SpanRecord& s : traced.spans)
    phase_spans[static_cast<std::size_t>(s.phase)] += 1;
  const auto spans_per_txn = [&](SpanPhase p) {
    return phase_spans[static_cast<std::size_t>(p)] / traced_c;
  };

  // runtime (scheduler).  The runner hands the token on at every global
  // lock round (preempt, one gdo.round span each; snapshot.map_round on the
  // snapshot path) and again when a queued request parks it (block, one
  // lock.grant instant each).
  const double handoffs = spans_per_txn(SpanPhase::kGdoRound) +
                          spans_per_txn(SpanPhase::kSnapshotMapRound) +
                          spans_per_txn(SpanPhase::kLockGrant);
  const double families = per_txn(static_cast<double>(t.submitted));
  const double sched_est = (handoffs * probe.sched_handoff_ns +
                            families * probe.sched_spawn_ns) /
                           1e3;
  rep.add("sched.handoffs_per_txn", handoffs, "count");
  rep.add("sched.handoff_ns", probe.sched_handoff_ns, "ns");
  rep.add("sched.spawn_ns", probe.sched_spawn_ns, "ns");
  rep.add("sched.est_us_per_txn", sched_est, "us");
  // txn (family lock table)
  rep.add("txn.local_grants_per_txn", count("lock.local_grants"), "count");
  rep.add("txn.inherits_per_txn", spans_per_txn(SpanPhase::kLockInherit),
          "count");
  // gdo
  const double lock_requests = per_txn(kind(MessageKind::kLockAcquireRequest));
  const double gdo_est = lock_requests * probe.gdo_acquire_release_ns / 1e3;
  rep.add("gdo.lock_requests_per_txn", lock_requests, "count");
  rep.add("gdo.replica_syncs_per_txn",
          per_txn(kind(MessageKind::kGdoReplicaSync)), "count");
  rep.add("gdo.acquire_release_ns", probe.gdo_acquire_release_ns, "ns");
  rep.add("gdo.retries_per_txn",
          count("txn.deadlock_retries") + count("txn.fault_retries"), "count");
  rep.add("gdo.useful_attempt_ratio",
          static_cast<double>(t.committed) /
              std::max<double>(1, static_cast<double>(t.attempts)),
          "ratio");
  rep.add("gdo.est_us_per_txn", gdo_est, "us");
  // page / protocol
  const double fetched = count("page.fetched");
  const double page_est = fetched * probe.page_copy_ns / 1e3;
  rep.add("page.fetched_per_txn", fetched, "count");
  rep.add("page.demand_fetches_per_txn", count("page.demand_fetches"), "count");
  const std::uint64_t reply_bytes =
      l.kind(MessageKind::kPageFetchReply).bytes +
      l.kind(MessageKind::kDemandFetchReply).bytes;
  rep.add("page.reply_kb_per_txn",
          per_txn(static_cast<double>(reply_bytes) / 1024.0), "KiB");
  rep.add("page.copy_ns", probe.page_copy_ns, "ns");
  rep.add("page.est_us_per_txn", page_est, "us");
  // page/undo_log
  const double written_kb =
      per_txn(static_cast<double>(t.write_bytes) / 1024.0);
  const double undo_est = written_kb * probe.undo_capture_ns_per_kb / 1e3;
  rep.add("undo.capture_ns_per_kb", probe.undo_capture_ns_per_kb, "ns/KiB");
  rep.add("undo.written_kb_per_txn", written_kb, "KiB");
  rep.add("undo.est_us_per_txn", undo_est, "us");
  // method: the probe's attribute write includes its undo capture, which
  // the undo estimate already holds.
  const double method_est = per_txn(static_cast<double>(t.attr_writes)) *
                                probe.method_attr_write_ns / 1e3 -
                            undo_est;
  rep.add("method.executes_per_txn", spans_per_txn(SpanPhase::kMethodExecute),
          "count");
  rep.add("method.attr_write_ns", probe.method_attr_write_ns, "ns");
  rep.add("method.est_us_per_txn", method_est, "us");
  // net
  const double msgs = per_txn(static_cast<double>(l.total.messages));
  const double frames = per_txn(static_cast<double>(l.physical.messages));
  const double net_est = msgs * probe.net_send_ns / 1e3;
  rep.add("net.frames_per_txn", frames, "count");
  rep.add("net.send_ns", probe.net_send_ns, "ns");
  rep.add("net.est_us_per_txn", net_est, "us");
  // wire: each frame takes two socket round trips (coordinator -> src
  // worker -> dst worker and the acks back) and four encode+decode pairs;
  // every execute() ends with one ledger-gather round trip per worker.
  const double wire_frames = wire ? frames : 0.0;
  const double frame_us =
      2 * probe.wire_uds_rtt_us + 4 * probe.wire_codec_ns / 1e3;
  const double wire_est =
      wire ? wire_frames * frame_us +
                 per_txn(static_cast<double>(t.executes)) *
                     static_cast<double>(kNodes) * probe.wire_uds_rtt_us
           : 0.0;
  rep.add("wire.codec_ns", probe.wire_codec_ns, "ns");
  rep.add("wire.uds_rtt_us", probe.wire_uds_rtt_us, "us");
  rep.add("wire.frames_per_txn", wire_frames, "count");
  rep.add("wire.est_us_per_txn", wire_est, "us");
  // obs
  rep.add("obs.trace_overhead_pct",
          100.0 * (traced.timed_s / plain.timed_s - 1.0), "%");
  rep.add("obs.spans_per_txn",
          static_cast<double>(traced.spans.size()) / traced_c, "count");
  // setup
  rep.add("setup.generate_s", run.generate_s, "s");
  rep.add("setup.cluster_s", setup.cluster_s, "s");
  rep.add("setup.instantiate_s", setup.instantiate_s, "s");
  // logical breakdown: every root attempt of the traced run, and the
  // attempts at or above its p99 sojourn.
  const TailAttribution tail = analyze_tail_attribution(traced.spans);
  const std::size_t n = tail.attempts.size();
  const std::size_t p99_from = n - std::min(n, (n + 99) / 100);
  std::array<double, kNumTailBuckets> all_ticks{}, p99_ticks{};
  double all_sojourn = 0, p99_sojourn = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const AttemptAttribution& a = tail.attempts[i];
    all_sojourn += static_cast<double>(a.sojourn);
    if (i >= p99_from) p99_sojourn += static_cast<double>(a.sojourn);
    for (std::size_t b = 0; b < kNumTailBuckets; ++b) {
      all_ticks[b] += static_cast<double>(a.buckets[b]);
      if (i >= p99_from) p99_ticks[b] += static_cast<double>(a.buckets[b]);
    }
  }
  run.gates.check(n > 0, "traced run recorded no root attempts");
  constexpr std::array<TailBucket, 7> kBuckets = {
      TailBucket::kLockWait, TailBucket::kGdoRound, TailBucket::kPageGather,
      TailBucket::kExecute,  TailBucket::kUndo,     TailBucket::kCommitReport,
      TailBucket::kOther};
  for (const bool p99 : {false, true}) {
    for (const TailBucket b : kBuckets) {
      const auto k = static_cast<std::size_t>(b);
      const double share = p99 ? p99_ticks[k] / std::max(1.0, p99_sojourn)
                               : all_ticks[k] / std::max(1.0, all_sojourn);
      rep.add(std::string(p99 ? "tick.p99." : "tick.") +
                  std::string(to_string(b)) + "_pct",
              100.0 * share, "%");
    }
  }
  // attribution
  const double est = plain.timed_s * 1e6 / c;
  rep.add("est.us_per_txn", est, "us");
  rep.add("est.unattributed_us_per_txn",
          est - (sched_est + gdo_est + page_est + undo_est + method_est +
                 net_est + wire_est),
          "us");

  const double host_ref_end = host_reference_ns();
  rep.add("harness.attempted", static_cast<double>(attempted.submitted),
          "roots");
  rep.add("harness.failed", static_cast<double>(attempted.failed), "roots");
  rep.add("harness.traced_roots", static_cast<double>(run.plan.traced),
          "roots");
  rep.add("harness.peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("harness.host_ref_ns", host_ref_start, "ns");
  rep.add("harness.host_drift_pct",
          100.0 * (host_ref_end / host_ref_start - 1.0), "%");
  rep.print(std::cout);
  rep.write_json("e2e_" + std::string(run.def.name) + "_layers",
                 run.opt.out_dir);
  return run.gates.failures() == 0 ? 0 : 1;
}

}  // namespace

int run_main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const WorkloadDef& def = find_workload(opt.workload);
  // One malloc arena: with glibc's per-thread arenas, peak RSS for the same
  // inputs varied by ~15% from run to run (one thread per family, each
  // execute() starts new ones); with one it repeats to ~0.1%.  Only one
  // family runs at a time, so the arena lock is not contended.
  ::mallopt(M_ARENA_MAX, 1);
  try {
    Run run(def, opt);
    std::cout << "workload " << def.name << " seed " << opt.seed << ": "
              << run.plan.warmup << " warm-up, " << run.plan.saturation
              << " saturation, " << run.plan.paced << " paced roots at "
              << run.plan.rate << "/s" << (opt.traced ? " (traced)" : "")
              << '\n';
    return opt.traced ? run_layers(run) : run_end_to_end(run);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace lotec::e2e

int main(int argc, char** argv) { return lotec::e2e::run_main(argc, argv); }
