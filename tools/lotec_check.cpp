// lotec_check: systematic schedule exploration & invariant checking.
//
// Explores message-delivery interleavings of a small checking scenario
// through the token scheduler's decision points and runs the invariant
// oracles (serializability, O2PL lock discipline, page coherence,
// lock-cache epochs) over every schedule.  On a violation the counterexample
// trace is delta-debugged to a minimal replayable form and verified to
// replay bit-identically twice.
//
//   lotec_check --mode=random --scenario=tiny --schedules=2000
//   lotec_check --mode=dfs --scenario=tiny --depth=14 --budget=60
//   lotec_check --replay=counterexample.trace --chrome-out=cx.json
//
// Exit codes: 0 = explored clean, 1 = invariant violation (counterexample
// printed / written), 2 = usage error.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "check/checker.hpp"

using namespace lotec;
using namespace lotec::check;

namespace {

struct Args {
  CheckOptions opts;
  std::string trace_out;
  std::string replay_path;
};

void usage() {
  std::cout <<
      "lotec_check — schedule exploration & serializability checking\n\n"
      "Exploration:\n"
      "  --mode=M             random | pct | dfs (default random)\n"
      "  --scenario=S         tiny | small | mixed (default tiny)\n"
      "  --schedules=N        max schedules to explore (1000)\n"
      "  --budget=SECONDS     wall-clock budget, 0 = unlimited (0)\n"
      "  --seed=N             exploration seed (42)\n"
      "  --changepoints=N     PCT priority changepoints, bug depth d-1 (3)\n"
      "  --depth=N            DFS branching depth bound (18)\n"
      "Cluster:\n"
      "  --protocol=P         cotec | otec | lotec | rc | lotec-dsd (lotec)\n"
      "  --lock-cache[=CAP]   enable inter-family lock caching (CAP = LRU\n"
      "                       budget, 0/omitted = unbounded)\n"
      "Counterexamples:\n"
      "  --no-minimize        skip delta-debugging the counterexample\n"
      "  --minimize-replays=N replay budget for minimization (300)\n"
      "  --trace-out=FILE     write the counterexample decision trace\n"
      "  --chrome-out=FILE    write a Chrome trace of the counterexample\n"
      "                       schedule (open in Perfetto)\n"
      "  --replay=FILE        replay a saved decision trace instead of\n"
      "                       exploring (verifies determinism: runs twice)\n"
      "\nExit codes: 0 clean, 1 violation found, 2 usage error.\n";
}

ExploreMode parse_mode(const std::string& name) {
  if (name == "random") return ExploreMode::kRandom;
  if (name == "pct") return ExploreMode::kPct;
  if (name == "dfs") return ExploreMode::kDfs;
  throw UsageError("unknown mode '" + name + "' (random|pct|dfs)");
}

bool parse_one(Args& args, const std::string& arg) {
  const auto eq = arg.find('=');
  const std::string key = arg.substr(0, eq);
  const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
  const auto u = [&] { return std::stoull(val); };

  if (key == "--mode") args.opts.mode = parse_mode(val);
  else if (key == "--scenario") args.opts.scenario = check_scenario(val);
  else if (key == "--schedules") args.opts.max_schedules = u();
  else if (key == "--budget") args.opts.budget_seconds = std::stod(val);
  else if (key == "--seed") args.opts.cluster.seed = u();
  else if (key == "--changepoints")
    args.opts.pct_changepoints = static_cast<std::uint32_t>(u());
  else if (key == "--depth") args.opts.dfs_max_depth = u();
  else if (key == "--protocol")
    args.opts.cluster.protocol = parse_protocol(val);
  else if (key == "--lock-cache") {
    args.opts.cluster.lock_cache = true;
    args.opts.cluster.lock_cache_capacity = val.empty() ? 0 : u();
  }
  else if (key == "--no-minimize") args.opts.minimize = false;
  else if (key == "--minimize-replays") args.opts.max_minimize_replays = u();
  else if (key == "--trace-out") args.trace_out = val;
  else if (key == "--chrome-out") args.opts.chrome_out = val;
  else if (key == "--replay") args.replay_path = val;
  // Undocumented: the mutation demo — break Moss retained-lock inheritance
  // and let the oracles find the counterexample (tests/check_explore).
  else if (key == "--break-retention")
    args.opts.cluster.test_mutations.break_retention = true;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
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

  try {
    ScheduleChecker checker(args.opts);
    CheckReport report;
    if (!args.replay_path.empty()) {
      std::ifstream is(args.replay_path);
      if (!is) {
        std::cerr << "cannot open trace file " << args.replay_path << "\n";
        return 2;
      }
      std::stringstream buf;
      buf << is.rdbuf();
      report = checker.replay(DecisionTrace::parse(buf.str()));
    } else {
      const char* mode = args.opts.mode == ExploreMode::kRandom ? "random"
                         : args.opts.mode == ExploreMode::kPct  ? "pct"
                                                                : "dfs";
      std::cout << "exploring scenario '" << args.opts.scenario.name
                << "' under " << to_string(args.opts.cluster.protocol)
                << ", mode=" << mode << ", max " << args.opts.max_schedules
                << " schedules\n";
      report = checker.run();
    }

    std::cout << report.summary() << "\n";
    if (report.violation && !args.trace_out.empty()) {
      std::ofstream os(args.trace_out);
      os << report.counterexample.serialize();
      std::cout << "counterexample trace -> " << args.trace_out << "\n";
    }
    if (report.violation && !args.opts.chrome_out.empty())
      std::cout << "chrome trace -> " << args.opts.chrome_out << "\n";
    return report.violation ? 1 : 0;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
