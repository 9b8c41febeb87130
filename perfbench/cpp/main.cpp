// cmtbone_perfbench: the CMT-bone step benchmark.
//
//   cmtbone_perfbench --workload proxy_n8 --seed 1 --seconds 20 --trace 0
//
// Runs episodes of the workload on 4 rank threads until --seconds have
// passed, checks every episode, and prints human-readable lines followed by
// one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Usually invoked through perfbench/run.py, which builds it first.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "comm/runtime.hpp"
#include "kernels/dispatch.hpp"
#include "netmodel/calibrate.hpp"
#include "parallel/parallel.hpp"
#include "perfbench.hpp"
#include "prof/roofline.hpp"
#include "prof/timer.hpp"

namespace {

using namespace perfbench;

/// Settings that change which kernels or how many threads run. A run that
/// inherits any of them would not be comparable with a baseline, so the
/// benchmark refuses to start.
const char* const kGuardedEnv[] = {
    "CMTBONE_KERNEL_BACKEND",   "CMTBONE_KERNEL_AUTOTUNE",
    "CMTBONE_KERNEL_TUNE_CACHE", "CMTBONE_THREADS_PER_RANK",
    "CMTBONE_POOL_WORKERS",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cmtbone_perfbench: " << why << "\n"
            << "usage: cmtbone_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--source-id <id>]\n"
            << "workloads:";
  for (const auto& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--source-id") {
        a.source_id = v;
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::optional<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) usage("unknown workload " + args.workload);

  for (const char* name : kGuardedEnv) {
    if (std::getenv(name)) {
      std::cerr << "cmtbone_perfbench: refusing to run, " << name
                << " is set (it changes what is measured); unset it\n";
      return 2;
    }
  }

  // The roofline probe runs before the rank threads start, so it has the
  // cores to itself.
  cmtbone::prof::Machine machine;
  if (args.trace) machine = cmtbone::prof::machine();

  std::vector<EpisodeResult> episodes;
  cmtbone::netmodel::LogGPParams net;
  cmtbone::prof::WallTimer run_timer;
  cmtbone::comm::run(kRanks, [&](comm::Comm& world) {
    if (args.trace) {
      const auto p = cmtbone::netmodel::calibrate(world);
      if (world.rank() == 0) net = p;
    }
    // Untraced and traced episodes alternate in a traced run, so the
    // tracing overhead compares steps taken under the same host conditions.
    for (int ep = 0;; ++ep) {
      const bool traced = args.trace && ep % 2 == 1;
      EpisodeResult r = run_episode(world, *wl, traced);
      int more = 0;
      if (world.rank() == 0) {
        episodes.push_back(std::move(r));
        more = ep < 1 || run_timer.seconds() < args.seconds;
      }
      world.bcast(std::span<int>(&more, 1), 0);
      if (!more) break;
    }
  });

  std::vector<std::string> report;
  CheckOutcome checks = check_episodes(episodes, &report);
  const std::vector<Metric> metrics =
      args.trace ? per_layer(*wl, episodes, net, machine)
                 : end_to_end(episodes);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      checks.record(false, m.name + " is not a finite number");
      report.push_back(checks.lines.back());
    }
  }
  const int attempted = checks.attempted, failed = checks.failed;

  const int n = wl->config.n;
  const std::string backend =
      cmtbone::kernels::backend_name(cmtbone::kernels::selected_backend(n));
  std::cout << "provenance {\"source\": \"" << args.source_id
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"isa\": \"" << cmtbone::kernels::isa_name()
            << "\", \"kernel_backend\": \"" << backend
            << "\", \"n\": " << n << ", \"gs_method\": \""
            << episodes[0].gs_method << "\", \"face_backend\": \""
            << core::face_backend_name(wl->config.face_backend)
            << "\", \"ranks\": " << kRanks
            << ", \"threads_per_rank\": " << wl->config.threads_per_rank
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency() << ", \"pool_workers\": "
            << cmtbone::parallel::Pool::global().worker_count() << "}\n";
  std::cout << "workload " << wl->name << " seed " << args.seed << ": "
            << episodes.size() << " episodes, " << wl->warmup_steps
            << " warm-up + " << wl->timed_steps << " timed steps each\n";
  std::cout << "counts " << counts_line(episodes[0].counts) << "\n";
  for (const auto& line : report) std::cout << "check " << line << "\n";
  std::cout << "fail_frac " << json_num(double(failed) / attempted) << " ("
            << failed << " of " << attempted << " checks)\n";
  for (const auto& m : metrics) {
    std::printf("%-24s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }

  std::ostringstream js;
  js << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
