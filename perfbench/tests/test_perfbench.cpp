// Tests of the step benchmark itself: metric names, the correctness check,
// probe side effects, and per-seed determinism. Workloads are shrunk so
// each test takes well under a second.
//
// Build and run: python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>

#include "comm/runtime.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

/// The named workload at test size: same physics and features, fewer
/// elements and steps.
Workload small(const std::string& name, std::uint64_t seed = 7) {
  Workload wl = *make_workload(name, seed);
  wl.config.ex = wl.config.ey = wl.config.ez = 4;
  wl.config.n = std::min(wl.config.n, 5);
  wl.warmup_steps = 1;
  wl.timed_steps = 4;
  wl.cloud_particles = std::min<long long>(wl.cloud_particles, 2000);
  wl.config.balance_interval = wl.config.balance_interval ? 2 : 0;
  wl.checkpoint_interval = wl.checkpoint_interval ? 2 : 0;
  // Four elements per axis resolve the profile far worse than the
  // benchmark's meshes; the bound only has to separate a clean state from
  // a corrupted one here.
  if (wl.linf_bound > 0) wl.linf_bound = 5e-2;
  return wl;
}

std::vector<std::vector<double>> global_fields(const core::Driver& d) {
  std::vector<std::vector<double>> out;
  for (int f = 0; f < d.nfields(); ++f) out.push_back(d.gather_global_field(f));
  return out;
}

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t f = 0; f < a.size(); ++f) {
    if (a[f].size() != b[f].size() ||
        std::memcmp(a[f].data(), b[f].data(), a[f].size() * sizeof(double))) {
      return false;
    }
  }
  return true;
}

/// One untraced and one traced episode of `wl` (rank 0's results).
std::vector<EpisodeResult> two_episodes(const Workload& wl) {
  std::vector<EpisodeResult> eps;
  comm::run(kRanks, [&](comm::Comm& world) {
    for (bool traced : {false, true}) {
      EpisodeResult r = run_episode(world, wl, traced);
      if (world.rank() == 0) eps.push_back(std::move(r));
    }
  });
  return eps;
}

std::vector<std::string> json_names(const std::string& text,
                                    const std::string& section) {
  // The names of one metric list in BENCHMARK.json, in file order.
  const std::size_t start = text.find("\"" + section + "\"");
  const std::size_t end = text.find(']', start);
  std::vector<std::string> names;
  const std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
  const std::string body = text.substr(start, end - start);
  for (std::sregex_iterator it(body.begin(), body.end(), name_re), stop;
       it != stop; ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

TEST(PerfbenchMetrics, NamesAreWellFormedAndMatchBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream text;
  text << in.rdbuf();

  const std::regex well_formed("[A-Za-z0-9_.-]+");
  const Workload wl = small("cluster_balance");
  const std::vector<EpisodeResult> eps = two_episodes(wl);
  const std::vector<Metric> e2e = end_to_end(eps);
  const std::vector<Metric> layer =
      per_layer(wl, eps, cmtbone::netmodel::LogGPParams{},
                cmtbone::prof::Machine{1.0, 1.0, "test"});
  for (const auto* list : {&e2e, &layer}) {
    for (const Metric& m : *list) {
      EXPECT_TRUE(std::regex_match(m.name, well_formed)) << m.name;
      EXPECT_TRUE(std::regex_match(m.unit, std::regex("[A-Za-z0-9_/%.-]+")))
          << m.unit;
    }
  }
  auto names = [](const std::vector<Metric>& ms) {
    std::vector<std::string> out;
    for (const Metric& m : ms) out.push_back(m.name);
    return out;
  };
  EXPECT_EQ(names(e2e), json_names(text.str(), "end_to_end"));
  EXPECT_EQ(names(layer), json_names(text.str(), "per_layer"));
}

TEST(PerfbenchChecks, CorruptedFieldFailsTheCheck) {
  for (const char* name : {"proxy_n8", "euler_n5", "cluster_balance"}) {
    const Workload wl = small(name);
    int clean_failed = -1, corrupt_failed = -1;
    comm::run(kRanks, [&](comm::Comm& world) {
      auto d = setup_driver(world, wl);
      const Baseline base = take_baseline(*d, wl);
      d->run(2);
      const CheckOutcome clean = check_state(*d, wl, base);
      if (world.rank() == 1) d->mutable_field(0)[10] += 0.5;
      const CheckOutcome corrupt = check_state(*d, wl, base);
      if (world.rank() == 0) {
        clean_failed = clean.failed;
        corrupt_failed = corrupt.failed;
      }
    });
    EXPECT_EQ(clean_failed, 0) << name;
    EXPECT_GT(corrupt_failed, 0) << name;
  }
}

TEST(PerfbenchProbes, LeaveTheDriverStateBitwiseUnchanged) {
  for (const char* name : {"proxy_n8", "euler_n5", "cluster_balance"}) {
    const Workload wl = small(name);
    bool same_now = false, same_later = false;
    comm::run(kRanks, [&](comm::Comm& world) {
      auto probed = setup_driver(world, wl);
      auto plain = setup_driver(world, wl);
      probed->run(3);
      plain->run(3);
      Probes probes(world, *probed, wl);
      const auto before = global_fields(*probed);
      const double t = probed->time();
      probes.run(*probed);
      probes.run(*probed);
      const auto after = global_fields(*probed);
      const bool same_time = probed->time() == t;
      // The next steps must also match a driver that was never probed.
      probed->run(3);
      plain->run(3);
      const bool later = bitwise_equal(global_fields(*probed),
                                       global_fields(*plain));
      if (world.rank() == 0) {
        same_now = bitwise_equal(before, after) && same_time;
        same_later = later;
      }
    });
    EXPECT_TRUE(same_now) << name;
    EXPECT_TRUE(same_later) << name;
  }
}

TEST(PerfbenchDeterminism, CountsRepeatForASeedAndInputsFollowIt) {
  const Workload wl = small("cluster_balance", 3);
  const std::vector<EpisodeResult> a = two_episodes(wl);
  const std::vector<EpisodeResult> b = two_episodes(wl);
  std::vector<std::string> report;
  EXPECT_EQ(check_episodes(a, &report).failed, 0);
  EXPECT_TRUE(a[0].counts == b[0].counts) << counts_line(b[0].counts);
  EXPECT_TRUE(a[1].counts == b[1].counts) << counts_line(b[1].counts);
  EXPECT_EQ(a[0].counts.particles, wl.cloud_particles);

  const std::vector<EpisodeResult> other =
      two_episodes(small("cluster_balance", 4));
  EXPECT_NE(a[0].counts.fields, other[0].counts.fields);
}

TEST(PerfbenchDeterminism, CheckEpisodesFlagsADifferingEpisode) {
  std::vector<EpisodeResult> eps(2);
  eps[1].counts.moves = 1;
  std::vector<std::string> report;
  const CheckOutcome c = check_episodes(eps, &report);
  EXPECT_EQ(c.failed, 1);
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.back().find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
