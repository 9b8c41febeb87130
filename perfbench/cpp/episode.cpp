// One benchmark episode: timed set-up, warm-up, timed steps, checks.

#include <algorithm>
#include <cmath>

#include "balance/rebalancer.hpp"
#include "perfbench.hpp"
#include "prof/timer.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {

/// Element-wise max over ranks (collective).
std::vector<double> max_over_ranks(comm::Comm& comm, std::vector<double> v) {
  comm.allreduce(std::span<double>(v), comm::ReduceOp::kMax);
  return v;
}

}  // namespace

EpisodeResult run_episode(comm::Comm& comm, const Workload& wl, bool traced) {
  using cmtbone::prof::WallTimer;
  EpisodeResult r;
  r.traced = traced;

  // Set-up: construction, initial state, particle adoption, up to a barrier.
  comm.barrier();
  WallTimer setup_timer;
  std::unique_ptr<core::Driver> d = setup_driver(comm, wl);
  comm.barrier();
  r.setup_s = comm.allreduce_one(setup_timer.seconds(), comm::ReduceOp::kMax);

  const Baseline base = take_baseline(*d, wl);
  std::unique_ptr<Probes> probes;
  if (traced) probes = std::make_unique<Probes>(comm, *d, wl);

  const int interval = wl.config.balance_interval;
  const int ckpt = wl.checkpoint_interval;
  auto one_step = [&] {
    d->step();
    if (ckpt > 0 && d->steps_taken() % ckpt == 0) d->serialize_checkpoint();
  };

  std::vector<double> step_s, wait_s;
  std::vector<std::vector<double>> probe_s(kNumProbes);
  try {
    for (int s = 0; s < wl.warmup_steps; ++s) one_step();
    comm.barrier();
    WallTimer loop_timer;
    for (int s = 0; s < wl.timed_steps; ++s) {
      WallTimer t;
      one_step();
      step_s.push_back(t.seconds());
      r.epoch_step.push_back(interval > 0 && d->steps_taken() % interval == 0);
      if (traced) {
        WallTimer extra;
        comm.barrier();
        wait_s.push_back(extra.seconds());
        const std::vector<double> p = probes->run(*d);
        for (int i = 0; i < kNumProbes; ++i) probe_s[i].push_back(p[i]);
      }
    }
    comm.barrier();
    r.loop_wall_s = loop_timer.seconds();
  } catch (const core::SolverDiverged&) {
    // Raised on every rank together; counts as a failed check below.
    r.diverged = true;
  }

  r.checks.record(!r.diverged, "no step diverged");
  if (!r.diverged) {
    r.step_s = max_over_ranks(comm, step_s);
    r.mdof = double(d->config().n) * d->config().n * d->config().n *
             d->element_layout().total_elements() * d->nfields() *
             wl.timed_steps / 1e6;
    r.checks.merge(check_state(*d, wl, base));
    r.checks.merge(check_checkpoint_roundtrip(comm, *d, wl));
    r.counts = take_counts(comm, *d);
    r.gs_method = cmtbone::gs::method_name(d->gather_scatter().method());
    if (traced) {
      r.step_wait_s = max_over_ranks(comm, wait_s);
      r.probe_s.resize(kNumProbes);
      for (int i = 0; i < kNumProbes; ++i) {
        r.probe_s[i] = max_over_ranks(comm, probe_s[i]);
      }
      r.imbalance = cmtbone::balance::measure_imbalance(
                        comm, d->balance_stats().busy_seconds())
                        .factor();
      r.migrated = comm.allreduce_one(probes->last_migrated(),
                                      comm::ReduceOp::kSum);
    }
  }
  return r;
}

}  // namespace perfbench
