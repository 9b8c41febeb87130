// Metric assembly and cross-episode checks.

#include <sys/resource.h>

#include <sstream>

#include "balance/rebalancer.hpp"
#include "netmodel/loggp.hpp"
#include "prof/roofline.hpp"

#include "kernels/gradient.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Per-step profile of the untraced (or traced) episodes: for each timed
/// step index, the median of that step's wall time over the episodes. Every
/// episode replays the same steps, so the profile keeps the program's own
/// slow steps (rebalance epochs, checkpoints) and drops host stalls that
/// hit one episode's step at random. Diverged episodes have no steps.
std::vector<double> step_profile(const std::vector<EpisodeResult>& eps,
                                 bool traced, int* episodes) {
  std::vector<std::vector<double>> by_step;
  *episodes = 0;
  for (const auto& e : eps) {
    if (e.traced != traced || e.step_s.empty()) continue;
    by_step.resize(e.step_s.size());
    for (std::size_t i = 0; i < e.step_s.size(); ++i) {
      by_step[i].push_back(e.step_s[i]);
    }
    ++*episodes;
  }
  std::vector<double> out;
  for (auto& samples : by_step) out.push_back(median(std::move(samples)));
  return out;
}

std::string profile_note(const std::vector<double>& profile, int episodes) {
  return std::to_string(profile.size()) + " steps x " +
         std::to_string(episodes) + " episodes";
}

std::vector<double> pooled_wait(const std::vector<EpisodeResult>& eps) {
  std::vector<double> out;
  for (const auto& e : eps) {
    out.insert(out.end(), e.step_wait_s.begin(), e.step_wait_s.end());
  }
  return out;
}

std::vector<double> pooled_probe(const std::vector<EpisodeResult>& eps,
                                 Probe p) {
  std::vector<double> out;
  for (const auto& e : eps) {
    if (!e.traced || e.probe_s.empty()) continue;
    out.insert(out.end(), e.probe_s[p].begin(), e.probe_s[p].end());
  }
  return out;
}

}  // namespace

std::vector<Metric> end_to_end(const std::vector<EpisodeResult>& eps) {
  std::vector<double> setup;
  double mdof = 0, wall = 0;
  for (const auto& e : eps) {
    setup.push_back(e.setup_s);
    if (e.traced) continue;
    mdof += e.mdof;
    wall += e.loop_wall_s;
  }
  int episodes = 0;
  const std::vector<double> profile = step_profile(eps, false, &episodes);
  const std::string n = profile_note(profile, episodes);
  return {
      {"setup_s", "s", median(setup),
       "median of " + std::to_string(setup.size()) + " set-ups"},
      {"step_s_p50", "s", median(profile), n},
      {"step_s_p95", "s", percentile(profile, 0.95), n},
      {"mdof_per_s", "MDOF/s", wall > 0 ? mdof / wall : 0.0,
       "all timed steps over their wall time"},
      {"peak_rss_mb", "MB", peak_rss_mb(), "process high-water mark"},
  };
}

std::vector<Metric> per_layer(const Workload& wl,
                              const std::vector<EpisodeResult>& eps,
                              const cmtbone::netmodel::LogGPParams& net,
                              const cmtbone::prof::Machine& machine) {
  const core::Config& c = wl.config;
  const EpisodeResult* last_traced = nullptr;
  for (const auto& e : eps) {
    if (e.traced) last_traced = &e;
  }
  const Counts& k = last_traced->counts;
  auto med = [&](Probe p) { return median(pooled_probe(eps, p)); };
  const std::string nprobe =
      std::to_string(pooled_probe(eps, kGrad).size()) + " probe sets";

  int n_untraced = 0, n_traced = 0;
  const std::vector<double> untraced = step_profile(eps, false, &n_untraced);
  const std::vector<double> traced = step_profile(eps, true, &n_traced);
  const double step_traced = median(traced);

  // Kernel roofline: rate per rank against the single-core roofline.
  const long long nel = 1LL * c.ex * c.ey * c.ez;
  const double grad_flops =
      3.0 * c.nfields() * double(cmtbone::kernels::grad_flops(c.n, int(nel)));
  const double grad_s = med(kGrad);
  const double gflops = grad_s > 0 ? grad_flops / grad_s / 1e9 : 0.0;
  const double intensity = grad_flops / double(k.grad_bytes);
  const double roof = cmtbone::prof::attainable_gflops(machine, intensity);
  const double roof_frac = roof > 0 ? (gflops / kRanks) / roof : 0.0;

  // Epoch cost: median epoch step minus median other step (untraced
  // profile). Workloads that never rebalance report one epoch decision.
  double epoch_step_s = med(kBalanceDecide);
  std::string epoch_note = "no epochs: one epoch decision, not applied";
  if (c.balance_interval > 0) {
    std::vector<double> ep, other;
    for (const auto& e : eps) {
      if (e.traced || e.step_s.empty()) continue;
      for (std::size_t i = 0; i < untraced.size(); ++i) {
        (e.epoch_step[i] ? ep : other).push_back(untraced[i]);
      }
      break;  // every episode flags the same steps
    }
    epoch_step_s = median(ep) - median(other);
    epoch_note = std::to_string(ep.size()) + " epoch steps vs " +
                 std::to_string(other.size()) + " others";
  }

  // Calls per step of each probed layer call, for the unattributed share.
  const int stages = core::integrator_stages(c.integrator);
  const bool tracker = c.particles_per_rank > 0;
  double covered =
      stages * (med(kGrad) + med(kFlux) + med(kFaceFlux)) + med(kComputeDt);
  if (c.face_backend == core::FaceBackend::kDirect) {
    covered += stages * med(kExchange);
  }
  if (c.use_dssum) covered += med(kDssum);
  if (tracker) covered += med(kAdvance) + med(kMigrate);
  if (tracker && c.particle_coupling != 0.0) covered += stages * med(kDeposit);
  if (wl.checkpoint_interval > 0) {
    covered += med(kCkptSerialize) / wl.checkpoint_interval;
  }
  if (c.balance_interval > 0 && epoch_step_s > 0) {
    covered += epoch_step_s / c.balance_interval;
  }

  return {
      {"kernels.grad_s", "s", grad_s, nprobe},
      {"kernels.grad_gflops", "GFLOP/s", gflops, "all ranks"},
      {"kernels.grad_roof_frac", "frac", roof_frac,
       "per-rank rate / single-core roofline"},
      {"kernels.grad_bytes", "B", double(k.grad_bytes), "computed"},
      {"core.flux_s", "s", med(kFlux), nprobe},
      {"core.face_flux_s", "s", med(kFaceFlux), nprobe},
      {"core.compute_dt_s", "s", med(kComputeDt), nprobe},
      {"core.unattributed_frac", "frac",
       step_traced > 0 ? 1.0 - covered / step_traced : 0.0,
       profile_note(traced, n_traced) + " traced"},
      {"mesh.exchange_s", "s", med(kExchange), nprobe},
      {"mesh.exchange_bytes", "B", double(k.exchange_bytes), "per exchange"},
      {"mesh.exchange_partners", "count", double(k.exchange_partners),
       "summed over ranks"},
      {"gs.dssum_s", "s", med(kDssum), nprobe},
      {"gs.dssum_values", "count", double(k.dssum_values), "per dssum"},
      {"comm.step_wait_s", "s",
       median(pooled_wait(eps)),
       "max over ranks"},
      {"comm.latency_us", "us", net.latency * 1e6, "netmodel::calibrate"},
      {"comm.bw_gbs", "GB/s", net.bandwidth / 1e9, "netmodel::calibrate"},
      {"particles.advance_s", "s", med(kAdvance), nprobe},
      {"particles.deposit_s", "s", med(kDeposit), nprobe},
      {"particles.migrate_s", "s", med(kMigrate), nprobe},
      {"particles.migrated", "count", double(last_traced->migrated),
       "last probe"},
      {"particles.count", "count", double(k.particles), "global"},
      {"balance.imbalance", "ratio", last_traced->imbalance,
       "max/mean busy CPU"},
      {"balance.epochs", "count", double(k.epochs), "per episode"},
      {"balance.moves", "count", double(k.moves), "per episode"},
      {"balance.epoch_step_s", "s", epoch_step_s, epoch_note},
      {"io.ckpt_mb", "MB", double(k.ckpt_bytes) / 1e6, "all ranks"},
      {"io.ckpt_serialize_s", "s", med(kCkptSerialize), nprobe},
      {"io.ckpt_restore_s", "s", med(kCkptRestore), nprobe},
      {"trace.overhead_frac", "frac", step_traced / median(untraced) - 1.0,
       profile_note(untraced, n_untraced) + " untraced"},
  };
}

std::string counts_line(const Counts& k) {
  std::ostringstream os;
  os << "epochs=" << k.epochs << " moves=" << k.moves
     << " particles=" << k.particles << " exchange_bytes=" << k.exchange_bytes
     << " partners=" << k.exchange_partners << " grad_bytes=" << k.grad_bytes
     << " dssum_values=" << k.dssum_values << " ckpt_bytes=" << k.ckpt_bytes
     << " fields=" << std::hex << k.fields;
  return os.str();
}

CheckOutcome check_episodes(const std::vector<EpisodeResult>& episodes,
                            std::vector<std::string>* report) {
  CheckOutcome checks;
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    const EpisodeResult& e = episodes[i];
    CheckOutcome mine = e.checks;
    if (i > 0) {
      mine.record(e.counts == episodes[0].counts,
                  "counts and fields equal episode 0's: " +
                      counts_line(e.counts));
    }
    checks.merge(mine);
    for (const auto& line : mine.lines) {
      if (i == 0 || line.rfind("FAILED", 0) == 0) {
        report->push_back("episode " + std::to_string(i) + " " + line);
      }
    }
  }
  return checks;
}

}  // namespace perfbench
