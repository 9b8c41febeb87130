// Workload definitions, set-up, and correctness checks.

#include <cmath>
#include <cstring>
#include <sstream>

#include "balance/scenarios.hpp"
#include "io/checkpoint.hpp"
#include "kernels/gradient.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {
/// Allowed drift of a conserved integral, relative to its initial magnitude
/// (the observed drift over a run is below 1e-13).
constexpr double kConservationTol = 1e-12;
}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"proxy_n8", "euler_n5",
                                                 "cluster_balance"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  cmtbone::util::SplitMix64 rng(seed);
  Workload wl;
  wl.name = name;
  // One period of every system's initial profile is a unit translate, so a
  // start time in [0, 1) covers every distinct seeded state.
  wl.t0 = rng.uniform();
  core::Config& c = wl.config;
  c.threads_per_rank = 1;  // one rank thread per core, no pool helpers
  if (name == "proxy_n8") {
    // The paper's Fig. 4 configuration: 5-field proxy physics, N = 8,
    // SSP-RK3, dssum on, default face backend and gs method.
    c.physics = core::Physics::kProxyAdvection;
    c.n = 8;
    c.ex = c.ey = c.ez = 8;
    c.use_dssum = true;
    wl.timed_steps = 40;
    wl.linf_bound = 1e-5;
    wl.conserved_fields = {0, 1, 2, 3, 4};
  } else if (name == "euler_n5") {
    // Low N, many elements: the O(N^2) surface term and the face exchange
    // weigh as much as the volume term; dssum off.
    c.physics = core::Physics::kEuler;
    c.euler_case = core::EulerCase::kSmoothWave;
    c.n = 5;
    c.ex = c.ey = c.ez = 12;
    c.use_dssum = false;
    wl.timed_steps = 30;
    wl.linf_bound = 3e-5;
    wl.conserved_fields = {0, 1, 2, 3, 4};
  } else if (name == "cluster_balance") {
    // Proxy physics with a clustered particle cloud, two-way coupling, a
    // deterministic particle-count rebalance, and in-memory checkpoints.
    c.physics = core::Physics::kProxyAdvection;
    c.n = 5;
    c.ex = c.ey = c.ez = 8;
    c.particles_per_rank = 1;  // enables the tracker; the cloud replaces it
    c.particle_coupling = 0.01;
    c.balance_interval = 5;
    c.balance_cost_mode = cmtbone::balance::CostMode::kParticleCount;
    wl.timed_steps = 50;
    wl.cloud_particles = 20000;
    wl.cloud_seed = rng.next();
    wl.checkpoint_interval = 5;
    // The deposit forces field 1, so there is no exact solution; field 0
    // is untouched by the coupling and must keep its integral.
    wl.conserved_fields = {0};
  } else {
    return std::nullopt;
  }
  return wl;
}

std::unique_ptr<core::Driver> setup_driver(comm::Comm& comm,
                                           const Workload& wl) {
  auto d = std::make_unique<core::Driver>(comm, wl.config);
  d->initialize(d->system().exact_solution(wl.t0));
  if (wl.cloud_particles > 0) {
    cmtbone::balance::ClusterSpec cs;
    cs.count = wl.cloud_particles;
    cs.seed = wl.cloud_seed;
    d->tracker()->adopt_global(cmtbone::balance::clustered_cloud(cs));
  }
  return d;
}

Baseline take_baseline(core::Driver& d, const Workload& wl) {
  Baseline b;
  for (int f : wl.conserved_fields) b.integrals.push_back(d.integral(f));
  if (d.tracker()) b.particles = d.tracker()->total_count();
  return b;
}

void CheckOutcome::record(bool ok, const std::string& what) {
  ++attempted;
  failed += ok ? 0 : 1;
  lines.push_back((ok ? "ok: " : "FAILED: ") + what);
}

void CheckOutcome::merge(const CheckOutcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  lines.insert(lines.end(), other.lines.begin(), other.lines.end());
}

namespace {
std::string fmt(const char* what, double got, double bound) {
  std::ostringstream os;
  os.precision(6);
  os << what << " = " << got << " (bound " << bound << ")";
  return os.str();
}
}  // namespace

CheckOutcome check_state(core::Driver& d, const Workload& wl,
                         const Baseline& base) {
  CheckOutcome out;
  if (wl.linf_bound > 0.0) {
    const double err =
        d.linf_error(d.system().exact_solution(wl.t0 + d.time()));
    out.record(std::isfinite(err) && err < wl.linf_bound,
               fmt("linf error vs exact solution", err, wl.linf_bound));
  }
  for (std::size_t i = 0; i < wl.conserved_fields.size(); ++i) {
    const int f = wl.conserved_fields[i];
    const double now = d.integral(f);
    const double drift = std::abs(now - base.integrals[i]);
    const double bound =
        kConservationTol * std::max(1.0, std::abs(base.integrals[i]));
    out.record(std::isfinite(now) && drift <= bound,
               fmt(("integral drift of field " + std::to_string(f)).c_str(),
                   drift, bound));
  }
  if (d.tracker()) {
    const long long total = d.tracker()->total_count();
    out.record(total == base.particles,
               fmt("particle total", double(total), double(base.particles)));
  }
  return out;
}

CheckOutcome check_checkpoint_roundtrip(comm::Comm& comm, core::Driver& d,
                                        const Workload& wl) {
  CheckOutcome out;
  const std::vector<std::byte> bytes = d.serialize_checkpoint();
  core::Driver fresh(comm, wl.config);
  std::vector<std::vector<double>> fields;
  std::vector<std::int32_t> owner;
  const cmtbone::io::CheckpointHeader h =
      cmtbone::io::parse_checkpoint(bytes, "memory", &fields, &owner);
  fresh.restore_state(h, std::move(fields), owner);
  bool same = fresh.time() == d.time() && fresh.steps_taken() == d.steps_taken();
  for (int f = 0; f < d.nfields(); ++f) {
    const std::vector<double> a = d.gather_global_field(f);
    const std::vector<double> b = fresh.gather_global_field(f);
    same = same && a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  }
  out.record(same, "checkpoint round trip restores bit-identical fields");
  return out;
}

std::uint64_t field_digest(const core::Driver& d) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int f = 0; f < d.nfields(); ++f) {
    const std::vector<double> g = d.gather_global_field(f);
    const auto* p = reinterpret_cast<const unsigned char*>(g.data());
    for (std::size_t i = 0; i < g.size() * sizeof(double); ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  }
  return h;
}

Counts take_counts(comm::Comm& comm, core::Driver& d) {
  const int nf = d.nfields();
  const int n = d.config().n;
  const int nel = d.element_layout().nel();
  std::vector<long long> v = {
      d.face_exchange().send_bytes_per_exchange(nf),
      d.face_exchange().remote_partner_count(),
      3 * nf * cmtbone::kernels::grad_bytes(n, nel),
      nf * static_cast<long long>(
               d.gather_scatter().topology().exchange_volume()),
      static_cast<long long>(d.serialize_checkpoint().size()),
  };
  comm.allreduce(std::span<long long>(v), comm::ReduceOp::kSum);
  Counts c;
  c.exchange_bytes = v[0];
  c.exchange_partners = v[1];
  c.grad_bytes = v[2];
  c.dssum_values = v[3];
  c.ckpt_bytes = v[4];
  c.epochs = d.rebalance_epochs();
  c.moves = d.rebalance_moves();
  c.particles = d.tracker() ? d.tracker()->total_count() : 0;
  c.fields = field_digest(d);
  return c;
}

}  // namespace perfbench
