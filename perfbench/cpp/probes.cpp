// Layer probes: each times calls into one layer's public functions on the
// driver's live objects and shapes, working on copies and scratch buffers
// (or making idempotent calls such as compute_dt) so the driver's state is
// unchanged.

#include <algorithm>

#include "balance/cost_model.hpp"
#include "balance/rebalancer.hpp"
#include "io/checkpoint.hpp"
#include "kernels/gradient.hpp"
#include "mesh/faces.hpp"
#include "perfbench.hpp"
#include "prof/timer.hpp"

namespace perfbench {

Probes::Probes(comm::Comm& comm, core::Driver& d, const Workload& wl)
    : comm_(&comm) {
  // Workloads without particles still time the particle layer's fixed
  // costs (an empty advance and a collective migrate with nothing to ship)
  // on a tracker over the driver's own partition.
  if (!d.tracker()) {
    empty_tracker_ = std::make_unique<cmtbone::particles::Tracker>(
        comm, d.partition(), d.operators());
  }
  shadow_ = std::make_unique<core::Driver>(comm, wl.config);
  ensure_buffers(d);
}

Probes::~Probes() = default;

void Probes::ensure_buffers(const core::Driver& d) {
  // A rebalance epoch changes the local element count between probe sets.
  const int n = d.config().n;
  const int nel = d.element_layout().nel();
  const int nf = d.nfields();
  const std::size_t pts = std::size_t(n) * n * n * nel;
  if (ucopy_.size() == pts) return;
  for (auto* v : {&ucopy_, &ur_, &us_, &ut_, &vx_, &vy_, &vz_, &deposit_}) {
    v->assign(pts, 0.0);
  }
  flux_.assign(nf, std::vector<double>(pts, 0.0));
  myfaces_.assign(cmtbone::mesh::face_array_size(n, nel) * nf, 0.0);
  nbrfaces_.assign(myfaces_.size(), 0.0);
  many_.assign(pts * nf, 0.0);
}

std::vector<double> Probes::run(core::Driver& d) {
  namespace kn = cmtbone::kernels;
  namespace mesh = cmtbone::mesh;
  using cmtbone::prof::WallTimer;

  const int n = d.config().n;
  const int nf = d.nfields();
  const int nel = d.element_layout().nel();
  const std::size_t pts = std::size_t(n) * n * n * nel;
  ensure_buffers(d);

  std::vector<double> secs(kNumProbes, 0.0);
  auto timed = [&](Probe p, auto&& body) {
    comm_->barrier();
    WallTimer t;
    body();
    secs[p] = t.seconds();
  };

  const double* uptr[core::kMaxFields];
  for (int f = 0; f < nf; ++f) uptr[f] = d.field(f).data();
  double* fptr[core::kMaxFields];
  for (int f = 0; f < nf; ++f) fptr[f] = flux_[f].data();

  // kernels: one grad3 per field over all local elements, on a copy.
  {
    comm_->barrier();
    double total = 0.0;
    for (int f = 0; f < nf; ++f) {
      std::copy(uptr[f], uptr[f] + pts, ucopy_.begin());
      WallTimer t;
      kn::grad3(kn::GradVariant::kDispatch, d.operators().d.data(),
                ucopy_.data(), ur_.data(), us_.data(), ut_.data(), n, nel);
      total += t.seconds();
    }
    secs[kGrad] = total;
  }

  // core: the volume flux of every field along all three axes.
  timed(kFlux, [&] {
    for (int axis = 0; axis < 3; ++axis) {
      d.system().flux_range(uptr, fptr, 0, pts, axis);
    }
  });

  // Face states for the surface probes: full2face of the live fields into
  // scratch (untimed), then the exchange is the mesh probe.
  const std::size_t fsz = mesh::face_array_size(n, nel);
  for (int f = 0; f < nf; ++f) {
    mesh::full2face(uptr[f], myfaces_.data() + f * fsz, n, nel);
  }

  // mesh: one face exchange of every field, on scratch buffers.
  timed(kExchange, [&] {
    d.face_exchange().exchange(myfaces_.data(), nbrfaces_.data(), nf);
  });

  // core: the Rusanov arithmetic -- two flux_point and two wavespeed_point
  // calls per face point, on the exchanged scratch states.
  timed(kFaceFlux, [&] {
    const core::HyperbolicSystem& sys = d.system();
    double uin[core::kMaxFields], uout[core::kMaxFields];
    double fin[core::kMaxFields], fout[core::kMaxFields];
    double acc = 0.0;
    for (int e = 0; e < nel; ++e) {
      for (int face = 0; face < mesh::kFacesPerElement; ++face) {
        const int axis = mesh::face_axis(face);
        const std::size_t base = mesh::face_offset(face, e, n);
        for (std::size_t ab = 0; ab < std::size_t(n) * n; ++ab) {
          for (int f = 0; f < nf; ++f) {
            uin[f] = myfaces_[f * fsz + base + ab];
            uout[f] = nbrfaces_[f * fsz + base + ab];
          }
          sys.flux_point(uin, fin, axis);
          sys.flux_point(uout, fout, axis);
          acc += std::max(sys.wavespeed_point(uin, axis),
                          sys.wavespeed_point(uout, axis)) +
                 fin[0] - fout[nf - 1];
        }
      }
    }
    sink_ += acc;
  });

  // core: the CFL reduction (collective, reads state only).
  double dt = 0.0;
  timed(kComputeDt, [&] { dt = d.compute_dt(); });

  // gs: dssum of every field at once, on a copy.
  for (int f = 0; f < nf; ++f) {
    std::copy(uptr[f], uptr[f] + pts, many_.begin() + std::ptrdiff_t(f * pts));
  }
  timed(kDssum, [&] {
    d.gather_scatter().exec_many(std::span<double>(many_), nf,
                                 cmtbone::gs::ReduceOp::kSum);
  });

  // particles: advance + migrate a copy of the live tracker (or the empty
  // one), deposit onto scratch. The carrier is filled untimed.
  d.system().carrier_velocity(uptr, vx_.data(), vy_.data(), vz_.data(), 0,
                              pts);
  std::unique_ptr<cmtbone::particles::Tracker> copy;
  cmtbone::particles::Tracker* tr = empty_tracker_.get();
  if (d.tracker()) {
    copy = std::make_unique<cmtbone::particles::Tracker>(*d.tracker());
    tr = copy.get();
  }
  timed(kAdvance, [&] {
    tr->advance_interpolated(vx_.data(), vy_.data(), vz_.data(), dt);
  });
  timed(kMigrate, [&] { tr->migrate(); });
  last_migrated_ = static_cast<long long>(tr->last_migrated());
  std::fill(deposit_.begin(), deposit_.end(), 0.0);
  timed(kDeposit, [&] {
    tr->deposit_all(deposit_.data(), d.config().particle_coupling + 1.0);
  });

  // balance: one epoch decision (cost assembly + repartition proposal) on
  // the live layout, without applying it.
  timed(kBalanceDecide, [&] {
    cmtbone::balance::CostModelConfig cmc;
    cmc.mode = cmtbone::balance::CostMode::kParticleCount;
    cmc.particle_weight = d.config().balance_particle_weight;
    const cmtbone::balance::CostModel model(cmc);
    const std::vector<int> counts =
        d.tracker() ? d.tracker()->count_per_element()
                    : std::vector<int>(std::size_t(nel), 0);
    const std::vector<double> dense = cmtbone::balance::gather_global_costs(
        *comm_, d.element_layout(), model.element_costs(counts));
    cmtbone::balance::RebalanceConfig rc;
    rc.max_moves = d.config().balance_max_moves;
    rc.threshold = d.config().balance_threshold;
    cmtbone::balance::propose_owner(d.element_layout(), dense, rc);
  });

  // io: serialize the live state; parse + restore it into the shadow.
  std::vector<std::byte> bytes;
  timed(kCkptSerialize, [&] { bytes = d.serialize_checkpoint(); });
  timed(kCkptRestore, [&] {
    std::vector<std::vector<double>> fields;
    std::vector<std::int32_t> owner;
    const cmtbone::io::CheckpointHeader h =
        cmtbone::io::parse_checkpoint(bytes, "memory", &fields, &owner);
    shadow_->restore_state(h, std::move(fields), owner);
  });
  return secs;
}

}  // namespace perfbench
