#pragma once
// Step benchmark for the CMT-bone driver.
//
// A run of the benchmark is a sequence of identical *episodes* on 4 rank
// threads (comm::run). An episode builds a Driver from scratch (timed: the
// set-up sample), takes a few warm-up steps, then a fixed number of timed
// steps, and ends with correctness checks. Because every episode of a run
// replays the same seeded inputs, every exact count and the final fields
// must repeat bit for bit from one episode to the next; that is checked too.
//
// In a traced run every other episode also runs the layer probes between
// steps: each probe times calls into one layer's public functions on the
// driver's live objects, on copies and scratch buffers, so the driver's
// state is left bitwise unchanged (the cross-episode fingerprint check
// proves it).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "netmodel/loggp.hpp"
#include "particles/tracker.hpp"
#include "prof/roofline.hpp"

namespace perfbench {

namespace core = cmtbone::core;
namespace comm = cmtbone::comm;

inline constexpr int kRanks = 4;

struct Workload {
  std::string name;
  core::Config config;
  int warmup_steps = 3;
  int timed_steps = 40;
  /// Seeded start time: the initial state is the system's exact solution at
  /// t0, so every seed starts from a different (translated) state while the
  /// work per step stays the same.
  double t0 = 0.0;
  /// Clustered particle cloud adopted after construction (0 = none).
  long long cloud_particles = 0;
  std::uint64_t cloud_seed = 0;
  /// In-memory checkpoint (Driver::serialize_checkpoint) every k steps
  /// (0 = never). Part of the workload, so part of the step time.
  int checkpoint_interval = 0;
  /// L-infinity error bound against system().exact_solution(t0 + t)
  /// (0 = no exact-solution check, e.g. with two-way particle coupling).
  double linf_bound = 0.0;
  /// Fields whose domain integral must hold to round-off.
  std::vector<int> conserved_fields;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// Build the named workload for `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

/// Construct and initialise a driver for `wl` (collective): the set-up the
/// `setup_s` metric times.
std::unique_ptr<core::Driver> setup_driver(comm::Comm& comm,
                                           const Workload& wl);

/// Quantities a check compares against, taken right after set-up.
struct Baseline {
  std::vector<double> integrals;  // per conserved field
  long long particles = 0;
};
Baseline take_baseline(core::Driver& d, const Workload& wl);  // collective

struct CheckOutcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> lines;  // "ok: ..." or "FAILED: ...", per check
  void record(bool ok, const std::string& what);
  void merge(const CheckOutcome& other);
};

/// Exact-solution error, conservation, particle-count checks (collective).
CheckOutcome check_state(core::Driver& d, const Workload& wl,
                         const Baseline& base);
/// Serialize every rank's state, restore it into a freshly constructed
/// driver, and require gather_global_field to match bit for bit
/// (collective).
CheckOutcome check_checkpoint_roundtrip(comm::Comm& comm, core::Driver& d,
                                        const Workload& wl);

/// FNV-1a over the dense global fields (collective; same on every rank).
std::uint64_t field_digest(const core::Driver& d);

/// Exact counts that must repeat for a fixed seed (summed over ranks).
struct Counts {
  long long epochs = 0;
  long long moves = 0;
  long long particles = 0;
  long long exchange_bytes = 0;   // face-exchange payload per exchange
  long long exchange_partners = 0;
  long long grad_bytes = 0;       // grad3 over all elements x fields
  long long dssum_values = 0;     // shared values per dssum of all fields
  long long ckpt_bytes = 0;       // one checkpoint of every rank
  std::uint64_t fields = 0;       // field_digest
  bool operator==(const Counts&) const = default;
};
Counts take_counts(comm::Comm& comm, core::Driver& d);  // collective

// ---- layer probes -------------------------------------------------------

/// Probe names, in the order a probe set runs them.
enum Probe {
  kGrad,            // kernels::grad3 over all local elements x fields
  kFlux,            // system().flux_range, all points, three axes
  kExchange,        // face_exchange().exchange of every field
  kFaceFlux,        // 2 flux_point + 2 wavespeed_point per face point
  kComputeDt,       // Driver::compute_dt
  kDssum,           // gather_scatter().exec_many(copy, nf, kSum)
  kAdvance,         // Tracker::advance_interpolated on a tracker copy
  kMigrate,         // Tracker::migrate on that copy
  kDeposit,         // Tracker::deposit_all onto scratch
  kBalanceDecide,   // cost assembly + propose_owner, not applied
  kCkptSerialize,   // Driver::serialize_checkpoint
  kCkptRestore,     // parse_checkpoint + restore_state into a shadow driver
  kNumProbes
};

/// Scratch state the probes reuse across one episode: field copies, face
/// buffers, an empty tracker (workloads without particles), and a shadow
/// driver to restore checkpoints into.
class Probes {
 public:
  Probes(comm::Comm& comm, core::Driver& d, const Workload& wl);
  ~Probes();
  /// Run every probe once (collective). Returns per-probe seconds on this
  /// rank, indexed by Probe; each probe starts after a barrier.
  std::vector<double> run(core::Driver& d);
  /// Particles the last migrate probe shipped (this rank).
  long long last_migrated() const { return last_migrated_; }

 private:
  void ensure_buffers(const core::Driver& d);

  comm::Comm* comm_;
  std::vector<double> ucopy_, ur_, us_, ut_;
  std::vector<std::vector<double>> flux_;
  std::vector<double> myfaces_, nbrfaces_, many_;
  std::vector<double> vx_, vy_, vz_, deposit_;
  std::unique_ptr<cmtbone::particles::Tracker> empty_tracker_;
  std::unique_ptr<core::Driver> shadow_;
  long long last_migrated_ = 0;
  double sink_ = 0.0;  // keeps the face-flux arithmetic observable
};

// ---- episodes -----------------------------------------------------------

struct EpisodeResult {
  double setup_s = 0;                // max over ranks
  std::vector<double> step_s;        // timed steps, max over ranks
  std::vector<char> epoch_step;      // 1 where the step ran a rebalance epoch
  double loop_wall_s = 0;            // timed-loop wall (rank 0, untraced)
  double mdof = 0;                   // global points x fields x timed steps / 1e6
  bool diverged = false;
  std::string gs_method;             // the method the dssum handle runs
  CheckOutcome checks;
  Counts counts;
  // Traced episodes only.
  bool traced = false;
  std::vector<std::vector<double>> probe_s;  // [probe][sample], max over ranks
  std::vector<double> step_wait_s;           // per step, max over ranks
  double imbalance = 0;
  long long migrated = 0;                    // last migrate probe, all ranks
};

/// Run one episode (collective). Rank 0's result is complete; the other
/// ranks' copies hold the same reduced values.
EpisodeResult run_episode(comm::Comm& comm, const Workload& wl, bool traced);

// ---- report ---------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
  std::string note;  // sample count or definition, printed only
};

/// End-to-end metrics of a run (untraced episodes): setup_s, step_s_p50,
/// step_s_p95, mdof_per_s, peak_rss_mb.
std::vector<Metric> end_to_end(const std::vector<EpisodeResult>& eps);
/// Per-layer metrics of a traced run (needs at least one untraced and one
/// traced episode). `net` and `machine` are the calibrated ceilings.
std::vector<Metric> per_layer(const Workload& wl,
                              const std::vector<EpisodeResult>& eps,
                              const cmtbone::netmodel::LogGPParams& net,
                              const cmtbone::prof::Machine& machine);

/// Every episode's own checks, plus determinism: each episode replays the
/// same seeded inputs, so its exact counts and final fields must equal the
/// first episode's (traced episodes included, which is what shows the
/// probes left the driver's state unchanged). Appends episode 0's check
/// lines and every failure to `report`.
CheckOutcome check_episodes(const std::vector<EpisodeResult>& episodes,
                            std::vector<std::string>* report);
std::string counts_line(const Counts& k);

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
