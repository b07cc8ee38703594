// cell-large and shard-halo: one thiim::Simulation stepped in fixed-length
// Simulation::run calls (one call = one operation), checked bit for bit
// against the naive engine on the same inputs.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "em/geometry.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "models/machine.hpp"
#include "obs/trace.hpp"
#include "thiim/simulation.hpp"
#include "tune/autotuner.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using emwd::thiim::Simulation;

struct SimWorkload {
  const char* name;
  emwd::grid::Extents grid;
  std::string engine;  // as a user writes it; resolved through the tuner
  int threads;
  int steps_per_op;
  int max_traced_ops;
  /// Paints the stack (before finalize); `seed` picks the texture.
  std::function<void(Simulation&, std::uint64_t seed)> paint;
  int shards = 1;     // > 1: check halo bytes against the layout
  int interval = 1;
  bool x_uniform = false;  // laterally uniform stack: check x-invariance
};

constexpr int kPml = 6;

/// The tandem stack of examples/spectrum_sweep: silver back contact, rough
/// uc-Si:H, a-Si:H, TCO.  `textured` adds the rough uc-Si:H interface.
void paint_tandem(Simulation& sim, bool textured, std::uint64_t texture_seed) {
  const int nz = sim.fields().layout().nz();
  auto& mats = sim.materials();
  const auto ag = mats.add(emwd::em::silver());
  const auto ucsi = mats.add(emwd::em::microcrystalline_silicon());
  const auto asi = mats.add(emwd::em::amorphous_silicon());
  const auto tco = mats.add(emwd::em::tco());
  emwd::em::GeometryBuilder g(mats);
  g.layer(ag, 0, nz / 8);
  if (textured) {
    g.textured_layer(ucsi, nz / 8, nz * 3 / 8,
                     emwd::em::GeometryBuilder::rough_texture(2.0, 5.0, texture_seed));
  } else {
    g.layer(ucsi, nz / 8, nz * 3 / 8);
  }
  g.layer(asi, nz * 3 / 8 + 2, nz / 2);
  g.layer(tco, nz / 2, nz * 9 / 16);
}

emwd::thiim::SimulationConfig make_config(const SimWorkload& w, double wavelength) {
  emwd::thiim::SimulationConfig cfg;
  cfg.grid = w.grid;
  cfg.wavelength_cells = wavelength;
  cfg.pml.thickness = kPml;
  cfg.x_boundary = emwd::grid::XBoundary::Periodic;
  cfg.threads = w.threads;
  return cfg;
}

/// Paint, finalize and add the plane-wave source, each under its own span.
void prepare(Simulation& sim, const SimWorkload& w, std::uint64_t texture_seed) {
  {
    emwd::obs::SpanGuard span("em.geometry");
    w.paint(sim, texture_seed);
  }
  {
    emwd::obs::SpanGuard span("em.finalize");
    sim.finalize();
  }
  emwd::obs::SpanGuard span("em.source");
  sim.add_plane_wave(emwd::em::SourceField::Ex, w.grid.nz - kPml - 2, {1.0, 0.0});
}

/// The p90 of call times as the median of the p90s of kWindows
/// consecutive windows of equal call count: a burst of load from another
/// tenant of the host that covers one window does not move it, while a
/// slower tail in every window does.
constexpr int kWindows = 5;
double windowed_p90(const std::vector<double>& op_s) {
  const std::size_t per = std::max<std::size_t>(1, op_s.size() / kWindows);
  std::vector<double> p90s;
  for (std::size_t i = 0; i + per <= op_s.size() && p90s.size() < kWindows; i += per) {
    p90s.push_back(quantile({op_s.begin() + static_cast<std::ptrdiff_t>(i),
                             op_s.begin() + static_cast<std::ptrdiff_t>(i + per)},
                            0.9));
  }
  return median(p90s);
}

/// EngineStats of a run of operations, summed.
struct StatsSum {
  double barrier_wait_s = 0.0, queue_wait_s = 0.0, halo_exposed_s = 0.0;
  double barrier_episodes = 0.0, halo_bytes = 0.0, redundant_lups = 0.0;
  void add(const emwd::exec::EngineStats& s, std::int64_t useful_lups) {
    barrier_wait_s += s.barrier_wait_seconds;
    queue_wait_s += s.queue_wait_seconds;
    halo_exposed_s += s.halo_exposed_seconds();
    barrier_episodes += static_cast<double>(s.barrier_episodes);
    halo_bytes += static_cast<double>(s.halo_bytes_moved);
    redundant_lups += static_cast<double>(s.lups - useful_lups);
  }
};

void run_sim_workload(const SimWorkload& w, const Options& opt, Report& report) {
  emwd::util::Xoshiro256 rng(opt.seed);
  const std::uint64_t texture_seed = rng.next();
  const double wavelength = rng.uniform(16.0, 30.0);  // ~400-750 nm at 25 nm cells
  const std::int64_t cells = w.grid.cells();
  const std::int64_t lups_per_op = cells * w.steps_per_op;

  // ---- set-up (timed from process start): tuning, construction,
  // geometry, finalize(), sources.  Traced runs trace it as session 1.
  double dropped = 0.0;
  std::unique_ptr<TraceSession> setup_trace;
  if (opt.trace) setup_trace = std::make_unique<TraceSession>(1 << 14);
  emwd::thiim::SimulationConfig cfg = make_config(w, wavelength);
  const double t_start = seconds_since_start();
  emwd::exec::BuildContext ctx;
  ctx.grid = w.grid;
  ctx.threads = w.threads;
  ctx.machine = emwd::models::host_machine();
  ctx.registry = &emwd::exec::EngineRegistry::global();
  {
    emwd::obs::SpanGuard span("tune.resolve");
    cfg.engine_spec = emwd::exec::to_string(
        emwd::tune::resolve_auto_spec(emwd::exec::parse_engine_spec(w.engine), ctx));
  }
  const double t_tuned = seconds_since_start();
  std::unique_ptr<Simulation> sim;
  {
    emwd::obs::SpanGuard span("thiim.construct");
    sim = std::make_unique<Simulation>(cfg);
  }
  const double t_built = seconds_since_start();
  prepare(*sim, w, texture_seed);
  const double setup_s = seconds_since_start();
  std::fprintf(stderr, "e2ebench: setup %.4f s: process start %.4f, tune %.4f, "
               "construct %.4f, paint+finalize+source %.4f\n", setup_s, t_start,
               t_tuned - t_start, t_built - t_tuned, setup_s - t_built);
  TraceSummary setup_summary;
  if (setup_trace) setup_summary = setup_trace->finish(opt, "setup", dropped);

  std::int64_t ops_total = 0;
  double halo_bytes_total = 0.0;
  bool shards_ok = true;
  const auto step_op = [&]() {
    sim->run(w.steps_per_op);
    ++ops_total;
    const emwd::exec::EngineStats& s = sim->last_stats();
    halo_bytes_total += static_cast<double>(s.halo_bytes_moved);
    if (w.shards > 1 && s.shards != w.shards) shards_ok = false;
  };

  // ---- warm-up: first run() allocates prepared engine state.
  step_op();

  // ---- measured part (untraced): whole operations until the time is up.
  std::vector<double> op_s;
  double busy_s = 0.0;
  while (busy_s < opt.seconds) {
    emwd::util::Timer t;
    step_op();
    op_s.push_back(t.seconds());
    busy_s += op_s.back();
  }
  const double ops = static_cast<double>(op_s.size());
  // The typical call's rate: a median is robust to the odd call another
  // tenant of the host stalls; the total-time throughput is jobs_per_s.
  const double mlups = static_cast<double>(lups_per_op) / median(op_s) / 1e6;
  report.set("mlups", mlups);
  report.set("setup_s", setup_s);
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("jobs_per_s", ops / busy_s);
  std::fprintf(stderr, "e2ebench: %zu run() calls, wall time deciles (ms):", op_s.size());
  for (int d = 1; d <= 9; ++d) std::fprintf(stderr, " %.2f", 1e3 * quantile(op_s, d / 10.0));
  std::fprintf(stderr, "\n");
  report.set("probe_p50_s", median(op_s));
  report.set("probe_p90_s", windowed_p90(op_s));
  report.attempted = static_cast<std::int64_t>(op_s.size());

  // ---- traced part: a bounded number of the same operations.
  StatsSum traced;
  TraceSummary summary;
  int traced_ops = 0;
  if (opt.trace) {
    traced_ops = std::min<int>(w.max_traced_ops, static_cast<int>(op_s.size()));
    TraceSession session(1 << 14);
    std::vector<double> traced_op_s;
    for (int i = 0; i < traced_ops; ++i) {
      emwd::util::Timer t;
      {
        emwd::obs::SpanGuard span("thiim.run");
        step_op();
      }
      traced_op_s.push_back(t.seconds());
      traced.add(sim->last_stats(), lups_per_op);
    }
    {
      emwd::obs::SpanGuard span("thiim.observables");
      volatile double sink = sim->total_energy() + sim->electric_energy();
      for (double a : sim->absorption_by_material()) sink = sink + a;
    }
    summary = session.finish(opt, "run", dropped);
    // Per-operation medians on both sides, so one stalled call does not
    // pass for tracing cost.
    report.set("obs.overhead_s", traced_ops * (median(traced_op_s) - median(op_s)));
  }

  // ---- correctness, outside every timed region.
  const int total_steps = static_cast<int>(ops_total) * w.steps_per_op;
  {
    emwd::thiim::SimulationConfig ref_cfg = cfg;
    ref_cfg.engine_spec = "naive";
    ref_cfg.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    Simulation ref(ref_cfg);
    prepare(ref, w, texture_seed);
    ref.run(total_steps);
    if (std::string e = check_fields_identical(sim->fields(), ref.fields()); !e.empty()) {
      report.fail_check(std::string(w.name) + ": " + e);
    }
  }
  if (w.x_uniform) {
    if (std::string e = check_x_invariant(sim->fields()); !e.empty()) {
      report.fail_check(std::string(w.name) + ": " + e);
    }
  }
  if (w.shards > 1) {
    if (!shards_ok) report.fail_check(std::string(w.name) + ": engine ran another shard count");
    const std::int64_t expected =
        ops_total * expected_halo_bytes(w.grid, w.shards, w.interval, w.steps_per_op);
    if (std::string e = check_halo_bytes(static_cast<std::int64_t>(halo_bytes_total), expected);
        !e.empty()) {
      report.fail_check(std::string(w.name) + ": " + e);
    }
  }
  if (!opt.trace) return;

  // ---- per-layer metrics.
  report.set("grid.bytes_per_cell",
             static_cast<double>(sim->fields().allocated_bytes()) / static_cast<double>(cells));
  sim.reset();  // free the state before the probes allocate theirs
  report.set("em.finalize_s", setup_summary.self("em.finalize"));
  report.set("tune.resolve_s", setup_summary.self("tune.resolve"));
  report.set("thiim.construct_s", setup_summary.self("thiim.construct"));
  report.set("thiim.observables_s", summary.self("thiim.observables"));
  report.set("exec.run_self_s", summary.self("engine.run"));
  report.set("exec.tiles_interior_s", summary.self("engine.tiles.interior"));
  report.set("exec.tiles_boundary_s", summary.self("engine.tiles.boundary"));
  report.set("exec.barrier_wait_s", traced.barrier_wait_s);
  report.set("exec.queue_wait_s", traced.queue_wait_s);
  report.set("exec.barrier_episodes", traced.barrier_episodes);
  report.set("exec.runs", static_cast<double>(summary.count("engine.run")) / traced_ops);
  report.set("halo.post_s", summary.self("halo.post"));
  report.set("halo.wait_s", summary.self("halo.wait"));
  report.set("halo.stage_s", summary.self("halo.stage"));
  report.set("halo.unstage_s", summary.self("halo.unstage"));
  report.set("halo.exposed_s", traced.halo_exposed_s);
  report.set("halo.bytes", traced.halo_bytes);
  report.set("dist.redundant_lups", traced.redundant_lups);
  report.set("obs.dropped", dropped);
  report_machine_and_models(report, w.grid.nx, cfg.engine_spec, w.threads, mlups);
}

}  // namespace

// 96x96x224 = 2.06 M cells at 640 B/cell: 1.32 GB of state, over 4x the
// 300 MiB LLC of the reference host.  Two engine threads: on a shared
// 4-vCPU host, 4-thread runs of this grid swing by 2x between runs.
void run_cell_large(const Options& opt, Report& report) {
  SimWorkload w;
  w.name = "cell-large";
  w.grid = {96, 96, 224};
  w.engine = "auto";
  w.threads = 2;
  w.steps_per_op = 8;
  w.max_traced_ops = 3;
  w.paint = [](Simulation& sim, std::uint64_t seed) { paint_tandem(sim, true, seed); };
  run_sim_workload(w, opt, report);
}

void run_shard_halo(const Options& opt, Report& report) {
  SimWorkload w;
  w.name = "shard-halo";
  w.grid = {24, 24, 64};
  w.shards = 2;
  w.interval = 2;
  w.engine = "sharded(shards=2,interval=2,overlap,transport=shm,inner=auto)";
  w.threads = 2;
  w.steps_per_op = 16;
  w.max_traced_ops = 100;
  w.x_uniform = true;
  w.paint = [](Simulation& sim, std::uint64_t) { paint_tandem(sim, false, 0); };
  run_sim_workload(w, opt, report);
}

}  // namespace e2e
