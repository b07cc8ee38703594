// Each correctness check the workloads apply passes on a real output and
// rejects the same output with one value perturbed; the trace reducer's
// self-time arithmetic is pinned on a hand-written trace.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "checks.hpp"
#include "em/geometry.hpp"
#include "kernels/components.hpp"
#include "thiim/simulation.hpp"
#include "trace_reduce.hpp"

namespace {

using emwd::thiim::Simulation;
using emwd::thiim::SimulationConfig;

SimulationConfig small_config(const std::string& engine) {
  SimulationConfig cfg;
  cfg.grid = {8, 8, 32};
  cfg.pml.thickness = 4;
  cfg.x_boundary = emwd::grid::XBoundary::Periodic;
  cfg.engine_spec = engine;
  cfg.threads = 2;
  return cfg;
}

/// Flat (laterally uniform) two-layer stack under a plane wave.
void prepare_flat(Simulation& sim) {
  auto& mats = sim.materials();
  const auto ag = mats.add(emwd::em::silver());
  const auto asi = mats.add(emwd::em::amorphous_silicon());
  emwd::em::GeometryBuilder(mats).layer(ag, 0, 4).layer(asi, 8, 14);
  sim.finalize();
  sim.add_plane_wave(emwd::em::SourceField::Ex, 26, {1.0, 0.0});
}

double& value_at(emwd::grid::FieldSet& fs, int i, int j, int k) {
  emwd::grid::Field& f = fs.field(emwd::kernels::Comp::Exy);
  return f.data()[2 * fs.layout().at(i, j, k)];
}

TEST(Checks, FieldsIdenticalRejectsOnePerturbedValue) {
  Simulation a(small_config("mwd(dw=4)"));
  Simulation b(small_config("naive"));
  prepare_flat(a);
  prepare_flat(b);
  a.run(12);
  b.run(12);
  EXPECT_EQ(e2e::check_fields_identical(a.fields(), b.fields()), "");

  double& v = value_at(b.fields(), 3, 4, 20);
  const double kept = v;
  v = std::nextafter(v, 1e300);
  EXPECT_NE(e2e::check_fields_identical(a.fields(), b.fields()), "");
  v = kept;
  value_at(a.fields(), 3, 4, 20) = std::numeric_limits<double>::quiet_NaN();
  value_at(b.fields(), 3, 4, 20) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(e2e::check_fields_identical(a.fields(), b.fields()), "");
}

TEST(Checks, XInvarianceRejectsOnePerturbedValue) {
  Simulation sim(small_config("naive"));
  prepare_flat(sim);
  sim.run(12);
  EXPECT_EQ(e2e::check_x_invariant(sim.fields()), "");
  double& v = value_at(sim.fields(), 5, 2, 24);
  v = std::nextafter(v, -1e300);
  EXPECT_NE(e2e::check_x_invariant(sim.fields()), "");
}

TEST(Checks, HaloBytesMatchTheLayoutAndRejectAnOffByOne) {
  for (const char* transport : {"local", "shm"}) {
    SimulationConfig cfg = small_config(
        std::string("sharded(shards=2,interval=2,overlap,inner=naive,transport=") +
        transport + ")");
    Simulation sim(cfg);
    prepare_flat(sim);
    for (const int steps : {8, 7, 2}) {
      sim.run(steps);
      const std::int64_t moved = sim.last_stats().halo_bytes_moved;
      const std::int64_t expected = e2e::expected_halo_bytes(cfg.grid, 2, 2, steps);
      EXPECT_EQ(e2e::check_halo_bytes(moved, expected), "") << transport << " " << steps;
      EXPECT_NE(e2e::check_halo_bytes(moved + 1, expected), "");
    }
  }
  // 8 steps at interval 2: three exchanges of 2 planes on each side of the
  // one cut.
  EXPECT_GT(e2e::expected_halo_bytes({8, 8, 32}, 2, 2, 8), 0);
  EXPECT_EQ(e2e::expected_halo_bytes({8, 8, 32}, 2, 2, 2), 0);
}

TEST(Checks, ObservablesRejectOnePerturbedValue) {
  const e2e::Observables ref{1.5, 0.75, {0.0, 0.25, 0.125}};
  EXPECT_EQ(e2e::check_observables(ref, ref), "");
  e2e::Observables got = ref;
  got.total_energy = std::nextafter(ref.total_energy, 2.0);
  EXPECT_NE(e2e::check_observables(got, ref), "");
  got = ref;
  got.electric_energy = std::nextafter(ref.electric_energy, 0.0);
  EXPECT_NE(e2e::check_observables(got, ref), "");
  got = ref;
  got.absorption[2] = std::nextafter(ref.absorption[2], 1.0);
  EXPECT_NE(e2e::check_observables(got, ref), "");
  got = ref;
  got.absorption.pop_back();
  EXPECT_NE(e2e::check_observables(got, ref), "");
  got = ref;
  got.total_energy = std::numeric_limits<double>::infinity();
  EXPECT_NE(e2e::check_observables(got, got), "");
}

TEST(TraceReduce, SelfTimeSubtractsDirectChildrenPerThread) {
  // Thread 0: engine.run [0,100] > halo.wait [10,30], engine.tiles [40,60]
  // > halo.post [45,50].  Thread 1: engine.run [0,50] for job 7.
  const std::string trace = R"({"traceEvents":[
    {"name":"halo.wait","ph":"X","ts":10,"dur":20,"tid":0},
    {"name":"halo.post","ph":"X","ts":45,"dur":5,"tid":0},
    {"name":"engine.tiles","ph":"X","ts":40,"dur":20,"tid":0},
    {"name":"engine.run","ph":"X","ts":0,"dur":100,"tid":0},
    {"name":"sched.retry","ph":"i","s":"t","ts":5,"tid":0},
    {"name":"engine.run","ph":"X","ts":0,"dur":50,"tid":1,"args":{"arg":3,"job":7}}
  ]})";
  const e2e::TraceSummary s = e2e::reduce_chrome_trace(trace);
  EXPECT_NEAR(s.self("engine.run"), (60 + 50) * 1e-6, 1e-12);
  EXPECT_EQ(s.count("engine.run"), 2);
  EXPECT_NEAR(s.self("engine.tiles"), 15e-6, 1e-12);
  EXPECT_NEAR(s.self("halo.wait"), 20e-6, 1e-12);
  EXPECT_NEAR(s.self("halo.post"), 5e-6, 1e-12);
  EXPECT_NEAR(s.self_by_layer.at("engine"), 125e-6, 1e-12);
  EXPECT_NEAR(s.self_by_layer.at("halo"), 25e-6, 1e-12);
  EXPECT_NEAR(s.self_by_job.at(7), 50e-6, 1e-12);
  EXPECT_NEAR(s.self_by_job.at(-1), 100e-6, 1e-12);
  EXPECT_EQ(s.count("sched.retry"), 0);  // instants carry no time
}

}  // namespace
