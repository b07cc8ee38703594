#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "exec/engine_spec.hpp"
#include "kernels/update.hpp"
#include "models/code_balance.hpp"
#include "models/machine.hpp"
#include "models/perf_model.hpp"
#include "util/machine_detect.hpp"
#include "util/timer.hpp"

namespace e2e {

double triad_gb_s() {
  const emwd::util::HostInfo host = emwd::util::detect_host();
  const int threads = std::max(1, host.logical_cpus);
  // Combined a+b+c at least 4x the LLC (and at least 64 MiB on hosts that
  // report no L3).
  const std::size_t total = std::max<std::size_t>(4 * host.l3_bytes, 64u << 20);
  const std::size_t n = total / (3 * sizeof(double)) + 1;
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto chunk = [&](int t) {
    return std::pair<std::size_t, std::size_t>{n * t / threads, n * (t + 1) / threads};
  };
  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> team;
    for (int t = 1; t < threads; ++t) team.emplace_back(body, t);
    body(0);
    for (std::thread& th : team) th.join();
  };
  // First touch from the thread that later streams the chunk.
  parallel([&](int t) {
    const auto [lo, hi] = chunk(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e30;
  const double s = 3.0;
  for (int rep = 0; rep < 5; ++rep) {
    emwd::util::Timer timer;
    parallel([&](int t) {
      const auto [lo, hi] = chunk(t);
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    best = std::min(best, timer.seconds());
  }
  if (a[n / 2] != 7.0) return 0.0;  // the triad did not run as written
  return 3.0 * sizeof(double) * static_cast<double>(n) / best / 1e9;
}

double row_mcells_s(int row_cells) {
  // 32 rows of each operand: ~5 arrays x 32 rows x n x 16 B stays in L2
  // for the widths the workloads use.
  const int rows = 32;
  const std::size_t n = static_cast<std::size_t>(std::max(1, row_cells));
  const std::size_t len = 2 * (n + 1) * rows;
  std::vector<double> x(len, 0.5), t(len, 0.0), c(len, 0.0), a(len, 0.25), b(len, 0.125);
  for (std::size_t i = 0; i < len; i += 2) t[i] = 1.0;  // t = 1 + 0i: values stay put
  emwd::kernels::RowArgs args{};
  args.shift = 1;
  args.ds = 1.0;
  args.n = static_cast<int>(n);
  args.src = nullptr;
  std::int64_t cells = 0;
  emwd::util::Timer timer;
  double elapsed = 0.0;
  do {
    for (int r = 0; r < rows; ++r) {
      const std::size_t off = 2 * (n + 1) * static_cast<std::size_t>(r);
      args.x = x.data() + off;
      args.t = t.data() + off;
      args.c = c.data() + off;
      args.a = a.data() + off;
      args.b = b.data() + off;
      emwd::kernels::update_row(args);
    }
    cells += static_cast<std::int64_t>(n) * rows;
    elapsed = timer.seconds();
  } while (elapsed < 0.3);
  if (x[0] != 0.5) return 0.0;  // t = 1, c = 0 must leave x unchanged
  return static_cast<double>(cells) / elapsed / 1e6;
}

namespace {

/// The engine that does the stepping: a sharded engine's (first) inner.
emwd::exec::EngineSpec stepping_engine(const emwd::exec::EngineSpec& spec) {
  if (spec.kind == "sharded") {
    for (const char* key : {"inner", "inner0"}) {
      if (const auto inner = spec.child(key)) return *inner;
    }
  }
  return spec;
}

/// Code balance (bytes/LUP): Eq. 12 for an mwd engine's diamond width,
/// Eq. 9 for spatial, Eq. 8 otherwise.
double code_balance(const emwd::exec::EngineSpec& spec) {
  if (spec.kind == "mwd") {
    return emwd::models::diamond_bytes_per_lup(static_cast<int>(spec.get_int("dw", 4)));
  }
  if (spec.kind == "spatial") return emwd::models::spatial_bytes_per_lup();
  return emwd::models::naive_bytes_per_lup();
}

}  // namespace

ModelNumbers predict_mlups(const std::string& resolved_spec, int threads,
                           double triad_gb_per_s, double row_mcells_per_s) {
  const emwd::exec::EngineSpec spec =
      stepping_engine(emwd::exec::parse_engine_spec(resolved_spec));
  const bool tiled = spec.kind == "mwd";
  ModelNumbers out;
  out.code_balance_b_per_lup = code_balance(spec);
  const emwd::models::Machine host = emwd::models::host_machine();
  emwd::models::Machine calibrated = host;
  calibrated.bandwidth_bytes_per_s = triad_gb_per_s * 1e9;
  emwd::models::calibrate_pcore(calibrated, row_mcells_per_s / 12.0);
  out.pred_mlups =
      emwd::models::predict(calibrated, threads, out.code_balance_b_per_lup, tiled)
          .mlups;
  out.host_pred_mlups =
      emwd::models::predict(host, threads, out.code_balance_b_per_lup, tiled).mlups;
  return out;
}

}  // namespace e2e
