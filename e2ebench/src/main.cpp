// e2ebench — the repository's end-to-end benchmark.
//
//   e2ebench --workload cell-large|shard-halo|daemon-mixed --seed N
//            --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload, checks its outputs, and prints as its last stdout line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics; --trace 1 reruns part of the workload
// under the obs tracer and reports the per-layer metrics.  See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/trace.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace e2e {

TraceSession::TraceSession(std::size_t ring_capacity) {
  emwd::obs::TraceConfig cfg;
  cfg.ring_capacity = ring_capacity;
  emwd::obs::start_tracing(cfg);
}

TraceSummary TraceSession::finish(const Options& opt, const std::string& tag,
                                  double& dropped) {
  emwd::obs::stop_tracing();
  dropped += static_cast<double>(emwd::obs::trace_stats().dropped);
  const std::string trace = emwd::obs::chrome_trace_json();
  TraceSummary summary = reduce_chrome_trace(trace);
  std::filesystem::create_directories(opt.out_dir);
  const std::string base = opt.out_dir + "/" + opt.workload + "-" + tag;
  std::ofstream(base + ".trace.json") << trace;
  std::ofstream(base + ".summary.json") << summary.to_json() << '\n';
  return summary;
}

void report_machine_and_models(Report& report, int row_cells,
                               const std::string& resolved_spec, int threads,
                               double measured_mlups) {
  const double row = row_mcells_s(row_cells);
  const double triad = triad_gb_s();
  const ModelNumbers m = predict_mlups(resolved_spec, threads, triad, row);
  report.set("kernels.row_mcells_s", row);
  report.set("machine.triad_gb_s", triad);
  report.set("models.code_balance_b_per_lup", m.code_balance_b_per_lup);
  report.set("models.pred_mlups", m.pred_mlups);
  report.set("models.host_pred_mlups", m.host_pred_mlups);
  report.set("models.pred_over_measured",
             measured_mlups > 0 ? m.pred_mlups / measured_mlups : 0.0);
  std::fprintf(stderr, "e2ebench: engine %s, %d thread(s): predicted %.4g MLUP/s "
               "(host constants %.4g), measured %.4g\n",
               resolved_spec.c_str(), threads, m.pred_mlups, m.host_pred_mlups,
               measured_mlups);
}

}  // namespace e2e

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload cell-large|shard-halo|"
               "daemon-mixed --seed N --seconds S --trace 0|1 [--out DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  try {
    e2e::Report report(opt.trace);
    if (opt.workload == "cell-large") {
      e2e::run_cell_large(opt, report);
    } else if (opt.workload == "shard-halo") {
      e2e::run_shard_halo(opt, report);
    } else if (opt.workload == "daemon-mixed") {
      e2e::run_daemon_mixed(opt, report);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
