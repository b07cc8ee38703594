// The benchmark's workloads.  Each runs its measured part untraced; with
// Options::trace it then repeats part of it under the obs tracer and
// reports the per-layer metrics instead of the end-to-end ones.
#pragma once

#include <cstddef>
#include <string>

#include "report.hpp"
#include "trace_reduce.hpp"

namespace e2e {

void run_cell_large(const Options& opt, Report& report);
void run_shard_halo(const Options& opt, Report& report);
void run_daemon_mixed(const Options& opt, Report& report);

/// One armed obs trace session.  finish() disarms, writes the Chrome trace
/// to <out_dir>/<workload>-<tag>.trace.json with its reduction beside it
/// (<...>.summary.json), adds the ring drops to `dropped` and returns the
/// reduction.
class TraceSession {
 public:
  explicit TraceSession(std::size_t ring_capacity);
  TraceSummary finish(const Options& opt, const std::string& tag, double& dropped);
};

/// The probe and model figures every traced run reports: the row-kernel
/// probe at `row_cells`, the triad probe, and models::predict for the
/// resolved engine spec against `measured_mlups`.
void report_machine_and_models(Report& report, int row_cells,
                               const std::string& resolved_spec, int threads,
                               double measured_mlups);

}  // namespace e2e
