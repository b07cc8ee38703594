#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"

namespace e2e {

namespace {
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();
}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"mlups", "MLUP/s"},     {"setup_s", "s"},     {"peak_rss_mb", "MB"},
      {"jobs_per_s", "jobs/s"}, {"probe_p50_s", "s"}, {"probe_p90_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"kernels.row_mcells_s", "Mcells/s"},
      {"grid.bytes_per_cell", "B"},
      {"em.finalize_s", "s"},
      {"exec.run_self_s", "s"},
      {"exec.tiles_interior_s", "s"},
      {"exec.tiles_boundary_s", "s"},
      {"exec.barrier_wait_s", "s"},
      {"exec.queue_wait_s", "s"},
      {"exec.barrier_episodes", "count"},
      {"exec.runs", "count/op"},
      {"halo.post_s", "s"},
      {"halo.wait_s", "s"},
      {"halo.stage_s", "s"},
      {"halo.unstage_s", "s"},
      {"halo.exposed_s", "s"},
      {"halo.bytes", "B"},
      {"dist.redundant_lups", "count"},
      {"tune.resolve_s", "s"},
      {"models.code_balance_b_per_lup", "B/LUP"},
      {"models.pred_mlups", "MLUP/s"},
      {"models.host_pred_mlups", "MLUP/s"},
      {"models.pred_over_measured", "ratio"},
      {"machine.triad_gb_s", "GB/s"},
      {"thiim.construct_s", "s"},
      {"thiim.observables_s", "s"},
      {"batch.queue_s", "s"},
      {"batch.job_overhead_s", "s"},
      {"batch.pool_hit_ratio", "ratio"},
      {"batch.plan_misses", "count"},
      {"serve.request_self_s", "s"},
      {"serve.ack_s", "s"},
      {"serve.frames", "count"},
      {"obs.overhead_s", "s"},
      {"obs.dropped", "count"},
  };
  return defs;
}

Report::Report(bool trace) : trace_(trace) {
  if (trace_) {
    for (const MetricDef& d : per_layer_metrics()) values_[d.name] = 0.0;
  }
}

void Report::set(const std::string& name, double value) {
  const auto& defs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& d : defs) {
    if (name == d.name) {
      if (!std::isfinite(value)) {  // JSON has no inf/nan, and none is expected
        fail_check("metric " + name + " is not finite");
        value = 0.0;
      }
      values_[name] = value;
      return;
    }
  }
  // Metrics of the other set are computed on both paths; only the active
  // set is reported.
  const auto& other = trace_ ? end_to_end_metrics() : per_layer_metrics();
  for (const MetricDef& d : other) {
    if (name == d.name) return;
  }
  throw std::logic_error("e2ebench: unknown metric " + name);
}

void Report::fail_check(const std::string& what) { failures_.push_back(what); }

std::string Report::json() const {
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", f.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const MetricDef& d : trace_ ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = values_.find(d.name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("e2ebench: metric never set: ") + d.name);
    }
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    if (!first) out += ", ";
    first = false;
    out += emwd::util::json_quote(d.name) + ": {\"value\": " + buf +
           ", \"unit\": " + emwd::util::json_quote(d.unit) + "}";
  }
  out += "}}";
  return out;
}

double seconds_since_start() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_start)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace e2e
