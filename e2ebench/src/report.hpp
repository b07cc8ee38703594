// Result record of one benchmark invocation and the small statistics the
// workloads share.  The last line a run prints is Report::json(): the
// end-to-end metrics of an untraced run (--trace 0) or the per-layer
// metrics of a traced run (--trace 1), plus the correctness verdict and the
// operations attempted and failed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "e2ebench/out";  // trace files and summaries
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json
/// "end_to_end"), and the per-layer metrics every traced run prints
/// ("per_layer").  A layer a workload does not exercise reports 0.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  explicit Report(bool trace);

  /// Record a metric of the active set (a non-finite value fails the run);
  /// metrics of the other set are ignored, and any other name throws
  /// std::logic_error (a misspelt metric must not print silently).
  void set(const std::string& name, double value);

  /// Mark the run incorrect with a reason (printed to stderr by json()).
  void fail_check(const std::string& what);
  bool correct() const { return failures_.empty(); }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// The final JSON line.  Throws std::logic_error when an end-to-end
  /// metric was never set (per-layer metrics default to 0).
  std::string json() const;

 private:
  bool trace_;
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

/// Seconds since the process started (static-initialization time).
double seconds_since_start();

/// Peak resident set size of the process so far, in MB (10^6 bytes).
double peak_rss_mb();

/// Median, and linear-interpolated quantile q in [0, 1]; 0 for no samples.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

}  // namespace e2e
