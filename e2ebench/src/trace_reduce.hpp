// Trace reducer: per-span self time from obs::chrome_trace_json().
//
// A span's self time is its duration minus the time covered by its direct
// child spans on the same thread (spans nest properly per thread — the
// tracer validates it).  Results are grouped three ways: by span name, by
// layer (the name's first dotted segment, the trace's "cat") and by job
// correlation id (args.job; -1 for spans outside any job).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace e2e {

struct SpanStat {
  std::int64_t count = 0;
  double total_s = 0.0;  // summed durations
  double self_s = 0.0;   // summed self times
};

struct TraceSummary {
  std::map<std::string, SpanStat> by_name;
  std::map<std::string, double> self_by_layer;
  std::map<std::int64_t, double> self_by_job;

  double self(const std::string& name) const;
  std::int64_t count(const std::string& name) const;
  /// The summary as one JSON object (written next to the trace file).
  std::string to_json() const;
};

/// Reduce a Chrome trace-event document ({"traceEvents":[...]}).  Complete
/// ("X") events are reduced; instants are ignored.  Throws
/// std::invalid_argument on malformed JSON.
TraceSummary reduce_chrome_trace(const std::string& json);

}  // namespace e2e
