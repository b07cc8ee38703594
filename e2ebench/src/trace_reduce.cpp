#include "trace_reduce.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/json.hpp"

namespace e2e {

namespace {

struct Span {
  std::string name;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
  std::int64_t job = -1;
  double child = 0.0;  // microseconds covered by direct children
};

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

double TraceSummary::self(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.self_s;
}

std::int64_t TraceSummary::count(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.count;
}

std::string TraceSummary::to_json() const {
  std::string out = "{\"spans\":{";
  char buf[160];
  bool first = true;
  for (const auto& [name, s] : by_name) {
    std::snprintf(buf, sizeof(buf), "{\"count\":%lld,\"total_s\":%.9g,\"self_s\":%.9g}",
                  static_cast<long long>(s.count), s.total_s, s.self_s);
    if (!first) out += ',';
    first = false;
    out += emwd::util::json_quote(name) + ":" + buf;
  }
  out += "},\"self_by_layer\":{";
  first = true;
  for (const auto& [layer, s] : self_by_layer) {
    std::snprintf(buf, sizeof(buf), "%.9g", s);
    if (!first) out += ',';
    first = false;
    out += emwd::util::json_quote(layer) + ":" + buf;
  }
  out += "},\"self_by_job\":{";
  first = true;
  for (const auto& [job, s] : self_by_job) {
    std::snprintf(buf, sizeof(buf), "\"%lld\":%.9g", static_cast<long long>(job), s);
    if (!first) out += ',';
    first = false;
    out += buf;
  }
  out += "}}";
  return out;
}

TraceSummary reduce_chrome_trace(const std::string& json) {
  const emwd::util::JsonValue doc = emwd::util::JsonValue::parse(json);
  std::map<long, std::vector<Span>> by_thread;
  if (const emwd::util::JsonValue* events = doc.find("traceEvents")) {
    for (const emwd::util::JsonValue& ev : events->as_array()) {
      if (ev.get_string("ph", "") != "X") continue;
      Span s;
      s.name = ev.get_string("name", "");
      s.ts = ev.get_double("ts", 0.0);
      s.dur = ev.get_double("dur", 0.0);
      if (const emwd::util::JsonValue* args = ev.find("args")) {
        s.job = args->get_int("job", -1);
      }
      by_thread[ev.get_int("tid", 0)].push_back(std::move(s));
    }
  }

  TraceSummary out;
  for (auto& [tid, spans] : by_thread) {
    // Parents before children: earlier start first, longer span first on
    // equal starts.  A stack of open spans then yields each span's parent.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() &&
             spans[open.back()].ts + spans[open.back()].dur <= spans[i].ts) {
        open.pop_back();
      }
      if (!open.empty()) spans[open.back()].child += spans[i].dur;
      open.push_back(i);
    }
    for (const Span& s : spans) {
      const double self_s = std::max(0.0, s.dur - s.child) * 1e-6;
      SpanStat& st = out.by_name[s.name];
      st.count += 1;
      st.total_s += s.dur * 1e-6;
      st.self_s += self_s;
      out.self_by_layer[layer_of(s.name)] += self_s;
      out.self_by_job[s.job] += self_s;
    }
  }
  return out;
}

}  // namespace e2e
