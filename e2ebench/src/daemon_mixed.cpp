// daemon-mixed: an in-process serve::Server (two executors) on a Unix
// socket inside the output directory, driven by two closed-loop clients
// over the util/socket framing: a bulk client submitting wavelength
// sweeps of the builtin tandem scene on a cache-resident grid, and a probe
// client submitting single-job sweeps on a tiny grid.  Every streamed
// result is checked against a standalone naive run of the same job.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "batch/sweep.hpp"
#include "checks.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "models/machine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tables.hpp"
#include "tune/autotuner.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBulkLambdas = 8;
/// Bulk sweeps kept outstanding: with two in flight the executors never
/// idle between sweeps, so every probe meets a busy daemon.
constexpr int kBulkWindow = 2;
constexpr const char* kBulkGrid = "24x24x64";
constexpr int kBulkSteps = 10;
constexpr const char* kProbeGrid = "8x8x32";
constexpr int kProbeSteps = 20;
constexpr int kProbePriority = 1;
/// Pause between a probe's done frame and the next probe, so probes sample
/// the daemon's state evenly in time instead of bunching up whenever it
/// answers fast.
constexpr double kProbeThinkSeconds = 0.01;
constexpr double kTracedSeconds = 3.0;

std::string sweep_spec(const std::string& grid, const std::vector<double>& lambdas,
                       int steps, const std::string& engine, int priority = 0) {
  std::string spec = "scene=tandem;grid=" + grid + ";lambda=";
  char buf[32];
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", lambdas[i]);
    spec += buf;
  }
  return spec + ";steps=" + std::to_string(steps) + ";engine=" + engine +
         ";threads=1;pml=4;xb=periodic;priority=" + std::to_string(priority);
}

/// One job's outcome as a client saw it.
struct JobSeen {
  bool probe = false;
  std::size_t index = 0;  // expansion index within its request
  emwd::batch::JobResult result;
  double submit_to_result_s = 0.0;
};

/// What one closed-loop client saw over a measurement window.
struct ClientLog {
  std::vector<JobSeen> jobs;
  std::vector<double> request_s;  // send -> done frame, per request
  std::vector<double> ack_s;      // send -> ack frame, per request
  std::int64_t submitted = 0;     // jobs the acks announced plus rejected
  std::int64_t failed = 0;        // rejected, failed or missing jobs
  std::int64_t frames = 0;
  double busy_s = 0.0;            // first send to last done
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A closed-loop client on one connection: `window` sweep requests are
/// kept outstanding, and the next one goes out only when one completes
/// (after the think time, for the probe) until `seconds` have passed.
/// Requests in flight at the deadline complete.  seconds == 0 sends
/// exactly `window` requests.
ClientLog client_loop(int fd, const std::string& tag, const std::string& spec,
                      std::size_t jobs, bool probe, double seconds, int window) {
  struct Pending {
    Clock::time_point t0;
    std::size_t announced = 0, rejected = 0, results = 0;
  };
  std::map<std::string, Pending> pending;
  ClientLog log;
  const Clock::time_point start = Clock::now();
  int n = 0;
  const auto send = [&] {
    const std::string id = tag + std::to_string(n++);
    pending[id].t0 = Clock::now();
    const std::string req = "{\"op\":\"sweep\",\"id\":" + emwd::util::json_quote(id) +
                            ",\"spec\":" + emwd::util::json_quote(spec) + "}";
    if (!emwd::util::send_frame(fd, req)) throw std::runtime_error("daemon went away");
  };
  for (int i = 0; i < window; ++i) send();
  while (!pending.empty()) {
    std::optional<std::string> payload = emwd::util::recv_frame(fd, emwd::serve::kMaxFrame);
    if (!payload) throw std::runtime_error("daemon closed mid-sweep");
    ++log.frames;
    const emwd::util::JsonValue frame = emwd::util::JsonValue::parse(*payload);
    const std::string type = frame.get_string("type", "");
    if (type == "error") {
      throw std::runtime_error("daemon error: " + frame.get_string("message", "?"));
    }
    const auto it = pending.find(frame.get_string("id", ""));
    if (it == pending.end()) throw std::runtime_error("frame for an unknown request");
    Pending& req = it->second;
    if (type == "ack") {
      log.ack_s.push_back(since(req.t0));
      req.announced = static_cast<std::size_t>(frame.get_int("jobs", 0));
    } else if (type == "rejected") {
      req.rejected += static_cast<std::size_t>(frame.get_int("count", 0));
    } else if (type == "result") {
      const emwd::util::JsonValue* r = frame.find("result");
      if (!r) throw std::runtime_error("result frame without a result");
      JobSeen seen;
      seen.probe = probe;
      seen.index = static_cast<std::size_t>(frame.get_int("index", 0));
      seen.result = emwd::batch::JobResult::from_json(*r);
      seen.submit_to_result_s = since(req.t0);
      if (!seen.result.ok) ++log.failed;
      log.jobs.push_back(std::move(seen));
      ++req.results;
    } else if (type == "done") {
      log.request_s.push_back(since(req.t0));
      const std::size_t submitted = std::max(jobs, req.announced + req.rejected);
      log.submitted += static_cast<std::int64_t>(submitted);
      // Rejected and never-answered jobs are failures too.
      log.failed += static_cast<std::int64_t>(submitted - std::min(submitted, req.results));
      pending.erase(it);
      if (since(start) < seconds) {
        if (probe) std::this_thread::sleep_for(std::chrono::duration<double>(kProbeThinkSeconds));
        send();
      }
    }
  }
  log.busy_s = since(start);
  return log;
}

struct Window {
  ClientLog bulk, probe;
};

Window measure(int bulk_fd, int probe_fd, const std::string& bulk_spec,
               const std::string& probe_spec, double seconds, const std::string& tag) {
  Window w;
  std::exception_ptr bulk_error;
  std::thread bulk([&] {
    try {
      w.bulk = client_loop(bulk_fd, tag + "b", bulk_spec, kBulkLambdas, false, seconds,
                           kBulkWindow);
    } catch (...) {
      bulk_error = std::current_exception();
    }
  });
  try {
    w.probe = client_loop(probe_fd, tag + "p", probe_spec, 1, true, seconds, 1);
  } catch (...) {
    bulk.join();
    throw;
  }
  bulk.join();
  if (bulk_error) std::rethrow_exception(bulk_error);
  return w;
}

emwd::exec::EngineStats engine_sum(const std::vector<const ClientLog*>& logs) {
  emwd::exec::EngineStats sum;
  for (const ClientLog* log : logs) {
    for (const JobSeen& j : log->jobs) emwd::exec::accumulate_work(sum, j.result.stats);
  }
  return sum;
}

Observables observables_of(const emwd::batch::JobResult& r) {
  return {r.total_energy, r.electric_energy, r.absorption};
}

}  // namespace

void run_daemon_mixed(const Options& opt, Report& report) {
  emwd::util::Xoshiro256 rng(opt.seed);
  std::vector<double> bulk_lambdas;
  for (int i = 0; i < kBulkLambdas; ++i) bulk_lambdas.push_back(rng.uniform(16.0, 30.0));
  const std::vector<double> probe_lambda{rng.uniform(16.0, 30.0)};
  const std::string bulk_spec = sweep_spec(kBulkGrid, bulk_lambdas, kBulkSteps, "auto");
  const std::string probe_spec =
      sweep_spec(kProbeGrid, probe_lambda, kProbeSteps, "auto", kProbePriority);
  const emwd::grid::Extents bulk_grid = emwd::serve::parse_sweep_spec(bulk_spec).grids.at(0);

  // ---- set-up (timed from process start): daemon up, both clients
  // connected, and one cold bulk sweep and probe served (tuning, engine
  // and FieldSet builds land here).
  std::filesystem::create_directories(opt.out_dir);
  emwd::serve::ServerConfig cfg;
  cfg.socket_path = opt.out_dir + "/daemon-" + std::to_string(::getpid()) + ".sock";
  // emwdd's defaults (one slot per NUMA domain, pinned executors, DRR
  // quantum 4, 2x executors inflight, its idle-inventory bounds), with the
  // two executors the workload calls for.
  cfg.scheduler.concurrency = 2;
  cfg.scheduler.max_idle_engines = 8;
  cfg.scheduler.max_idle_fields = 16;
  double dropped = 0.0;
  std::unique_ptr<TraceSession> setup_trace;
  if (opt.trace) setup_trace = std::make_unique<TraceSession>(1 << 14);

  emwd::serve::Server server(cfg);
  emwd::util::UniqueFd bulk_fd = emwd::util::connect_unix(cfg.socket_path);
  emwd::util::UniqueFd probe_fd = emwd::util::connect_unix(cfg.socket_path);
  Window warm;
  warm.bulk = client_loop(bulk_fd.get(), "warm-b", bulk_spec, kBulkLambdas, false, 0, 1);
  warm.probe = client_loop(probe_fd.get(), "warm-p", probe_spec, 1, true, 0, 1);
  const double setup_s = seconds_since_start();
  if (setup_trace) setup_trace->finish(opt, "setup", dropped);

  // ---- measured part (untraced).
  const Window w = measure(bulk_fd.get(), probe_fd.get(), bulk_spec, probe_spec,
                           opt.seconds, "m");
  const double peak_rss = peak_rss_mb();
  // Cells x steps of the bulk jobs over the wall time of their stepping
  // calls (each job's engine seconds), so the other executor's and the
  // probe's contention stays in.
  double bulk_lups = 0.0, bulk_engine_s = 0.0;
  for (const JobSeen& j : w.bulk.jobs) {
    bulk_lups += static_cast<double>(bulk_grid.cells()) * kBulkSteps;
    bulk_engine_s += j.result.stats.seconds;
  }
  const double mlups = bulk_engine_s > 0 ? bulk_lups / bulk_engine_s / 1e6 : 0.0;
  report.set("mlups", mlups);
  report.set("setup_s", setup_s);
  report.set("peak_rss_mb", peak_rss);
  report.set("jobs_per_s", static_cast<double>(w.bulk.jobs.size()) / w.bulk.busy_s);
  std::fprintf(stderr, "e2ebench: %zu probes, round trip deciles (ms):", w.probe.request_s.size());
  for (int d = 1; d <= 9; ++d) std::fprintf(stderr, " %.1f", 1e3 * quantile(w.probe.request_s, d / 10.0));
  std::fprintf(stderr, "; %zu bulk jobs\n", w.bulk.jobs.size());
  report.set("probe_p50_s", median(w.probe.request_s));
  report.set("probe_p90_s", quantile(w.probe.request_s, 0.9));
  report.attempted = w.bulk.submitted + w.probe.submitted;
  report.failed = w.bulk.failed + w.probe.failed;

  // ---- traced part: a shorter window of the same traffic.
  Window traced;
  TraceSummary summary;
  std::string status;
  if (opt.trace) {
    TraceSession session(1 << 14);
    traced = measure(bulk_fd.get(), probe_fd.get(), bulk_spec, probe_spec,
                     std::min(kTracedSeconds, opt.seconds), "t");
    summary = session.finish(opt, "run", dropped);
    const double per_job_untraced = w.bulk.busy_s / static_cast<double>(w.bulk.jobs.size());
    report.set("obs.overhead_s",
               traced.bulk.busy_s -
                   per_job_untraced * static_cast<double>(traced.bulk.jobs.size()));
    if (!emwd::util::send_frame(probe_fd.get(), "{\"op\":\"status\",\"id\":\"s\"}")) {
      throw std::runtime_error("daemon went away");
    }
    status = emwd::util::recv_frame(probe_fd.get(), emwd::serve::kMaxFrame).value_or("{}");
  }
  bulk_fd.reset();
  probe_fd.reset();
  server.stop();
  std::filesystem::remove(cfg.socket_path);

  // ---- correctness: standalone naive runs of every distinct job.
  const emwd::serve::Tables tables = emwd::serve::builtin_tables();
  const emwd::serve::Scene* scene = tables.find("tandem");
  const auto reference_jobs = [&](const std::vector<double>& lambdas, const char* grid,
                                  int steps) {
    const emwd::serve::SweepSpec spec =
        emwd::serve::parse_sweep_spec(sweep_spec(grid, lambdas, steps, "naive"));
    return emwd::batch::expand_sweep_jobs(emwd::serve::to_sweep_config(spec, *scene));
  };
  std::vector<double> finalize_s, construct_s, observables_s;
  double bytes_per_cell = 0.0;
  const auto run_reference = [&](const emwd::batch::Job& job) {
    emwd::util::Timer t;
    emwd::thiim::Simulation sim(job.config);
    construct_s.push_back(t.seconds());
    job.setup(sim, job);  // paints, finalizes, adds the source
    finalize_s.push_back(t.seconds() - construct_s.back());
    sim.run(job.steps);
    t.reset();
    Observables obs{sim.total_energy(), sim.electric_energy(), sim.absorption_by_material()};
    observables_s.push_back(t.seconds());
    bytes_per_cell = static_cast<double>(sim.fields().allocated_bytes()) /
                     static_cast<double>(job.config.grid.cells());
    return obs;
  };
  std::vector<Observables> bulk_ref, probe_ref;
  for (const emwd::batch::Job& job : reference_jobs(bulk_lambdas, kBulkGrid, kBulkSteps)) {
    bulk_ref.push_back(run_reference(job));
  }
  for (const emwd::batch::Job& job : reference_jobs(probe_lambda, kProbeGrid, kProbeSteps)) {
    probe_ref.push_back(run_reference(job));
  }
  for (const Window* win : std::initializer_list<const Window*>{&warm, &w, &traced}) {
    for (const ClientLog* log : {&win->bulk, &win->probe}) {
      for (const JobSeen& j : log->jobs) {
        if (!j.result.ok) continue;  // counted in `failed`
        const std::vector<Observables>& ref = j.probe ? probe_ref : bulk_ref;
        if (j.index >= ref.size()) {
          report.fail_check("daemon-mixed: result index out of range");
          continue;
        }
        if (std::string e = check_observables(observables_of(j.result), ref[j.index]);
            !e.empty()) {
          report.fail_check("daemon-mixed: " + j.result.name + ": " + e);
          return;
        }
      }
    }
  }
  if (warm.bulk.failed + warm.probe.failed + traced.bulk.failed + traced.probe.failed > 0) {
    report.fail_check("daemon-mixed: a warm-up or traced job failed");
  }
  if (!opt.trace) return;

  // ---- per-layer metrics (traced window; em/thiim/grid from the
  // standalone runs of the same jobs).
  std::vector<double> queue_s, overhead_s;
  double reused = 0.0, jobs = 0.0;
  for (const ClientLog* log : {&traced.bulk, &traced.probe}) {
    for (const JobSeen& j : log->jobs) {
      queue_s.push_back(j.submit_to_result_s - j.result.wall_seconds);
      overhead_s.push_back(j.result.wall_seconds - j.result.stats.seconds);
      reused += j.result.engine_reused ? 1.0 : 0.0;
      jobs += 1.0;
    }
  }
  const emwd::exec::EngineStats traced_engine = engine_sum({&traced.bulk, &traced.probe});
  const emwd::util::JsonValue status_doc = emwd::util::JsonValue::parse(status);
  double plan_misses = 0.0;
  if (const emwd::util::JsonValue* sched = status_doc.find("scheduler")) {
    if (const emwd::util::JsonValue* plans = sched->find("plans")) {
      plan_misses = static_cast<double>(plans->get_int("misses", 0));
    }
  }
  report.set("batch.queue_s", median(queue_s));
  report.set("batch.job_overhead_s", median(overhead_s));
  report.set("batch.pool_hit_ratio", jobs > 0 ? reused / jobs : 0.0);
  report.set("batch.plan_misses", plan_misses);
  report.set("serve.request_self_s", summary.self("serve.request"));
  std::vector<double> ack_s = traced.bulk.ack_s;
  ack_s.insert(ack_s.end(), traced.probe.ack_s.begin(), traced.probe.ack_s.end());
  report.set("serve.ack_s", median(ack_s));
  report.set("serve.frames", static_cast<double>(traced.bulk.frames + traced.probe.frames));
  report.set("exec.run_self_s", summary.self("engine.run"));
  report.set("exec.tiles_interior_s", summary.self("engine.tiles.interior"));
  report.set("exec.tiles_boundary_s", summary.self("engine.tiles.boundary"));
  report.set("exec.barrier_wait_s", traced_engine.barrier_wait_seconds);
  report.set("exec.queue_wait_s", traced_engine.queue_wait_seconds);
  report.set("exec.barrier_episodes", static_cast<double>(traced_engine.barrier_episodes));
  report.set("exec.runs", static_cast<double>(summary.count("engine.run")) / std::max(1.0, jobs));
  report.set("grid.bytes_per_cell", bytes_per_cell);
  report.set("em.finalize_s", median(finalize_s));
  report.set("thiim.construct_s", median(construct_s));
  report.set("thiim.observables_s", median(observables_s));
  {
    // The call the daemon's plan cache makes on a miss, for the bulk shape.
    emwd::exec::BuildContext ctx;
    ctx.grid = bulk_grid;
    ctx.threads = 1;
    ctx.machine = emwd::models::host_machine();
    ctx.registry = &emwd::exec::EngineRegistry::global();
    emwd::util::Timer t;
    emwd::tune::resolve_auto_spec(emwd::exec::parse_engine_spec("auto"), ctx);
    report.set("tune.resolve_s", t.seconds());
  }
  report.set("obs.dropped", dropped);
  const std::string resolved =
      w.bulk.jobs.empty() ? std::string("naive") : w.bulk.jobs.front().result.engine_spec;
  report_machine_and_models(report, bulk_grid.nx, resolved, 1, mlups);
}

}  // namespace e2e
