// perfbench driver — the benchmark's only compiled code.  run.py starts one
// driver process per measured step, so an abort inside the program (a
// SOD_CHECK panic) kills that step alone and run.py counts every session of
// it as failed.  Every mode prints one JSON object on stdout.
//
//   perfbench_driver stamp
//       compiler, build type and hardware threads of this build.
//   perfbench_driver setup <workload> <seed> <reps>
//       times building, preprocessing and admitting the shared tenant
//       program and attaching the cluster, `reps` times.
//   perfbench_driver replay <workload> <seed> <part> [virtual]
//       replays sub-trace `part` of the workload through the public
//       cluster::run_loadgen entry (optionally forcing the virtual-time
//       Scheduler for a wall-clock workload) and checks every session
//       against its app's single-node reference result.
//   perfbench_driver layers <workload> <seed> <sample> <trace.json>
//       the traced per-layer pass: times calls into each module's public
//       functions over a seeded sample of the workload's sessions, keeps
//       spans in memory and writes them as Chrome trace-event JSON at exit.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "apps/apps.h"
#include "bytecode/builder.h"
#include "cluster/loadgen.h"
#include "cluster/placement.h"
#include "cluster/scheduler.h"
#include "cluster/wallclock.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "support/bytes.h"
#include "support/rng.h"

using namespace sod;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ workloads

/// One workload: a trace shape plus the load generator's options.  A
/// workload's trace is replayed as `parts` seeded sub-traces; run.py picks
/// how many from its time budget.
struct Workload {
  cluster::TraceConfig trace;
  cluster::LoadGenOptions opts;
};

/// Two gigabit Xeons plus a 25x slower wifi device (the `multitenant`
/// bench's straggler topology).
std::vector<cluster::WorkerSpec> straggler_topology() {
  mig::SodNode::Config dev;
  dev.cpu_scale = 25.0;
  return {{"xeon1", {}, sim::Link::gigabit()},
          {"xeon2", {}, sim::Link::gigabit()},
          {"wifi-device", dev, sim::Link::wifi_kbps(2000)}};
}

bool make_workload(const std::string& name, Workload& w) {
  cluster::TraceConfig& t = w.trace;
  cluster::LoadGenOptions& o = w.opts;
  t.tenants = 4;
  t.arrival = cluster::ArrivalKind::Poisson;
  t.mean_gap = VDur::millis(25);
  o.workers = straggler_topology();
  o.segments_per_round = 3;
  if (name == "tenant_mix") {
    // Worker loss is left out only because of known defect (a).
    t.sessions = 200;
    t.apps = 4;
    t.heavy = true;
    // ON-OFF bursts: under Poisson arrivals the tail percentile moved by
    // 13% between seeds.
    t.arrival = cluster::ArrivalKind::OnOff;
    t.churn = 0.08;
    o.policy = cluster::PolicyKind::LeastLoaded;
    o.dispatch.checkpoint_every = 20000;
    o.dispatch.speculate = true;
  } else if (name == "offload_storm") {
    t.sessions = 1000;
    t.apps = 2;
    t.max_rounds = 30;
    t.mean_gap = VDur::millis(80);
    t.churn = 0.02;
    t.failures = 2;
    o.policy = cluster::PolicyKind::Learned;
    // Four frames keep the trigger depth (8) within light nqueens'
    // recursion; at six frames half of the sessions never offload.
    o.segments_per_round = 4;
    o.dispatch.checkpoint_every = 500;
    o.dispatch.speculate = true;
  } else if (name == "wall_engine") {
    t.sessions = 96;
    t.apps = 2;
    t.heavy = true;
    t.arrival = cluster::ArrivalKind::OnOff;
    // Learned placement: least_loaded parks a segment of every round on
    // the device, whose queue then sets the virtual percentiles.
    o.policy = cluster::PolicyKind::Learned;
    o.wallclock = true;
    o.threads = 3;
    o.home_shards = 4;
    o.dilation = 0.02;
    // Home-side service windows are slept at 1600x their modelled time so
    // that stripe-held sleeps, not guest interpretation, make up most of
    // the wall time (at 400x the interpreter still took ~60% of it).
    o.home_dilation = 1600;
  } else if (name == "defect_a") {
    // Known abort: FFT in the mix plus one worker loss hits
    // "write-back of unresolvable stub" in mig::write_back.
    t.sessions = 30;
    t.apps = 3;
    t.heavy = true;
    t.failures = 1;
    o.policy = cluster::PolicyKind::LeastLoaded;
  } else if (name == "defect_b") {
    // Known abort: the light four-app mix under learned placement crashes
    // a migrated segment with a NullPointerException on a local slot.
    t.sessions = 20;
    t.apps = 4;
    o.policy = cluster::PolicyKind::Learned;
  } else {
    return false;
  }
  return true;
}

/// Sub-trace `part` of a workload: the same shape, its own derived seed.
cluster::Trace part_trace(const Workload& w, uint64_t seed, int part) {
  cluster::TraceConfig cfg = w.trace;
  cfg.seed = seed * 1000003ull + static_cast<uint64_t>(part);
  return cluster::make_trace(cfg);
}

/// The load generator's Table I mix and arguments (cluster/loadgen.cpp).
struct App {
  apps::AppSpec spec;
  std::vector<bc::Value> args;
};

std::vector<App> load_apps(bool heavy) {
  return {{apps::fib_app(), {bc::Value::of_i64(heavy ? 22 : 16)}},
          {apps::nqueens_app(), {bc::Value::of_i64(heavy ? 7 : 6)}},
          {apps::fft_app(), {bc::Value::of_i64(8), bc::Value::of_i64(64)}},
          {apps::tsp_app(), {bc::Value::of_i64(heavy ? 7 : 6)}}};
}

std::string tenant_prefix(int tenant) {
  std::string s = "t";
  s += std::to_string(tenant);
  s += '_';
  return s;
}

/// Single-node reference result of each app, computed the way the load
/// generator computes its own (a standalone node, no migration).
std::vector<int64_t> reference_results(const std::vector<App>& cat, int napps) {
  std::vector<int64_t> out;
  for (int a = 0; a < napps; ++a) {
    const App& app = cat[static_cast<size_t>(a)];
    bc::Program p = app.spec.build();
    prep::preprocess_program(p);
    mig::SodNode node("ref", p, {});
    mig::ObjectManager om;
    om.install(node);
    out.push_back(node.call_guest(app.spec.entry, app.args).as_i64());
  }
  return out;
}

/// The shared tenant program of a set of sessions: every (tenant, app)
/// pair used, emitted under the tenant's prefix (as run_loadgen does).
bc::Program tenant_program(const std::vector<cluster::SessionTrace>& sessions,
                           const std::vector<App>& cat, int tenants, int napps) {
  std::vector<bool> used(static_cast<size_t>(tenants * napps), false);
  for (const auto& s : sessions) used[static_cast<size_t>(s.tenant * napps + s.app)] = true;
  bc::ProgramBuilder pb;
  for (int t = 0; t < tenants; ++t)
    for (int a = 0; a < napps; ++a)
      if (used[static_cast<size_t>(t * napps + a)])
        cat[static_cast<size_t>(a)].spec.emit(pb, tenant_prefix(t));
  return pb.build();
}

int napps_of(const Workload& w) { return std::clamp(w.trace.apps, 1, 4); }

// ----------------------------------------------------------- JSON output

class Json {
 public:
  Json& key(const char* k) {
    sep();
    std::printf("\"%s\":", k);
    pending_value_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    std::printf("%.17g", v);
    return *this;
  }
  Json& num(int64_t v) {
    sep();
    std::printf("%" PRId64, v);
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    std::printf(v ? "true" : "false");
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    std::putchar('"');
    for (char c : v) {
      if (c == '"' || c == '\\') std::putchar('\\');
      if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
    }
    std::putchar('"');
    return *this;
  }
  Json& open(char c) {
    sep();
    std::putchar(c);
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    std::putchar(c);
    first_ = false;
    return *this;
  }
  Json& nums(const std::vector<double>& vs) {
    open('[');
    for (double v : vs) num(v);
    return close(']');
  }
  void end() { std::printf("\n"); }

 private:
  void sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_) std::putchar(',');
    first_ = false;
  }
  bool first_ = true;
  bool pending_value_ = false;
};

// ---------------------------------------------------------------- stamp

int cmd_stamp() {
  Json j;
  j.open('{');
#if defined(__clang__)
  j.key("compiler").str("clang " __clang_version__);
#else
  j.key("compiler").str("gcc " __VERSION__);
#endif
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("nproc").num(static_cast<int64_t>(std::thread::hardware_concurrency()));
  j.close('}').end();
  return 0;
}

// ---------------------------------------------------------------- setup

/// Everything a workload needs before its first session: the shared tenant
/// program (built, preprocessed, admitted by the Cluster's analyzer) and
/// the cluster with its workers, shards and engine attached.
struct Rig {
  bc::Program program;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cluster::PlacementPolicy> policy;
  std::unique_ptr<cluster::Scheduler> sched;
  std::unique_ptr<cluster::WallClockEngine> engine;
};

/// Builds a rig; `engine_opts` set means dispatch on the wall-clock engine.
std::unique_ptr<Rig> make_rig(const Workload& w, const std::vector<cluster::SessionTrace>& ss,
                              const std::vector<App>& cat,
                              const cluster::WallClockOptions* engine_opts) {
  auto rig = std::make_unique<Rig>();
  rig->program = tenant_program(ss, cat, w.trace.tenants, napps_of(w));
  prep::preprocess_program(rig->program);
  rig->cluster = std::make_unique<cluster::Cluster>(rig->program);
  for (const auto& ws : w.opts.workers) rig->cluster->add_worker(ws);
  if (w.opts.home_shards > 0) rig->cluster->set_home_shards(w.opts.home_shards);
  rig->policy = cluster::make_policy(w.opts.policy);
  if (engine_opts != nullptr)
    rig->engine = std::make_unique<cluster::WallClockEngine>(*rig->cluster, *rig->policy,
                                                             *engine_opts);
  else
    rig->sched =
        std::make_unique<cluster::Scheduler>(*rig->cluster, *rig->policy, w.opts.dispatch);
  return rig;
}

cluster::WallClockOptions wall_options(const Workload& w) {
  cluster::WallClockOptions o;
  o.threads = w.opts.threads;
  o.dilation = w.opts.dilation;
  o.home_dilation = w.opts.home_dilation;
  o.statics_skip = w.opts.dispatch.statics_skip;
  return o;
}

int cmd_setup(const Workload& w, uint64_t seed, int reps) {
  const auto cat = load_apps(w.trace.heavy);
  const cluster::Trace tr = part_trace(w, seed, 0);
  const cluster::WallClockOptions wo = wall_options(w);
  std::vector<double> secs;
  bool admitted = true;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    auto rig = make_rig(w, tr.sessions, cat, w.opts.wallclock ? &wo : nullptr);
    secs.push_back(seconds_between(t0, Clock::now()));
    admitted = admitted && rig->cluster->admission().admitted;
  }
  Json j;
  j.open('{');
  j.key("admitted").boolean(admitted);
  j.key("setup_s").nums(secs);
  j.close('}').end();
  return 0;
}

// --------------------------------------------------------------- replay

/// Peak resident memory of this process image (VmHWM).  getrusage's
/// ru_maxrss is not used: it keeps the parent's peak across fork + exec.
int64_t peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  return -1;
}

uint64_t fnv(uint64_t h, const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

int cmd_replay(Workload w, uint64_t seed, int part, bool force_virtual) {
  if (force_virtual) w.opts.wallclock = false;
  const cluster::Trace tr = part_trace(w, seed, part);
  const auto cat = load_apps(w.trace.heavy);
  const std::vector<int64_t> expected = reference_results(cat, napps_of(w));
  // Announced first: if the replay aborts, run.py still knows how many
  // sessions failed with it.
  std::printf("{\"sessions\":%zu}\n", tr.sessions.size());
  std::fflush(stdout);

  const auto t0 = Clock::now();
  const cluster::LoadGenResult r = cluster::run_loadgen(tr, w.opts);
  const double host_s = seconds_between(t0, Clock::now());

  // A session counts as failed unless it returned its app's reference.
  int failed = 0;
  uint64_t digest = 1469598103934665603ull;
  for (size_t i = 0; i < tr.sessions.size(); ++i) {
    if (r.results[i] != expected[static_cast<size_t>(tr.sessions[i].app)]) ++failed;
    digest = fnv(digest, &r.results[i], sizeof r.results[i]);
    digest = fnv(digest, &r.session_ms[i], sizeof r.session_ms[i]);
  }
  digest = fnv(digest, &r.total_ms, sizeof r.total_ms);

  double wait_sum = 0;
  int wait_n = 0;
  for (const auto& tn : r.tenants) {
    wait_sum += tn.mean_wait_ms * tn.completed;
    wait_n += tn.completed;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);

  Json j;
  j.open('{');
  j.key("sessions").num(static_cast<int64_t>(r.sessions));
  j.key("failed").num(static_cast<int64_t>(failed));
  j.key("admitted").boolean(r.admitted);
  j.key("all_ok").boolean(r.all_ok);
  j.key("exactly_once").boolean(r.exactly_once);
  j.key("host_s").num(host_s);
  j.key("vt_digest").str(hex);
  j.key("total_ms").num(r.total_ms);
  j.key("p50_ms").num(r.completion_ms.p50());
  j.key("session_ms").nums(r.session_ms);
  j.key("redispatched").num(static_cast<int64_t>(r.redispatched));
  j.key("speculated").num(static_cast<int64_t>(r.speculated));
  j.key("cancelled").num(static_cast<int64_t>(r.cancelled));
  j.key("statics_scans").num(static_cast<int64_t>(r.statics_scans));
  j.key("statics_skipped").num(static_cast<int64_t>(r.statics_skipped));
  j.key("admission_wait_ms").num(wait_n > 0 ? wait_sum / wait_n : 0.0);
  j.key("peak_rss_kb").num(peak_rss_kb());
  j.close('}').end();
  return 0;
}

// --------------------------------------------------------------- tracing

/// In-memory span recorder.  A Scope always measures its own duration;
/// it records a span (name, start, end, parent, session) only while the
/// tracer is on, so the same code path runs traced and untraced.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_us, end_us;
    int parent, session;
  };

  class Scope {
   public:
    Scope(Tracer& t, const char* name, int session) : t_(t), start_(Clock::now()) {
      if (!t_.on) return;
      id_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back({name, t_.us(start_), 0, t_.cur_, session});
      t_.cur_ = id_;
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span; returns its duration in seconds.
    double stop() {
      if (done_) return secs_;
      done_ = true;
      const auto end = Clock::now();
      secs_ = seconds_between(start_, end);
      if (id_ >= 0) {
        t_.spans_[static_cast<size_t>(id_)].end_us = t_.us(end);
        t_.cur_ = t_.spans_[static_cast<size_t>(id_)].parent;
      }
      return secs_;
    }

   private:
    Tracer& t_;
    Clock::time_point start_;
    int id_ = -1;
    bool done_ = false;
    double secs_ = 0;
  };

  bool on = false;

  size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" complete events, microseconds); the span
  /// id, parent id and session ride in args for the self-time analysis.
  bool write(const char* path) const {
    FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string cat(s.name, std::strcspn(s.name, "."));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%d,\"session\":%d}}",
                   i == 0 ? "" : ",", s.name, cat.c_str(), s.start_us, s.end_us - s.start_us, i,
                   s.parent, s.session);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  int cur_ = -1;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Accumulates (seconds, work units) pairs for a per-unit cost.
struct Cost {
  double secs = 0, units = 0;
  void add(double s, double u = 1) {
    secs += s;
    units += u;
  }
  double per(double scale) const { return ratio(secs * scale, units); }
};

/// Split depth and segment count of one dispatch round (run_loadgen's rule).
struct Split {
  int depth = 0, k = 0;
};
Split split_of(const App& app, int segments_per_round) {
  Split s;
  s.depth = std::min(app.spec.paper_depth, segments_per_round + 4);
  s.k = std::min(segments_per_round, s.depth - 1);
  return s;
}

/// The per-layer pass.  Layers are the repo's modules: svm, sod (with
/// vmti inside capture and restore), cluster, and the set-up modules
/// bytecode, prep and analysis.
class LayerPass {
 public:
  LayerPass(const Workload& w, uint64_t seed, int sample)
      : w_(w),
        trace_(part_trace(w, seed, 0)),
        cat_(load_apps(w.trace.heavy)),
        expected_(reference_results(cat_, static_cast<int>(cat_.size()))) {
    // The seeded sample: `sample` sessions drawn from the workload's first
    // sub-trace, kept in arrival order.
    Rng rng(seed ^ 0x5eedu);
    std::vector<size_t> idx(trace_.sessions.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (size_t i = idx.size(); i > 1; --i) std::swap(idx[i - 1], idx[rng.below(i)]);
    idx.resize(std::min<size_t>(idx.size(), static_cast<size_t>(std::max(1, sample))));
    std::sort(idx.begin(), idx.end());
    for (size_t i : idx) sample_.push_back(trace_.sessions[i]);
  }

  int run(const char* trace_path) {
    // Untraced, then traced, pass over the same sample through the
    // workload's own engine: the difference is the tracing overhead.
    const double untraced = cluster_pass(false, nullptr);
    tracer_.on = true;
    setup_layers();
    svm_layer();
    const double traced = cluster_pass(false, &round_);
    sod_layer();
    tracer_.on = false;
    // Stripe telemetry: the workload's engine when it is the wall-clock
    // engine, else the same sample on the wall-clock engine (untraced).
    if (!w_.opts.wallclock) cluster_pass(true, nullptr);
    const bool wrote = tracer_.write(trace_path);
    emit(untraced, traced, wrote);
    return failed_ == 0 && wrote ? 0 : 1;
  }

 private:
  void setup_layers() {
    std::vector<double> b, p, a;
    for (int r = 0; r < 5; ++r) {
      bc::Program prog;
      {
        Tracer::Scope s(tracer_, "bytecode.build", -1);
        prog = tenant_program(trace_.sessions, cat_, w_.trace.tenants, napps_of(w_));
        b.push_back(s.stop());
      }
      {
        Tracer::Scope s(tracer_, "prep.preprocess", -1);
        prep::preprocess_program(prog);
        p.push_back(s.stop());
      }
      {
        Tracer::Scope s(tracer_, "analysis.analyze", -1);
        admitted_ = analysis::analyze_program(prog).admitted && admitted_;
        a.push_back(s.stop());
      }
    }
    build_ms_ = median(b) * 1e3;
    prep_ms_ = median(p) * 1e3;
    analyze_ms_ = median(a) * 1e3;
  }

  /// Interpreter cost per instruction of each app at the workload's
  /// arguments, fast mode and debug mode, on a standalone node.
  void svm_layer() {
    for (size_t a = 0; a < cat_.size(); ++a) {
      const App& app = cat_[a];
      bc::Program p = app.spec.build();
      prep::preprocess_program(p);
      mig::SodNode node("svm", p, {});
      mig::ObjectManager om;
      om.install(node);
      const uint16_t entry = p.find_method(app.spec.entry);
      for (int debug = 0; debug < 2; ++debug) {
        std::vector<double> per;
        double spent = 0;
        for (int rep = 0; rep < 5 || (rep < 400 && spent < 0.15); ++rep) {
          const int tid = node.vm().spawn(entry, app.args);
          node.ti().set_debug_enabled(debug != 0);
          const uint64_t i0 = node.vm().instr_count();
          Tracer::Scope s(tracer_, debug ? "svm.run_guest_debug" : "svm.run_guest_fast", -1);
          const auto rr = node.run_guest(tid);
          const double secs = s.stop();
          node.ti().set_debug_enabled(false);
          if (rr.reason != svm::StopReason::Done ||
              node.vm().thread(tid).result.as_i64() != expected_[a])
            ++failed_;
          per.push_back(secs * 1e9 / static_cast<double>(node.vm().instr_count() - i0));
          spent += secs;
        }
        ns_per_instr_[debug][a] = median(per);
      }
    }
  }

  /// Sample sessions one after another through Scheduler::run (or the
  /// wall-clock engine): the workload's apps, args, split shape,
  /// checkpoint cadence and topology.  Returns host seconds per session.
  double cluster_pass(bool wall_leg, Cost* round) {
    Workload w = w_;
    if (wall_leg) {  // the wall_engine workload's engine settings
      Workload wall;
      make_workload("wall_engine", wall);
      w.opts.threads = wall.opts.threads;
      w.opts.home_shards = wall.opts.home_shards;
      w.opts.dilation = wall.opts.dilation;
      w.opts.home_dilation = wall.opts.home_dilation;
    }
    const bool on_wall = wall_leg || w_.opts.wallclock;
    const cluster::WallClockOptions wo = wall_options(w);
    auto rig = make_rig(w, sample_, cat_, on_wall ? &wo : nullptr);
    if (!rig->cluster->admission().admitted) {
      admitted_ = false;
      failed_ += static_cast<int>(sample_.size());
      return 0;
    }
    mig::SodNode& home = rig->cluster->home();
    const bc::Program& p = rig->program;
    auto log_size = [&] {
      return on_wall ? rig->engine->log().size() : rig->sched->log().size();
    };
    const auto t0 = Clock::now();
    for (const auto& ts : sample_) {
      const App& app = cat_[static_cast<size_t>(ts.app)];
      const std::string pfx = tenant_prefix(ts.tenant);
      Tracer::Scope sess(tracer_, "session", ts.id);
      const int tid = home.vm().spawn(p.find_method(pfx + app.spec.entry), app.args);
      const Split sp = split_of(app, w_.opts.segments_per_round);
      const uint16_t trig = p.find_method(pfx + app.spec.trigger_method);
      for (int r = 0; r < ts.rounds && sp.k >= 1; ++r) {
        bool paused = false;
        {
          Tracer::Scope s(tracer_, "svm.pause_at_depth", ts.id);
          paused = mig::pause_at_depth(home, tid, trig, sp.depth);
        }
        if (!paused) break;
        const auto specs = cluster::split_top_frames(sp.k);
        const size_t log0 = log_size();
        Tracer::Scope s(tracer_, on_wall ? "cluster.wall_engine_run" : "cluster.scheduler_run",
                        ts.id);
        if (on_wall)
          rig->engine->run(tid, specs);
        else
          rig->sched->run(tid, specs);
        const double secs = s.stop();
        if (round != nullptr) {
          round->add(secs, sp.k);
          events_ += static_cast<double>(log_size() - log0);
        }
        home.ti().set_debug_enabled(false);
      }
      home.ti().set_debug_enabled(false);
      svm::RunResult rr;
      {
        Tracer::Scope s(tracer_, "svm.run_guest", ts.id);
        rr = home.run_guest(tid);
      }
      if (rr.reason != svm::StopReason::Done ||
          home.vm().thread(tid).result.as_i64() != expected_[static_cast<size_t>(ts.app)])
        ++failed_;
    }
    const double per_session =
        seconds_between(t0, Clock::now()) / static_cast<double>(sample_.size());
    const bool eo = on_wall ? rig->engine->exactly_once() : rig->sched->exactly_once();
    if (!eo) ++failed_;
    if (on_wall) {
      const mig::ShardContention c = rig->engine->total_contention();
      stripe_acq_ = static_cast<double>(c.acquisitions);
      stripe_contended_ = static_cast<double>(c.contended);
      stripe_wait_ns_ = static_cast<double>(c.wait_ns);
      stripe_max_queue_ = static_cast<double>(c.max_queue);
    }
    return per_session;
  }

  /// Rebinds the worker's objman.* fault natives with timing wrappers: each
  /// call is one object-fault service (ObjectManager::fetch round trip
  /// included), recorded as a sod.fault span.
  void wrap_fault_natives(mig::SodNode& node, int session) {
    for (const char* name : {"objman.bring_local", "objman.bring_static", "objman.bring_field",
                             "objman.bring_elem", "objman.bring_checked",
                             "objman.bring_class_checked"}) {
      const svm::NativeFn* fn = node.registry().find(name);
      if (fn == nullptr) continue;
      svm::NativeFn inner = *fn;
      node.registry().bind(name, [this, inner, session](svm::VM& vm, std::span<bc::Value> a) {
        Tracer::Scope s(tracer_, "sod.fault", session);
        bc::Value v = inner(vm, a);
        fault_.add(s.stop());
        return v;
      });
    }
  }

  /// The sod layer, driven call by call: per round, capture the split's
  /// top frames, serialize, size and deserialize the state, restore it on
  /// a worker, run it in checkpoint-sized chunks (checkpointing at each
  /// safe point), write back, then finish at home.  One k-frame segment
  /// per round stands in for the scheduler's k chained single-frame
  /// segments, whose hand-off Scheduler::run owns.
  void sod_layer() {
    const std::vector<cluster::WorkerSpec> topo = w_.opts.workers;
    const sim::Link link = topo.front().link;
    const uint64_t chunk = w_.opts.dispatch.checkpoint_every;
    for (const auto& ts : sample_) {
      const App& app = cat_[static_cast<size_t>(ts.app)];
      bc::Program p = app.spec.build();
      prep::preprocess_program(p);
      mig::SodNode home("home", p, {});
      mig::ObjectManager home_om;
      home_om.install(home);
      mig::SodNode dest(topo.front().name, p, topo.front().config);
      Tracer::Scope sess(tracer_, "session", ts.id);
      const int tid = home.vm().spawn(p.find_method(app.spec.entry), app.args);
      const Split sp = split_of(app, w_.opts.segments_per_round);
      const uint16_t trig = p.find_method(app.spec.trigger_method);
      uint64_t instrs = 0;
      for (int r = 0; r < ts.rounds && sp.k >= 1; ++r) {
        bool paused = false;
        {
          const uint64_t i0 = home.vm().instr_count();
          Tracer::Scope s(tracer_, "svm.pause_at_depth", ts.id);
          paused = mig::pause_at_depth(home, tid, trig, sp.depth);
          instrs += home.vm().instr_count() - i0;
        }
        if (!paused) break;
        mig::CapturedState cs;
        {
          Tracer::Scope s(tracer_, "sod.capture", ts.id);
          cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, sp.k});
          capture_.add(s.stop(), static_cast<double>(cs.frames.size()));
        }
        home.ti().set_debug_enabled(false);
        home.sync_ti_cost();
        ByteWriter wr;
        {
          Tracer::Scope s(tracer_, "sod.serialize", ts.id);
          cs.serialize(wr);
          serialize_.add(s.stop(), static_cast<double>(wr.size()) / 1024.0);
        }
        size_t wire = 0;
        {
          Tracer::Scope s(tracer_, "sod.wire_size", ts.id);
          wire = cs.wire_size();
          wire_size_.add(s.stop());
        }
        state_bytes_ += static_cast<double>(wire);
        state_frames_ += static_cast<double>(cs.frames.size());
        mig::CapturedState shipped;
        {
          Tracer::Scope s(tracer_, "sod.deserialize", ts.id);
          ByteReader rd(wr.bytes());
          shipped = mig::CapturedState::deserialize(rd);
          deserialize_.add(s.stop(), static_cast<double>(wr.size()) / 1024.0);
        }
        const uint16_t top_cls = p.method(shipped.frames.back().method).owner;
        dest.mark_class_shipped(top_cls);
        dest.enable_class_fetch(&home, link);
        const size_t class_bytes0 = dest.class_bytes_fetched();
        const uint64_t d0 = dest.vm().instr_count();
        mig::Segment seg(dest);
        seg.objman().bind_home(&home, tid, sp.k, link);
        wrap_fault_natives(dest, ts.id);
        {
          Tracer::Scope s(tracer_, "sod.restore", ts.id);
          seg.restore(shipped);
          restore_.add(s.stop(), static_cast<double>(shipped.frames.size()));
        }
        bc::Value result;
        if (chunk == 0) {
          Tracer::Scope s(tracer_, "svm.segment_run", ts.id);
          result = seg.run_to_completion();
        } else {
          mig::CheckpointDeltas deltas;
          while (true) {
            svm::StopReason why;
            {
              Tracer::Scope s(tracer_, "svm.segment_run", ts.id);
              why = seg.run_chunk(chunk);
            }
            if (why == svm::StopReason::Done) break;
            if (why != svm::StopReason::SafePoint) {
              ++failed_;
              break;
            }
            Tracer::Scope s(tracer_, "sod.checkpoint", ts.id);
            const mig::SegmentCheckpoint ck = mig::checkpoint_segment(seg, home, link, deltas);
            checkpoint_.add(s.stop());
            ck_heap_ += static_cast<double>(ck.heap_bytes);
            ck_full_heap_ += static_cast<double>(ck.full_heap_bytes);
          }
          result = seg.result();
        }
        instrs += dest.vm().instr_count() - d0;
        const mig::FaultStats fs = seg.objman().stats();
        faults_ += fs.faults;
        fault_bytes_ += static_cast<double>(fs.bytes);
        class_bytes_ += static_cast<double>(dest.class_bytes_fetched() - class_bytes0);
        dest.ti().set_debug_enabled(false);
        {
          Tracer::Scope s(tracer_, "sod.write_back", ts.id);
          const mig::WriteBackReport wb = mig::write_back(seg, home, tid, sp.k, result, link);
          write_back_.add(s.stop(), static_cast<double>(wb.bytes));
        }
        ++segments_;
      }
      home.ti().set_debug_enabled(false);
      svm::RunResult rr;
      {
        const uint64_t i0 = home.vm().instr_count();
        Tracer::Scope s(tracer_, "svm.run_guest", ts.id);
        rr = home.run_guest(tid);
        instrs += home.vm().instr_count() - i0;
      }
      instrs_ += static_cast<double>(instrs);
      if (rr.reason != svm::StopReason::Done ||
          home.vm().thread(tid).result.as_i64() != expected_[static_cast<size_t>(ts.app)])
        ++failed_;
    }
  }

  void emit(double untraced, double traced, bool wrote) {
    static const char* names[] = {"fib", "nqueens", "fft", "tsp"};
    Json j;
    j.open('{');
    j.key("sample").num(static_cast<int64_t>(sample_.size()));
    j.key("failed").num(static_cast<int64_t>(failed_));
    j.key("admitted").boolean(admitted_);
    j.key("trace_written").boolean(wrote);
    j.key("spans").num(static_cast<int64_t>(tracer_.size()));
    j.key("metrics").open('{');
    for (int debug = 0; debug < 2; ++debug)
      for (size_t a = 0; a < cat_.size(); ++a) {
        std::string k = debug ? "svm.debug_ns_per_instr." : "svm.fast_ns_per_instr.";
        k += names[a];
        j.key(k.c_str()).num(ns_per_instr_[debug][a]);
      }
    const double sessions = static_cast<double>(sample_.size());
    const double segments = static_cast<double>(segments_);
    j.key("svm.instr_per_session").num(ratio(instrs_, sessions));
    j.key("sod.capture_ns_per_frame").num(capture_.per(1e9));
    j.key("sod.restore_ns_per_frame").num(restore_.per(1e9));
    j.key("sod.serialize_ns_per_kb").num(serialize_.per(1e9));
    j.key("sod.deserialize_ns_per_kb").num(deserialize_.per(1e9));
    j.key("sod.wire_size_ns").num(wire_size_.per(1e9));
    j.key("sod.state_bytes_per_frame").num(ratio(state_bytes_, state_frames_));
    j.key("sod.write_back_us").num(ratio(write_back_.secs * 1e6, segments));
    j.key("sod.write_back_bytes").num(ratio(write_back_.units, segments));
    j.key("sod.checkpoint_us").num(checkpoint_.per(1e6));
    j.key("sod.checkpoint_delta_ratio").num(ratio(ck_heap_, ck_full_heap_));
    j.key("sod.faults_per_segment").num(ratio(faults_, segments));
    j.key("sod.fault_bytes_per_segment").num(ratio(fault_bytes_, segments));
    j.key("sod.fetch_us").num(fault_.per(1e6));
    j.key("sod.class_fetch_bytes").num(class_bytes_);
    j.key("cluster.round_us_per_segment").num(round_.per(1e6));
    j.key("cluster.events_per_segment").num(ratio(events_, round_.units));
    j.key("cluster.stripe_contended_ratio").num(ratio(stripe_contended_, stripe_acq_));
    j.key("cluster.stripe_wait_us_per_acq").num(ratio(stripe_wait_ns_ / 1e3, stripe_acq_));
    j.key("cluster.wall_max_queue").num(stripe_max_queue_);
    j.key("bytecode.build_ms").num(build_ms_);
    j.key("prep.preprocess_ms").num(prep_ms_);
    j.key("analysis.analyze_ms").num(analyze_ms_);
    j.key("trace.untraced_ms_per_session").num(untraced * 1e3);
    j.key("trace.traced_ms_per_session").num(traced * 1e3);
    j.close('}');
    j.close('}').end();
  }

  const Workload& w_;
  const cluster::Trace trace_;
  const std::vector<App> cat_;
  const std::vector<int64_t> expected_;
  std::vector<cluster::SessionTrace> sample_;
  Tracer tracer_;
  bool admitted_ = true;
  int failed_ = 0;
  double build_ms_ = 0, prep_ms_ = 0, analyze_ms_ = 0;
  double ns_per_instr_[2][4] = {};
  Cost capture_, restore_, serialize_, deserialize_, wire_size_, write_back_, checkpoint_,
      fault_, round_;
  double state_bytes_ = 0, state_frames_ = 0, faults_ = 0, fault_bytes_ = 0, instrs_ = 0;
  double ck_heap_ = 0, ck_full_heap_ = 0, class_bytes_ = 0, events_ = 0;
  int64_t segments_ = 0;
  double stripe_acq_ = 0, stripe_contended_ = 0, stripe_wait_ns_ = 0, stripe_max_queue_ = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver stamp\n"
               "       perfbench_driver setup <workload> <seed> <reps>\n"
               "       perfbench_driver replay <workload> <seed> <part> [virtual]\n"
               "       perfbench_driver layers <workload> <seed> <sample> <trace.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "stamp") return cmd_stamp();
  if (argc < 5) return usage();
  Workload w;
  if (!make_workload(argv[2], w)) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n", argv[2]);
    return 2;
  }
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const int n = std::atoi(argv[4]);
  if (cmd == "setup") return cmd_setup(w, seed, std::max(1, n));
  if (cmd == "replay")
    return cmd_replay(w, seed, n, argc > 5 && std::string(argv[5]) == "virtual");
  if (cmd == "layers" && argc > 5) return LayerPass(w, seed, n).run(argv[5]);
  return usage();
}
