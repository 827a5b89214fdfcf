// Wall-clock engine: the ThreadPool runs lane jobs FIFO and cross-lane
// and home jobs genuinely in parallel; the WallClockEngine reproduces the
// virtual-time Scheduler bit for bit (application results, write-back
// payload bytes, the full event log) on every Table I app at 1 and 4 pool
// threads — also after a worker loss, with checkpoints, and with
// speculation; a guest waits only for its own state, never for another
// segment's ship or a checkpoint's apply window; and a stressed engine —
// membership churn between rounds plus a mid-round worker loss — still
// executes every segment exactly once; and every segment of a round placed
// on one worker (then moved to one survivor) computes the home-only result.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "cluster/scheduler.h"
#include "cluster/threadpool.h"
#include "cluster/wallclock.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod::cluster {
namespace {

using bc::Value;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, LaneJobsRunInSubmissionOrder) {
  ThreadPool pool(4);
  std::vector<int> seen;
  for (int i = 0; i < 200; ++i)
    pool.submit(0, [i, &seen] { seen.push_back(i); });  // same lane: no racing writers
  pool.wait_idle();
  std::vector<int> want(200);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(seen, want);
}

TEST(ThreadPool, LanesOverlapAcrossThreads) {
  ThreadPool pool(2);
  auto t0 = steady_clock::now();
  for (size_t lane = 0; lane < 2; ++lane)
    pool.submit(lane, [] { std::this_thread::sleep_for(milliseconds(100)); });
  pool.wait_idle();
  auto ms = std::chrono::duration_cast<milliseconds>(steady_clock::now() - t0).count();
  // Two 100 ms sleeps on two threads overlap; serial execution would be
  // >= 200 ms.
  EXPECT_LT(ms, 190);
}

TEST(ThreadPool, SingleThreadStillDrainsEveryLane) {
  ThreadPool pool(1);
  std::atomic<int> done{0};
  for (size_t lane = 0; lane < 3; ++lane)
    for (int j = 0; j < 5; ++j) pool.submit(lane, [&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 15);
}

TEST(ThreadPool, WaitIdleCoversJobsSubmittedByJobs) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit(0, [&] {
    ++done;
    pool.submit(1, [&] { ++done; });
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, HomeJobsOverlapEachOtherAndABusyLane) {
  ThreadPool pool(3);
  auto t0 = steady_clock::now();
  pool.submit(0, [] { std::this_thread::sleep_for(milliseconds(100)); });
  for (int j = 0; j < 2; ++j)
    pool.submit_home([] { std::this_thread::sleep_for(milliseconds(100)); });
  pool.wait_idle();
  auto ms = std::chrono::duration_cast<milliseconds>(steady_clock::now() - t0).count();
  // One lane job and two home jobs on three threads all overlap; any
  // serialization would take >= 200 ms.
  EXPECT_LT(ms, 190);
}

TEST(ThreadPool, WaitIdleCoversLaneJobsSubmittedByHomeJobs) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit_home([&] {
    std::this_thread::sleep_for(milliseconds(20));
    ++done;
    pool.submit(1, [&] {
      std::this_thread::sleep_for(milliseconds(20));
      ++done;
    });
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, SingleThreadDrainsLanesAndHomeJobs) {
  ThreadPool pool(1);
  std::atomic<int> done{0};
  for (int j = 0; j < 5; ++j) {
    for (size_t lane = 0; lane < 3; ++lane) pool.submit(lane, [&done] { ++done; });
    pool.submit_home([&pool, &done] {
      ++done;
      pool.submit(2, [&done] { ++done; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 25);
}

// ------------------------------------------------------------ engine parity

struct AppOutcome {
  int64_t result = 0;
  size_t writeback_bytes = 0;
  // (round, segment, virtual completion ns): wall runs must reproduce the
  // Scheduler's virtual completion instants bit for bit.
  std::multiset<std::tuple<int, int, int64_t>> completions;
  // The whole event log: (kind, at ns, round, segment, worker, attempt).
  std::vector<std::tuple<int, int64_t, int, int, int, int>> log;
  int workers_lost = 0;
  int checkpoints = 0;
  int speculated = 0;
  bool exactly_once = false;
  bool done = false;
  // Home stripe telemetry (wall engine only): one entry per home shard,
  // plus the cluster-wide acquisition count, which is deterministic for a
  // fault-free run.
  std::vector<mig::ShardContention> shard_stats;
  uint64_t lock_acq = 0;
  // Virtual run only: the home windows the seam reported for each segment
  // of the last round, undilated — serve windows summed over its ships,
  // and one apply window per checkpoint.
  std::vector<VDur> serve;
  std::vector<std::vector<VDur>> ckpt_apply;
  // Wall engine only: last_completed_wall_ms().
  std::vector<double> completed_wall_ms;
};

/// The virtual Scheduler, recording the home windows its executor seam
/// reports (the WallClockEngine sleeps each of them x home_dilation).
class WindowRecorder : public Scheduler {
 public:
  using Scheduler::Scheduler;
  std::vector<VDur> serve;
  std::vector<std::vector<VDur>> ckpt_apply;

 private:
  void begin_round(size_t segments) override {
    serve.assign(segments, VDur{});
    ckpt_apply.assign(segments, {});
  }
  void shipped(size_t i, int /*w*/, VDur s, VDur /*transfer*/) override { serve[i] += s; }
  void served(size_t i, int /*w*/, VDur apply) override { ckpt_apply[i].push_back(apply); }
  void completed(size_t /*i*/, int /*w*/, VDur /*apply*/) override {}
};

/// Places every segment on the first accepting worker.
struct PinFirst final : PlacementPolicy {
  const char* name() const override { return "pin_first"; }
  int choose(const Cluster& c, const PlacementRequest&) override {
    for (int w = 0; w < c.size(); ++w)
      if (c.accepting(w)) return w;
    return -1;
  }
};

/// Dispatch options plus a worker-loss plan for run_app.
struct RunConfig {
  DispatchOptions dispatch{};
  int fail_after = -1;             ///< Scheduler::fail_after(n); -1 = none
  int fail_after_checkpoints = 0;  ///< Scheduler::fail_after_checkpoints(n); 0 = none
  /// Two gigabit Xeons plus a 25x-slower wifi device instead of
  /// `workers` uniform ones (the speculation topology).
  bool straggler = false;
  int workers = 3;
  PolicyKind policy = PolicyKind::LeastLoaded;
  /// Place every segment on the first accepting worker instead of by
  /// `policy`, so all segments of a round share one worker.
  bool pin_first = false;
  /// Segments per round; 0 = the CLI driver's split.
  int segments = 0;
  /// WallClockOptions::home_dilation of the wall engine.
  double home_dilation = -1.0;
};

/// The run_table1_app round loop from the CLI driver, on either engine:
/// threads < 0 = virtual-time Scheduler, threads >= 0 = WallClockEngine
/// (0 = one pool thread per worker).  `shards` > 0 stripes the home state.
AppOutcome run_app(const apps::AppSpec& spec, int threads, int shards = 0,
                   const RunConfig& rc = {}) {
  bc::Program p = spec.build();
  prep::preprocess_program(p);
  Cluster c(p);
  if (rc.straggler) {
    c.add_worker({"xeon1", {}, sim::Link::gigabit()});
    c.add_worker({"xeon2", {}, sim::Link::gigabit()});
    mig::SodNode::Config dev;
    dev.cpu_scale = 25.0;
    c.add_worker({"wifi-device", dev, sim::Link::wifi_kbps(2000)});
  } else {
    c.add_uniform_workers(rc.workers);
  }
  if (shards > 0) c.set_home_shards(shards);
  std::unique_ptr<PlacementPolicy> pol =
      rc.pin_first ? std::make_unique<PinFirst>() : make_policy(rc.policy);

  std::unique_ptr<Scheduler> sched;
  WindowRecorder* recorder = nullptr;
  WallClockEngine* engine = nullptr;
  if (threads < 0) {
    auto r = std::make_unique<WindowRecorder>(c, *pol, rc.dispatch);
    recorder = r.get();
    sched = std::move(r);
  } else {
    WallClockOptions wopt;
    static_cast<DispatchOptions&>(wopt) = rc.dispatch;
    wopt.threads = threads;
    wopt.home_dilation = rc.home_dilation;
    auto e = std::make_unique<WallClockEngine>(c, *pol, wopt);
    engine = e.get();
    sched = std::move(e);
  }
  if (rc.fail_after >= 0) sched->fail_after(rc.fail_after);
  if (rc.fail_after_checkpoints > 0) sched->fail_after_checkpoints(rc.fail_after_checkpoints);

  uint16_t trigger = p.find_method(spec.trigger_method);
  int depth = std::min(spec.paper_depth, 4);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  AppOutcome o;
  int remaining = c.size();
  while (remaining > 0 && mig::pause_at_depth(c.home(), tid, trigger, depth)) {
    int k = std::min(remaining, depth - 1);
    if (remaining > k) k = std::max(1, depth - 2);
    if (rc.segments > 0) k = rc.segments;
    auto specs = split_top_frames(k);
    auto out = sched->run(tid, specs);
    c.home().ti().set_debug_enabled(false);
    o.writeback_bytes += out.writeback_bytes;
    remaining -= k;
  }
  c.home().ti().set_debug_enabled(false);
  auto rr = c.home().run_guest(tid);
  o.done = rr.reason == svm::StopReason::Done;
  if (o.done) o.result = c.home().vm().thread(tid).result.as_i64();
  for (const Event& e : sched->log()) {
    if (e.kind == EventKind::SegmentCompleted) o.completions.emplace(e.round, e.segment, e.at.ns);
    o.log.emplace_back(static_cast<int>(e.kind), e.at.ns, e.round, e.segment, e.worker,
                       e.attempt);
  }
  o.exactly_once = sched->exactly_once();
  o.workers_lost = sched->workers_lost();
  o.checkpoints = sched->checkpoints();
  o.speculated = sched->speculations();
  if (recorder) {
    o.serve = recorder->serve;
    o.ckpt_apply = recorder->ckpt_apply;
  }
  if (engine) {
    o.shard_stats = engine->shard_contention();
    o.lock_acq = engine->total_contention().acquisitions;
    o.completed_wall_ms = engine->last_completed_wall_ms();
  }
  return o;
}

TEST(WallClock, TableOneAppsMatchTheVirtualSchedulerBitForBit) {
  for (const apps::AppSpec& spec : apps::table1_apps()) {
    SCOPED_TRACE(spec.name);
    AppOutcome ref = run_app(spec, -1);
    ASSERT_TRUE(ref.done);
    ASSERT_TRUE(ref.exactly_once);
    ASSERT_FALSE(ref.completions.empty());
    if (spec.bench_expected != INT64_MIN) {
      EXPECT_EQ(ref.result, spec.bench_expected);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      AppOutcome got = run_app(spec, threads);
      ASSERT_TRUE(got.done);
      EXPECT_TRUE(got.exactly_once);
      EXPECT_EQ(got.result, ref.result);
      EXPECT_EQ(got.writeback_bytes, ref.writeback_bytes);
      EXPECT_EQ(got.completions, ref.completions);
    }
  }
}

TEST(WallClock, LossCheckpointAndSpeculationRunsMatchTheVirtualSchedulerBitForBit) {
  // The engine is the Scheduler's own loop, so the contract has no
  // fault-free carve-out: after a worker loss, with checkpoints and a
  // checkpoint-triggered loss, and with speculative backups racing the
  // straggler device, the wall run's whole event log — kinds, virtual
  // instants, rounds, segments, workers, attempts — results and
  // write-back bytes equal the virtual run's.
  RunConfig loss;
  loss.fail_after = 2;
  RunConfig ckpt_loss;
  ckpt_loss.dispatch.checkpoint_every = 5000;
  ckpt_loss.fail_after_checkpoints = 1;
  RunConfig spec;
  spec.dispatch.checkpoint_every = 5000;
  spec.dispatch.speculate = true;
  spec.straggler = true;
  const std::pair<const char*, RunConfig> inputs[] = {
      {"fail_after(2)", loss},
      {"checkpoints + fail_after_checkpoints(1)", ckpt_loss},
      {"checkpoints + speculation on the straggler topology", spec},
  };
  for (const apps::AppSpec& app : {apps::fib_app(), apps::nqueens_app()}) {
    for (const auto& [name, rc] : inputs) {
      SCOPED_TRACE(app.name + ": " + name);
      AppOutcome ref = run_app(app, -1, 0, rc);
      ASSERT_TRUE(ref.done);
      ASSERT_TRUE(ref.exactly_once);
      EXPECT_EQ(ref.result, app.bench_expected);
      // Each input must actually exercise its path in the reference run.
      if (rc.fail_after >= 0 || rc.fail_after_checkpoints > 0) {
        EXPECT_EQ(ref.workers_lost, 1);
      }
      if (rc.dispatch.checkpoint_every > 0) {
        EXPECT_GT(ref.checkpoints, 0);
      }
      if (rc.dispatch.speculate) {
        EXPECT_GT(ref.speculated, 0);
      }
      for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        AppOutcome got = run_app(app, threads, 0, rc);
        ASSERT_TRUE(got.done);
        EXPECT_TRUE(got.exactly_once);
        EXPECT_EQ(got.result, ref.result);
        EXPECT_EQ(got.writeback_bytes, ref.writeback_bytes);
        EXPECT_EQ(got.log, ref.log);
      }
    }
  }
}

/// The app's bench-scale result run at home alone, never migrated.
int64_t home_only_result(const apps::AppSpec& spec) {
  bc::Program p = spec.build();
  prep::preprocess_program(p);
  mig::SodNode node("home", p, {});
  mig::ObjectManager om;
  om.install(node);
  return node.call_guest(spec.entry, spec.bench_args).as_i64();
}

/// Every Table I app at 2 and 3 segments per round, on both engines, with
/// every segment of the round placed on worker 0 of two — so each later
/// restore re-plants the statics the earlier segments already hold stubs
/// of.  With `loss`, worker 0 is lost after the first completion and the
/// rest of the round moves, together, to the one survivor.  Each run must
/// compute the app's home-only result, exactly once.
void expect_co_resident_runs_match_home(bool loss) {
  for (const apps::AppSpec& spec : apps::table1_apps()) {
    const int64_t want = home_only_result(spec);
    for (int segments : {2, 3}) {
      for (int threads : {-1, 1}) {
        SCOPED_TRACE(spec.name + " segments=" + std::to_string(segments) +
                     (threads < 0 ? " virtual" : " wall"));
        RunConfig rc;
        rc.workers = 2;
        rc.pin_first = true;
        rc.segments = segments;
        if (loss) rc.fail_after = 1;
        AppOutcome o = run_app(spec, threads, 0, rc);
        ASSERT_TRUE(o.done);
        EXPECT_EQ(o.result, want);
        EXPECT_TRUE(o.exactly_once);
        int dispatched = 0, failed = 0;
        for (const auto& [kind, at, round, segment, worker, attempt] : o.log) {
          if (kind == static_cast<int>(EventKind::SegmentDispatched)) {
            // First attempts share worker 0; re-dispatches share worker 1.
            EXPECT_EQ(worker, attempt == 1 ? 0 : 1);
            ++dispatched;
          }
          if (kind == static_cast<int>(EventKind::SegmentFailed)) ++failed;
        }
        EXPECT_EQ(dispatched, segments + failed);
        // The loss really happened: every segment but the first moved.
        EXPECT_EQ(o.workers_lost, loss ? 1 : 0);
        EXPECT_EQ(failed, loss ? segments - 1 : 0);
      }
    }
  }
}

TEST(CoResident, EverySegmentOfARoundOnOneWorkerMatchesTheHomeOnlyRun) {
  expect_co_resident_runs_match_home(/*loss=*/false);
}

TEST(CoResident, LosingTheSharedWorkerLeavesTheRoundOnOneSurvivor) {
  expect_co_resident_runs_match_home(/*loss=*/true);
}

// ------------------------------------------------------------ home sharding

TEST(WallClock, HomeShardedRunsMatchTheVirtualSchedulerBitForBit) {
  // Striping the home state may only change wall-clock interleaving: at
  // every shard count the engine must reproduce the virtual scheduler's
  // results, write-back bytes, and virtual completion instants, and the
  // stripe-acquisition total is a property of the replay, not the shard
  // count or the interleaving.
  const apps::AppSpec spec = apps::fib_app();
  AppOutcome ref = run_app(spec, -1);
  ASSERT_TRUE(ref.done);
  ASSERT_TRUE(ref.exactly_once);
  uint64_t acq = 0;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    AppOutcome got = run_app(spec, /*threads=*/4, shards);
    ASSERT_TRUE(got.done);
    EXPECT_TRUE(got.exactly_once);
    EXPECT_EQ(got.result, ref.result);
    EXPECT_EQ(got.writeback_bytes, ref.writeback_bytes);
    EXPECT_EQ(got.completions, ref.completions);
    ASSERT_EQ(got.shard_stats.size(), static_cast<size_t>(shards));
    EXPECT_GT(got.lock_acq, 0u);
    if (shards == 1) {
      acq = got.lock_acq;
    } else {
      EXPECT_EQ(got.lock_acq, acq);
    }
  }
}

TEST(WallClock, ShardContentionCountersSumAcrossStripes) {
  const apps::AppSpec spec = apps::fib_app();
  AppOutcome got = run_app(spec, /*threads=*/4, /*shards=*/4);
  ASSERT_TRUE(got.done);
  ASSERT_EQ(got.shard_stats.size(), 4u);
  uint64_t sum = 0;
  int used = 0;
  for (const mig::ShardContention& s : got.shard_stats) {
    sum += s.acquisitions;
    if (s.acquisitions > 0) ++used;
    EXPECT_GE(s.acquisitions, s.contended);
    if (s.contended == 0) {
      EXPECT_EQ(s.wait_ns, 0u);
    }
    EXPECT_GE(s.wait_ns, s.max_wait_ns);
  }
  EXPECT_EQ(sum, got.lock_acq);
  // The stable hash spreads the three key domains over the stripes: a
  // 4-shard fib run must exercise more than one of them.
  EXPECT_GT(used, 1);
}

// ------------------------------------------------------- wall dependencies
//
// A guest waits for its own state only, as in the virtual model: never for
// another segment's ship, nor for home absorbing a checkpoint.  Home
// windows are amplified to tens of ms so the dependency, not scheduling
// noise, sets the bound.

/// Wall ms the engine sleeps for the virtual home window `v`.
double wall_ms(VDur v, double home_dilation) { return v.ms() * home_dilation; }

/// Fib on a small argument: guest work stays a few ms even under a
/// sanitizer, far below the home windows.
apps::AppSpec small_fib(int64_t n) {
  apps::AppSpec app = apps::fib_app();
  app.bench_args = {Value::of_i64(n)};
  app.bench_expected = sod::testing::fib_ref(n);
  return app;
}

TEST(WallClock, AGuestDoesNotWaitForAnotherSegmentsShipToItsWorker) {
  // Round robin over two workers sends segments 0 and 2 to worker 0.
  RunConfig rc;
  rc.workers = 2;
  rc.policy = PolicyKind::RoundRobin;
  rc.segments = 3;
  rc.home_dilation = 50000;
  // Give the three serve windows three distinct stripes, so they overlap
  // and only a false dependency can make segment 0 wait for segment 2.
  int shards = 0;
  for (int s = 2; s <= 16 && shards == 0; ++s) {
    mig::HomeShardMap m(s);
    std::set<int> stripes{m.shard_of_segment(0, 0), m.shard_of_segment(0, 1),
                          m.shard_of_segment(0, 2)};
    if (stripes.size() == 3) shards = s;
  }
  ASSERT_GT(shards, 0) << "no shard count in 2..16 gives the three segments distinct stripes";

  const apps::AppSpec app = small_fib(16);
  AppOutcome ref = run_app(app, -1, shards, rc);
  ASSERT_TRUE(ref.done);
  EXPECT_EQ(ref.result, app.bench_expected);
  ASSERT_EQ(ref.serve.size(), 3u);
  std::vector<int> worker_of(3, -1);
  for (const auto& [kind, at, round, segment, worker, attempt] : ref.log)
    if (kind == static_cast<int>(EventKind::SegmentDispatched)) worker_of[segment] = worker;
  ASSERT_EQ(worker_of, (std::vector<int>{0, 1, 0}));
  double serve0 = wall_ms(ref.serve[0], rc.home_dilation);
  double serve2 = wall_ms(ref.serve[2], rc.home_dilation);
  ASSERT_GE(serve0, 20.0);
  ASSERT_GE(serve2, 40.0);

  AppOutcome got = run_app(app, /*threads=*/4, shards, rc);
  ASSERT_TRUE(got.done);
  EXPECT_EQ(got.log, ref.log);
  ASSERT_EQ(got.completed_wall_ms.size(), 3u);
  // Segment 0 runs once its own state has landed; queued behind segment
  // 2's ship it would complete no earlier than serve0 + serve2.
  EXPECT_LT(got.completed_wall_ms[0], serve0 + serve2 / 2)
      << "serve0 " << serve0 << " ms, serve2 " << serve2 << " ms";
}

TEST(WallClock, ASegmentDoesNotWaitForItsCheckpointApplies) {
  RunConfig rc;
  rc.workers = 1;
  rc.segments = 1;
  rc.dispatch.checkpoint_every = 2000;
  rc.home_dilation = 15000;
  const apps::AppSpec app = small_fib(16);
  AppOutcome ref = run_app(app, -1, 0, rc);
  ASSERT_TRUE(ref.done);
  EXPECT_EQ(ref.result, app.bench_expected);
  ASSERT_EQ(ref.ckpt_apply.size(), 1u);
  const std::vector<VDur>& applies = ref.ckpt_apply[0];
  ASSERT_GE(applies.size(), 4u);
  double apply_sum = 0;
  for (VDur a : applies) {
    ASSERT_GE(wall_ms(a, rc.home_dilation), 20.0);
    apply_sum += wall_ms(a, rc.home_dilation);
  }
  double serve0 = wall_ms(ref.serve[0], rc.home_dilation);

  // Every apply window holds a pool thread while it waits for the
  // segment's stripe, so give each one its own thread: the chunks must
  // never queue behind them for a thread either.
  AppOutcome got = run_app(app, static_cast<int>(applies.size()) + 2, 0, rc);
  ASSERT_TRUE(got.done);
  EXPECT_EQ(got.log, ref.log);
  ASSERT_EQ(got.completed_wall_ms.size(), 1u);
  // The chunks run back to back once the state has landed; behind each
  // checkpoint's apply window the segment would complete no earlier than
  // serve0 + the sum of them.
  EXPECT_LT(got.completed_wall_ms[0], apply_sum / 2)
      << applies.size() << " applies, " << apply_sum << " ms in all; serve0 " << serve0
      << " ms";
}

// ------------------------------------------------------------------- stress

TEST(WallClock, ChurnAndMidRoundLossStillExecuteExactlyOnce) {
  auto p = sod::testing::fib_program();
  prep::preprocess_program(p);
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(3);
  auto pol = make_policy(PolicyKind::LeastLoaded);
  WallClockOptions wopt;
  wopt.threads = 4;
  WallClockEngine eng(c, *pol, wopt);
  eng.fail_after(2);  // deepest-queue worker dies mid round 0

  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});
  int joiner = -1;
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4 + 4));
    auto out = eng.run(tid, split_top_frames(4));
    c.home().ti().set_debug_enabled(false);
    ASSERT_EQ(out.placements.size(), 4u);
    if (r == 0) joiner = eng.add_worker({"joiner", {}, sim::Link::gigabit()});
    if (r == 1) eng.drain_worker(joiner);
  }
  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(26));

  EXPECT_TRUE(eng.exactly_once());
  EXPECT_EQ(eng.workers_lost(), 1);
  EXPECT_GE(eng.redispatches(), 1);
  EXPECT_EQ(eng.completions(), 12);
  int completed = 0, lost = 0, joined = 0, draining = 0;
  for (const Event& e : eng.log()) {
    if (e.kind == EventKind::SegmentCompleted) ++completed;
    if (e.kind == EventKind::WorkerLost) ++lost;
    if (e.kind == EventKind::WorkerJoined) ++joined;
    if (e.kind == EventKind::WorkerDraining) ++draining;
  }
  EXPECT_EQ(completed, 12);
  EXPECT_EQ(lost, 1);
  EXPECT_EQ(joined, 1);
  EXPECT_EQ(draining, 1);
}

}  // namespace
}  // namespace sod::cluster
