// Wall-clock engine: the ThreadPool runs lane jobs FIFO and cross-lane
// jobs genuinely in parallel; the WallClockEngine reproduces the
// virtual-time Scheduler bit for bit (application results, write-back
// payload bytes, the full event log) on every Table I app at 1 and 4 pool
// threads — also after a worker loss, with checkpoints, and with
// speculation; and a stressed engine — membership churn between rounds
// plus a mid-round worker loss — still executes every segment exactly
// once.
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
  pool.ensure_lane(1);
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
  pool.ensure_lane(2);
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
  pool.ensure_lane(3);
  std::atomic<int> done{0};
  for (size_t lane = 0; lane < 3; ++lane)
    for (int j = 0; j < 5; ++j) pool.submit(lane, [&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 15);
}

TEST(ThreadPool, WaitIdleCoversJobsSubmittedByJobs) {
  ThreadPool pool(2);
  pool.ensure_lane(2);
  std::atomic<int> done{0};
  pool.submit(0, [&] {
    ++done;
    pool.submit(1, [&] { ++done; });
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
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
};

/// Dispatch options plus a worker-loss plan for run_app.
struct RunConfig {
  DispatchOptions dispatch{};
  int fail_after = -1;             ///< Scheduler::fail_after(n); -1 = none
  int fail_after_checkpoints = 0;  ///< Scheduler::fail_after_checkpoints(n); 0 = none
  /// Two gigabit Xeons plus a 25x-slower wifi device instead of three
  /// uniform workers (the speculation topology).
  bool straggler = false;
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
    c.add_uniform_workers(3);
  }
  if (shards > 0) c.set_home_shards(shards);
  auto pol = make_policy(PolicyKind::LeastLoaded);

  std::unique_ptr<Scheduler> sched;
  WallClockEngine* engine = nullptr;
  if (threads < 0) {
    sched = std::make_unique<Scheduler>(c, *pol, rc.dispatch);
  } else {
    WallClockOptions wopt;
    static_cast<DispatchOptions&>(wopt) = rc.dispatch;
    wopt.threads = threads;
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
  if (engine) {
    o.shard_stats = engine->shard_contention();
    o.lock_acq = engine->total_contention().acquisitions;
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
