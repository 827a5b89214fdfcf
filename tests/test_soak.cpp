// Soak tier: long trace replays that are too slow for the tier-1 wall but
// catch what short smokes cannot — data races in the wall-clock engine
// under sustained churn, and slow state corruption across hundreds of
// interleaved tenant sessions.  These tests carry the `soak` ctest label
// and are registered only under -DSOD_SOAK_TESTS=ON; CI runs them in the
// ThreadSanitizer job (`ctest -L soak`), where the thread-pool engine's
// locking actually gets exercised.
#include <gtest/gtest.h>

#include "cluster/loadgen.h"

namespace {

using sod::VDur;
using sod::cluster::ArrivalKind;
using sod::cluster::LoadGenOptions;
using sod::cluster::Trace;
using sod::cluster::TraceConfig;

TEST(SoakTest, OnOffChurnOnWallClockEngine) {
  // The headline soak: a long ON-OFF bursty trace with surge joins, paired
  // drains, and mid-trace worker losses, replayed on the wall-clock
  // thread-pool engine.  Every burst slams the pool with concurrent
  // segments while membership churns underneath it — the shape that
  // surfaces lock-ordering and lost-wakeup races under TSan.
  TraceConfig cfg;
  cfg.sessions = 240;
  cfg.tenants = 6;
  cfg.apps = 2;
  cfg.arrival = ArrivalKind::OnOff;
  cfg.seed = 0x50a7;
  cfg.mean_gap = VDur::micros(400);
  cfg.max_rounds = 2;
  cfg.churn = 0.1;
  cfg.failures = 3;
  Trace tr = sod::cluster::make_trace(cfg);

  LoadGenOptions opts;
  opts.wallclock = true;
  opts.segments_per_round = 2;
  auto r = sod::cluster::run_loadgen(tr, opts);
  EXPECT_EQ(r.completed, cfg.sessions);
  EXPECT_TRUE(r.all_ok);
  EXPECT_TRUE(r.exactly_once);
  EXPECT_GT(r.surge_joins, 0);
  EXPECT_GT(r.workers_lost, 0);
  for (const auto& tn : r.tenants) EXPECT_EQ(tn.completed, tn.sessions) << tn.tenant;
}

TEST(SoakTest, ShardedHomeOnWallClockEngineUnderChurn) {
  // The churn soak again, but with the home state striped over 4 shards
  // and a pool bigger than the worker count: ship/restore/write-back
  // service windows of different shards genuinely overlap while workers
  // join, drain, and die — the shape that surfaces stripe and lane
  // hand-off races under TSan.  Sharding must not cost a single
  // session or exactly-once violation.
  TraceConfig cfg;
  cfg.sessions = 240;
  cfg.tenants = 6;
  cfg.apps = 2;
  cfg.arrival = ArrivalKind::OnOff;
  cfg.seed = 0x50a7;
  cfg.mean_gap = VDur::micros(400);
  cfg.max_rounds = 2;
  cfg.churn = 0.1;
  cfg.failures = 3;
  Trace tr = sod::cluster::make_trace(cfg);

  LoadGenOptions opts;
  opts.wallclock = true;
  opts.threads = 6;
  opts.home_shards = 4;
  opts.segments_per_round = 2;
  auto r = sod::cluster::run_loadgen(tr, opts);
  EXPECT_EQ(r.completed, cfg.sessions);
  EXPECT_TRUE(r.all_ok);
  EXPECT_TRUE(r.exactly_once);
  EXPECT_EQ(r.home_shards, 4);
  EXPECT_GT(r.lock_acq, 0u);
  for (const auto& tn : r.tenants) EXPECT_EQ(tn.completed, tn.sessions) << tn.tenant;
}

TEST(SoakTest, SustainedSoakAllApps) {
  // Constant-rate soak over the full four-app mix (statics-bearing fft and
  // tsp included) on the virtual-time scheduler: hundreds of sessions per
  // tenant exercising the per-(tenant, app) instance locks long enough for
  // a leaked static or a dropped lock release to snowball into a wrong
  // result.
  TraceConfig cfg;
  cfg.sessions = 400;
  cfg.tenants = 5;
  cfg.apps = 4;
  cfg.arrival = ArrivalKind::Soak;
  cfg.seed = 0x50a8;
  cfg.mean_gap = VDur::micros(250);
  cfg.churn = 0.05;
  cfg.failures = 2;
  Trace tr = sod::cluster::make_trace(cfg);

  auto r = sod::cluster::run_loadgen(tr, LoadGenOptions{});
  EXPECT_EQ(r.completed, cfg.sessions);
  EXPECT_TRUE(r.all_ok);
  EXPECT_TRUE(r.exactly_once);
  EXPECT_EQ(r.completion_ms.count(), cfg.sessions);
}

}  // namespace
