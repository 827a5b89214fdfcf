// WallClockEngine — the Scheduler's event loop with a thread-pool executor.
//
// The engine is a Scheduler: placement, ship/restore, relay, write-back,
// failure, checkpoint, speculation, autoscale and the event log are the
// Scheduler's own code, run on the thread that called run().  What the
// engine adds is *where real work runs* and how long it takes in wall time
// (the Scheduler's executor seam), with only the dependencies the virtual
// model has:
//
//   - home work: home's serialization window of a ship and its apply
//     window of a write-back or checkpoint are *home jobs* on the pool's
//     lane-less home queue — each holds the segment's home stripe for its
//     dilated window, on whatever pool thread is free;
//   - worker lanes (one ThreadPool lane per cluster worker) carry that
//     worker's inbound link and its guest work: when a ship's serve window
//     ends, its dilated transfer is slept on the destination's lane, and
//     guest code (the run, or each checkpoint chunk, of the current
//     segment, and the delivery of its upstream result after the relay
//     sleep) runs as a lane job while the loop waits;
//   - a guest job waits for its own attempt only: before queueing it, the
//     loop waits until every ship of that (segment, worker) has left home,
//     and the job then queues behind that ship's transfer on the lane.  It
//     never waits for another segment's ship or for any apply window.
//
// In the paper's Fig. 1(c) the segments of one stack run strictly in stack
// order: what overlaps is the ship/restore of lower segments with the
// upper segment's execution, and home absorbing write-backs on its side.
// So at most one lane ever runs guest code, and only while the loop waits
// for it; every other job only holds a stripe and sleeps.  The loop
// thread, or the one lane running guest code while the loop waits, is
// therefore the only thread that ever touches clocks, heaps or the log —
// no ordered home lock exists, and wall runs match virtual runs bit for
// bit by construction, worker losses included.
//
// Home stripes (one per HomeShardMap shard) serialize home *service
// windows* in wall time: the ship and apply windows above, plus the object
// faults and class fetches the running guest makes through the HomeGate.
// Windows on different shards overlap; windows on one shard convoy — with
// one shard this is the single-home-lock bottleneck the home_shards bench
// sweeps against.  A gate section opened by the loop thread itself (a
// restore's class fetch, a write-back resolving stubs) takes no stripe.
//
// Communication is surfaced as real sleeps: ships and result relays sleep
// their virtual transfer time scaled by `dilation`; home service windows
// sleep their virtual service time scaled by `home_dilation`.  With >= 2
// pool threads those sleeps overlap upstream execution — the Fig. 1(c)
// freeze-time hiding measured on real cores instead of simulated.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/scheduler.h"
#include "cluster/threadpool.h"
#include "sod/homegate.h"
#include "support/thread_annotations.h"

namespace sod::cluster {

struct WallClockOptions : DispatchOptions {
  /// Pool threads; 0 = one per cluster worker (at the first run()).
  int threads = 0;
  /// Real-sleep seconds per virtual second of communication (ship/relay)
  /// time.  1.0 sleeps the full modelled transfer; benches dial it down to
  /// keep runs fast while preserving relative overlap.
  double dilation = 1.0;
  /// Real-sleep seconds per virtual second of home-side *service* time
  /// (segment/object/class serialization, write-back and checkpoint
  /// apply), slept inside stripe service windows.  < 0 (default) follows
  /// `dilation`.  The home_shards bench turns this up to amplify the
  /// µs-scale serde costs into measurable stripe convoys while dialing
  /// transfers down.
  double home_dilation = -1.0;
};

/// Wall milliseconds the loop thread spent blocked, by what it waited for.
struct WallLoopWaits {
  double arrival_ms = 0;  ///< a guest's own ships leaving home
  double guest_ms = 0;    ///< guest jobs queued and running on their lane
  double drain_ms = 0;    ///< end of round: every outstanding window
};

/// A Scheduler whose guest work runs on ThreadPool lanes and whose
/// transfers and home service windows take real (dilated) wall time.
/// The engine is its own HomeGate: the running guest's object faults and
/// class fetches hold their home stripe for the service window.
class WallClockEngine : public Scheduler, private mig::HomeGate {
 public:
  WallClockEngine(Cluster& c, PlacementPolicy& policy, WallClockOptions opt = {});
  ~WallClockEngine() override;

  /// Home shard count (the cluster's map, fixed at construction).
  int home_shards() const { return shard_map_.shards(); }
  /// Per-stripe lock telemetry, indexed by shard (read between runs).
  std::vector<mig::ShardContention> shard_contention() const;
  /// Sum over stripes (max fields folded with max).
  mig::ShardContention total_contention() const;
  /// Where the loop thread's wall time went, summed over every run() so
  /// far (read between runs).
  const WallLoopWaits& loop_waits() const { return waits_; }

  /// Wall milliseconds from the last run()'s start to each segment's
  /// completion write-back, indexed by segment.
  const std::vector<double>& last_completed_wall_ms() const { return wall_completed_ms_; }
  /// Wall milliseconds of the last run() end to end.
  double last_round_wall_ms() const { return last_round_wall_ms_; }

 private:
  /// One home shard's stripe: the lock plus its telemetry.  The stats
  /// fields are written holding `mu` and read between runs; `waiters` is
  /// touched before the lock is held, so it is atomic.
  struct Stripe {
    Mutex mu;
    std::atomic<uint64_t> waiters{0};
    mig::ShardContention stats SOD_GUARDED_BY(mu);
  };

  // Scheduler executor seam.
  mig::HomeGate* gate() override { return this; }
  void begin_round(size_t segments) override;
  void end_round() override;
  void shipped(size_t i, int w, VDur serve, VDur transfer) override;
  void run_guest(size_t i, int w, VDur relay, GuestJob job) override;
  void served(size_t i, int w, VDur apply) override;
  void completed(size_t i, int w, VDur apply) override;

  // mig::HomeGate, used by the lane running guest code.
  mig::HomeGate::Section acquire(uint32_t key) override;
  void service(mig::HomeGate::Section& s, VDur home_time) override;
  void release(mig::HomeGate::Section& s) override;

  /// Locks stripe `shard`, recording acquisition/contention telemetry.
  /// A gate section holds the stripe across calls, which the static
  /// analysis cannot follow, so the pair opts out of it.
  void lock_stripe(int shard) SOD_NO_THREAD_SAFETY_ANALYSIS;
  void unlock_stripe(int shard) SOD_NO_THREAD_SAFETY_ANALYSIS;
  /// Stripe of segment `i` of the current round.
  int segment_shard(size_t i) const;
  /// Holds stripe `shard` for the dilated `home_time`.
  void hold_stripe(int shard, VDur home_time);

  WallClockOptions opt_;
  mig::HomeShardMap shard_map_;
  /// One stripe per home shard (unique_ptr: mutexes do not move).
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// True while a lane runs guest code and the loop waits for it: only
  /// then do gate sections take stripes.  Written by the loop before the
  /// job is submitted and after it finished, so no lock is needed.
  bool guest_live_ = false;
  /// Hand-back to the waiting loop of a finished guest job, and of ships
  /// leaving home.
  Mutex guest_mu_;
  std::condition_variable_any guest_cv_;
  bool guest_done_ SOD_GUARDED_BY(guest_mu_) = false;
  std::exception_ptr guest_err_ SOD_GUARDED_BY(guest_mu_);
  /// Ships of (segment, worker) this round still in their serve window
  /// (entries are erased at zero, so the map is empty between rounds).
  std::map<std::pair<size_t, int>, int> ships_at_home_ SOD_GUARDED_BY(guest_mu_);
  /// Stripe held by the running guest's open gate section (-1 = none);
  /// a section never nests another.
  int guest_stripe_ = -1;
  std::chrono::steady_clock::time_point round_t0_{};
  std::vector<double> wall_completed_ms_;
  double last_round_wall_ms_ = 0;
  WallLoopWaits waits_;
  /// Declared last: its destructor finishes queued jobs, which use the
  /// stripes and the hand-back above.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sod::cluster
