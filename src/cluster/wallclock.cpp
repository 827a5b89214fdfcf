#include "cluster/wallclock.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

namespace sod::cluster {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Sleeps `scale` x the virtual duration `virt`.
void sleep_scaled(double scale, VDur virt) {
  double ns = scale * static_cast<double>(virt.ns);
  if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<int64_t>(ns)));
}

}  // namespace

WallClockEngine::WallClockEngine(Cluster& c, PlacementPolicy& policy, WallClockOptions opt)
    : Scheduler(c, policy, opt), opt_(opt), shard_map_(c.shard_map()) {
  if (opt_.home_dilation < 0) opt_.home_dilation = opt_.dilation;
  stripes_.reserve(static_cast<size_t>(shard_map_.shards()));
  for (int s = 0; s < shard_map_.shards(); ++s) stripes_.push_back(std::make_unique<Stripe>());
}

WallClockEngine::~WallClockEngine() = default;

void WallClockEngine::lock_stripe(int shard) {
  Stripe& s = *stripes_[static_cast<size_t>(shard)];
  if (s.mu.try_lock()) {
    ++s.stats.acquisitions;
    uint64_t queued = s.waiters.load(std::memory_order_relaxed);
    if (queued > s.stats.max_queue) s.stats.max_queue = queued;
    return;
  }
  uint64_t queued = s.waiters.fetch_add(1, std::memory_order_relaxed) + 1;
  auto t0 = std::chrono::steady_clock::now();
  s.mu.lock();
  auto waited = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           t0)
          .count());
  s.waiters.fetch_sub(1, std::memory_order_relaxed);
  ++s.stats.acquisitions;
  ++s.stats.contended;
  s.stats.wait_ns += waited;
  if (waited > s.stats.max_wait_ns) s.stats.max_wait_ns = waited;
  if (queued > s.stats.max_queue) s.stats.max_queue = queued;
}

void WallClockEngine::unlock_stripe(int shard) {
  stripes_[static_cast<size_t>(shard)]->mu.unlock();
}

mig::HomeGate::Section WallClockEngine::acquire(uint32_t key) {
  mig::HomeGate::Section s;
  // The loop thread's own home accesses (a restore's class fetch, a
  // write-back resolving stubs) are not service windows: take nothing.
  if (!guest_live_) return s;
  SOD_CHECK(guest_stripe_ < 0, "gate section opened while already holding a stripe");
  s.shard = shard_map_.shard_of(key);
  lock_stripe(s.shard);
  guest_stripe_ = s.shard;
  return s;
}

void WallClockEngine::service(mig::HomeGate::Section& s, VDur home_time) {
  if (s.shard >= 0) sleep_scaled(opt_.home_dilation, home_time);
}

void WallClockEngine::release(mig::HomeGate::Section& s) {
  if (s.shard < 0) return;
  unlock_stripe(s.shard);
  guest_stripe_ = -1;
  s.shard = -1;
}

std::vector<mig::ShardContention> WallClockEngine::shard_contention() const {
  std::vector<mig::ShardContention> out;
  out.reserve(stripes_.size());
  for (const auto& s : stripes_) {
    MutexLock lk(s->mu);
    out.push_back(s->stats);
  }
  return out;
}

mig::ShardContention WallClockEngine::total_contention() const {
  mig::ShardContention total;
  for (const mig::ShardContention& s : shard_contention()) total += s;
  return total;
}

void WallClockEngine::begin_round(size_t segments) {
  if (!pool_) {
    size_t threads = opt_.threads > 0 ? static_cast<size_t>(opt_.threads)
                                      : static_cast<size_t>(std::max(1, cluster().size()));
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  wall_completed_ms_.assign(segments, 0.0);
  round_t0_ = std::chrono::steady_clock::now();
}

void WallClockEngine::end_round() {
  // The last write-back's apply window (and any ship sleep of an attempt
  // that died with its worker) drains before the round counts as done.
  auto t0 = std::chrono::steady_clock::now();
  pool_->wait_idle();
  waits_.drain_ms += ms_since(t0);
  last_round_wall_ms_ = ms_since(round_t0_);
}

int WallClockEngine::segment_shard(size_t i) const {
  return shard_map_.shard_of_segment(rounds() - 1, static_cast<int>(i));
}

void WallClockEngine::hold_stripe(int shard, VDur home_time) {
  // Windows on other home shards overlap this one; windows on the same
  // shard convoy — with one shard, all of them do.
  lock_stripe(shard);
  sleep_scaled(opt_.home_dilation, home_time);
  unlock_stripe(shard);
}

void WallClockEngine::shipped(size_t i, int w, VDur serve, VDur transfer) {
  std::pair key(i, w);
  {
    MutexLock lk(guest_mu_);
    ++ships_at_home_[key];
  }
  pool_->submit_home([this, key, shard = segment_shard(i), serve, transfer] {
    hold_stripe(shard, serve);
    // The state is on the destination's inbound link now: queue the
    // transfer on its lane before telling the loop, so the guest job the
    // loop then queues runs only after the state has landed.
    pool_->submit(static_cast<size_t>(key.second),
                  [this, transfer] { sleep_scaled(opt_.dilation, transfer); });
    MutexLock lk(guest_mu_);
    if (--ships_at_home_[key] == 0) ships_at_home_.erase(key);
    guest_cv_.notify_one();
  });
}

void WallClockEngine::served(size_t i, int /*w*/, VDur apply) {
  pool_->submit_home([this, shard = segment_shard(i), apply] { hold_stripe(shard, apply); });
}

void WallClockEngine::completed(size_t i, int w, VDur apply) {
  wall_completed_ms_[i] = ms_since(round_t0_);
  served(i, w, apply);
}

void WallClockEngine::run_guest(size_t i, int w, VDur relay, GuestJob job) {
  // Only this segment's own ships to `w` gate the guest: once they have
  // left home, the job queues behind their transfers on the lane, so it
  // starts only after its state has landed in wall time too.
  auto t0 = std::chrono::steady_clock::now();
  {
    MutexLock lk(guest_mu_);
    while (ships_at_home_.count({i, w}) != 0) guest_cv_.wait(lk);
  }
  waits_.arrival_ms += ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  guest_live_ = true;
  pool_->submit(static_cast<size_t>(w), [this, relay, job] {
    sleep_scaled(opt_.dilation, relay);
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }
    MutexLock lk(guest_mu_);
    guest_err_ = err;
    guest_done_ = true;
    guest_cv_.notify_one();
  });
  MutexLock lk(guest_mu_);
  while (!guest_done_) guest_cv_.wait(lk);
  guest_done_ = false;
  guest_live_ = false;
  waits_.guest_ms += ms_since(t0);
  if (guest_err_) std::rethrow_exception(std::exchange(guest_err_, nullptr));
}

}  // namespace sod::cluster
