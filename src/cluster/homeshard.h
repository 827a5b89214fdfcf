// Sharded home-side tables of the cluster layer.
//
// The scheduler's ref-forwarding table is home state keyed by segment: a
// completion write-back appends the forwarding entry for its segment, and
// under the wall-clock engine the apply windows of different segments land
// behind different home shards.  RefForwardTable partitions the entries by the
// segment's shard (the same deterministic HomeShardMap that splits the
// ObjectManager home-object table and the CheckpointStore) while stamping
// each record with a global sequence number, so ordered() reassembles the
// exact single-table append order regardless of shard count — shards=1
// reproduces the unsharded table bit for bit, and tests comparing replays
// across shard counts see identical forwarding histories.
#pragma once

#include <cstddef>
#include <vector>

#include "bytecode/types.h"
#include "sod/homegate.h"

namespace sod::cluster {

/// One home-mediated ref forward: segment `segment`'s result, produced on
/// `src_worker`, delivered to `dst_worker` as a handle for home ref
/// `home_ref`.
struct RefForward {
  int round;
  int segment;
  int src_worker;
  int dst_worker;
  bc::Ref home_ref;
};

/// Ref-forwarding entries partitioned by home shard of the producing
/// segment.  Records carry a global sequence so the logical (append-order)
/// view is shard-count-invariant.
class RefForwardTable {
 public:
  /// Points the table at the cluster's shard map and lays out one
  /// partition per shard; existing entries are discarded.  nullptr resets
  /// to a single partition.
  void configure(const mig::HomeShardMap* map);

  /// Appends a forwarding entry to the shard of its (round, segment).
  void record(const RefForward& f);

  /// All entries in their original append order (reassembled across
  /// partitions by sequence number).
  std::vector<RefForward> ordered() const;

  /// Entries recorded so far, over all partitions.
  size_t total() const { return static_cast<size_t>(next_seq_); }
  /// Partition count (== home shard count).
  int partitions() const { return static_cast<int>(parts_.size()); }
  /// Entries currently held by one partition.
  size_t partition_size(int shard) const { return parts_[static_cast<size_t>(shard)].size(); }

 private:
  struct Numbered {
    RefForward fwd;
    int seq;
  };

  const mig::HomeShardMap* map_ = nullptr;
  std::vector<std::vector<Numbered>> parts_{1};
  int next_seq_ = 0;
};

}  // namespace sod::cluster
