// SodNode — one participating machine in a SODEE deployment: a simulated
// node (virtual clock, CPU profile) hosting a worker VM with its native
// registry, standard library, tool interface, and optional file mounts.
//
// Guest execution goes through run_guest(), which charges the node's
// virtual clock with interpreted-instruction cost (respecting the
// debug-mode penalty — the paper's mixed-mode JVMTI slowdown), any virtual
// cost natives charged (file reads), and accumulated tool-interface call
// costs.
#pragma once

#include <memory>
#include <unordered_set>
#include <string>

#include "sfs/sfs.h"
#include "sod/homegate.h"
#include "sim/net.h"
#include "svm/natives.h"
#include "svm/vm.h"
#include "vmti/vmti.h"

namespace sod::mig {

class ObjectManager;
class Segment;

class SodNode {
 public:
  struct Config {
    double cpu_scale = 1.0;
    VDur instr_cost = VDur::nanos(2);
    double debug_multiplier = 10.0;
    size_t heap_limit_bytes = 0;
    vmti::CostModel vmti_costs{};
    sim::SerdeModel serde{};
    /// The paper's iPhone path: no JVMTI on the device; restoration runs
    /// as pure guest-level work (Java reflection), multiplying restore
    /// cost (Table VII).
    bool java_level_restore = false;
  };

  SodNode(std::string name, const bc::Program& prog, Config cfg);

  const std::string& name() const { return node_.name; }
  sim::Node& node() { return node_; }
  const Config& config() const { return cfg_; }
  const bc::Program& program() const { return *prog_; }
  svm::VM& vm() { return *vm_; }
  vmti::ToolInterface& ti() { return *ti_; }
  svm::NativeRegistry& registry() { return reg_; }
  svm::StdLib& stdlib() { return stdlib_; }
  sim::SerdeModel serde() const { return cfg_.serde; }

  /// Run guest code, charging the node clock; returns the VM's result.
  svm::RunResult run_guest(int tid, uint64_t budget = UINT64_MAX);

  /// Spawn + run to completion with node-clock charging; panics if the
  /// guest crashes (tests that expect crashes use spawn/run_guest).
  bc::Value call_guest(std::string_view entry, std::span<const bc::Value> args);

  /// Move accumulated tool-interface cost onto the node clock.
  void sync_ti_cost();

  /// Mark a class as already shipped (its load won't charge a fetch).
  void mark_class_shipped(uint16_t cls) { shipped_.insert(cls); }
  bool class_shipped(uint16_t cls) const { return shipped_.count(cls) != 0; }

  /// Bytes of class images fetched on demand so far.
  size_t class_bytes_fetched() const { return class_bytes_; }
  /// Virtual time spent in on-demand class fetches (Table VII's t3).
  VDur class_fetch_time() const { return class_fetch_time_; }

  /// Wire up the on-demand class fetch hook against a home node.  When
  /// `gate` is non-null (wall-clock mode) the hook runs inside a gate
  /// section keyed by the class id: the home-side image serialization is
  /// served as a wall sleep holding only the class's stripe.
  void enable_class_fetch(SodNode* home, sim::Link link, HomeGate* gate = nullptr);

  // --- sod-layer natives ---
  // The objman.* and cs.* natives are bound once per node and call through
  // the two pointers below, so switching which object manager or restoring
  // segment a node serves (ObjectManager::install, Segment construction)
  // is a pointer store.  Both are borrowed: the installer outlives its use.

  /// Natives of one sod-layer group.
  enum class NativeGroup : uint8_t { ObjMan = 1, Restore = 2 };
  /// True if `g`'s natives are bound and nothing else was bound into the
  /// registry since our last bind.  Any other bind (a test or benchmark
  /// wrapping a native) may have replaced one of ours, so it makes every
  /// group rebind on its next install, as if bound afresh.
  bool natives_bound(NativeGroup g);
  /// Record that `g`'s natives were just bound (after natives_bound(g)
  /// returned false, with no other bind in between).
  void mark_natives_bound(NativeGroup g);
  ObjectManager* objman() const { return objman_; }
  void set_objman(ObjectManager* om) { objman_ = om; }
  Segment* segment() const { return segment_; }
  void set_segment(Segment* seg) { segment_ = seg; }

 private:
  sim::Node node_;
  const bc::Program* prog_;
  Config cfg_;
  svm::NativeRegistry reg_;
  svm::StdLib stdlib_;
  std::unique_ptr<svm::VM> vm_;
  std::unique_ptr<vmti::ToolInterface> ti_;
  std::unordered_set<uint16_t> shipped_;
  size_t class_bytes_ = 0;
  VDur class_fetch_time_{};
  ObjectManager* objman_ = nullptr;
  Segment* segment_ = nullptr;
  uint8_t bound_groups_ = 0;     ///< NativeGroup bits
  uint64_t natives_version_ = 0;  ///< registry version after our last bind
};

}  // namespace sod::mig
