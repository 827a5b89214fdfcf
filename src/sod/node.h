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
};

}  // namespace sod::mig
