// Guest heap.
//
// Cells are class instances, typed arrays, or interned strings.  Refs are
// 1-based indices (0 = null).  There is no garbage collector — guest runs
// in the experiments are bounded, and the paper's migration design treats
// the heap as home-anchored data that is fetched on demand, so lifetime is
// managed per-VM (the whole heap dies with the VM, as the worker JVMs in
// the paper exit after their lease).
//
// Serialization comes in two flavours mirroring the two migration schools:
//   - serialize_shallow: one cell; embedded refs are encoded as *home ref
//     ids* and materialize as stubs carrying them at the receiver (SOD's
//     on-demand object faulting).
//   - serialize_graph: the full reachable closure (eager-copy process
//     migration à la G-JavaMPI).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "bytecode/types.h"
#include "support/bytes.h"

namespace sod::svm {

using bc::Ref;
using bc::Ty;
using bc::Value;

/// Placeholder for an object whose data still lives at the home node.
/// Stubs look non-null to reference tests (preserving `if (x == null)`
/// semantics across migration) but raise NullPointerException on any
/// dereference, which drives the injected fault handlers exactly like the
/// paper's plain-null scheme.  A stub says what it stands for in home
/// coordinates, so any object manager bound to the home thread resolves
/// it: a home object (HomeRef: `home_ref`), a home static (Static: field
/// `id`), or local slot `id` of the home frame `depth` below the top
/// (Local; a negative depth lies outside the planting binding).
struct StubCell {
  enum class Kind : uint8_t { HomeRef, Static, Local };
  Kind kind = Kind::HomeRef;
  uint16_t id = 0;
  int32_t depth = 0;
  Ref home_ref = 0;

  static StubCell of_static(uint16_t field_id) { return {Kind::Static, field_id, 0, 0}; }
  static StubCell of_local(int depth, uint16_t slot) { return {Kind::Local, slot, depth, 0}; }
};

struct ObjCell {
  uint16_t cls = 0;
  std::vector<Value> fields;
};
struct ArrICell {
  std::vector<int64_t> v;
};
struct ArrDCell {
  std::vector<double> v;
};
struct ArrRCell {
  std::vector<Ref> v;
};
struct StrCell {
  std::string s;
};

using Cell = std::variant<std::monostate, ObjCell, ArrICell, ArrDCell, ArrRCell, StrCell, StubCell>;

class Heap {
 public:
  /// Byte budget; allocations beyond it fail (drives OutOfMemory-style
  /// exception-driven offload on small-device profiles).  0 = unlimited.
  explicit Heap(size_t limit_bytes = 0) : limit_(limit_bytes) {}

  Ref alloc_obj(uint16_t cls, std::span<const Ty> slot_types);
  Ref alloc_arr_i(size_t n);
  Ref alloc_arr_d(size_t n);
  Ref alloc_arr_r(size_t n);
  Ref alloc_str(std::string s);
  Ref alloc_stub(StubCell stub);
  Ref alloc_stub(Ref home_ref) { return alloc_stub({StubCell::Kind::HomeRef, 0, 0, home_ref}); }

  bool is_stub(Ref r) const { return std::holds_alternative<StubCell>(cell(r)); }
  const StubCell& stub(Ref r) const { return as<StubCell>(r, "ref is not a stub"); }
  /// Home ref of a HomeRef stub (kNull for the other kinds).
  Ref stub_home(Ref r) const { return stub(r).home_ref; }
  /// Replace a stub in place with the materialized cell `from` (so every
  /// existing reference to the stub sees the real object).
  void replace_stub(Ref stub, Cell materialized);

  /// True if the last alloc_* failed for capacity (ref came back null).
  bool last_alloc_failed() const { return oom_; }

  bool valid(Ref r) const { return r >= 1 && r <= count_; }
  Cell& cell(Ref r) {
    SOD_CHECK(valid(r), "bad ref");
    return chunks_[(r - 1) >> kChunkShift][(r - 1) & kChunkMask];
  }
  const Cell& cell(Ref r) const {
    SOD_CHECK(valid(r), "bad ref");
    return chunks_[(r - 1) >> kChunkShift][(r - 1) & kChunkMask];
  }
  // Typed views of a cell; the interpreter calls these on every field and
  // array access, so they are inline.
  ObjCell& obj(Ref r) { return as<ObjCell>(r, "ref is not an object"); }
  const ObjCell& obj(Ref r) const { return as<ObjCell>(r, "ref is not an object"); }
  ArrICell& arr_i(Ref r) { return as<ArrICell>(r, "ref is not an i64 array"); }
  ArrDCell& arr_d(Ref r) { return as<ArrDCell>(r, "ref is not an f64 array"); }
  ArrRCell& arr_r(Ref r) { return as<ArrRCell>(r, "ref is not a ref array"); }
  const StrCell& str(Ref r) const { return as<StrCell>(r, "ref is not a string"); }

  size_t count() const { return count_; }
  size_t used_bytes() const { return used_; }

  /// Shallow wire form of one cell (embedded refs as raw home ids).
  void serialize_shallow(Ref r, ByteWriter& w) const;
  /// Byte size of the shallow wire form.
  size_t shallow_size(Ref r) const;
  /// Materialize a shallow cell into this heap.  Embedded non-null refs
  /// become remote stubs carrying the home ref (when `stubs`), or nulls
  /// (graph deserialization rewires them afterwards).  `remote_of`
  /// receives (holder, slot_or_index, home_ref) for each embedded ref.
  /// Returns the new local ref.
  using RemoteRefSink = std::function<void(Ref local_holder, uint32_t slot, Ref home_ref)>;
  Ref deserialize_shallow(ByteReader& r, const RemoteRefSink& remote_of, bool stubs = true);

  /// Full reachable closure from `roots` (eager copy).  The wire form is a
  /// list of (home_ref, shallow cell); intra-graph refs are preserved via
  /// an id map when deserializing.
  void serialize_graph(std::span<const Ref> roots, ByteWriter& w) const;
  size_t graph_size(std::span<const Ref> roots) const;
  /// Returns home->local ref map.
  std::unordered_map<Ref, Ref> deserialize_graph(ByteReader& r);

  /// Deep-copy compare of two refs across heaps (test support).
  static bool deep_equal(const Heap& a, Ref ra, const Heap& b, Ref rb);

 private:
  // Cells live in fixed-size chunks so allocation is a bump of count_ (a
  // new chunk every kChunkCells allocs) and cell references stay stable —
  // no vector reallocation moving live Cell storage under the interpreter.
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkCells = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkCells - 1;

  template <class T>
  T& as(Ref r, const char* what) {
    auto* p = std::get_if<T>(&cell(r));
    SOD_CHECK(p, what);
    return *p;
  }
  template <class T>
  const T& as(Ref r, const char* what) const {
    const auto* p = std::get_if<T>(&cell(r));
    SOD_CHECK(p, what);
    return *p;
  }

  Ref push_cell(Cell c, size_t bytes);
  size_t cell_bytes(const Cell& c) const;

  std::vector<std::unique_ptr<Cell[]>> chunks_;
  size_t count_ = 0;
  size_t limit_;
  size_t used_ = 0;
  bool oom_ = false;
};

}  // namespace sod::svm
