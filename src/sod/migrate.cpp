#include "sod/migrate.h"

#include <deque>
#include <unordered_set>

namespace sod::mig {

using bc::Method;
using svm::StopReason;

CapturedState capture_segment(SodNode& home, int home_tid, SegmentSpec seg) {
  auto& ti = home.ti();
  auto& vm = home.vm();
  const bc::Program& P = home.program();
  SOD_CHECK(seg.len() >= 1, "empty segment");
  SOD_CHECK(seg.depth_hi <= ti.get_stack_depth(home_tid), "segment deeper than stack");

  CapturedState cs;
  // frames[0] = segment bottom = deepest captured depth.
  for (int depth = seg.depth_hi - 1; depth >= seg.depth_lo; --depth) {
    vmti::FrameLocation loc = ti.get_frame_location(home_tid, depth);
    const Method& m = P.method(loc.method);
    CapturedFrame cf;
    cf.method = loc.method;
    if (depth == 0) {
      SOD_CHECK(m.is_stmt_start(loc.pc), "top frame not at an MSP");
      cf.pc = loc.pc;
    } else {
      // loc.pc is the return address; the pending INVOKE sits just before
      // it.  Resume at the statement start that re-executes the call and
      // remember the callee for ForceEarlyReturn delivery.
      uint32_t invoke_pc = loc.pc - 3;  // INVOKE is op + u16
      SOD_CHECK(static_cast<bc::Op>(m.code[invoke_pc]) == bc::Op::INVOKE,
                "suspended frame not at an INVOKE");
      cf.pc = m.stmt_at_or_before(invoke_pc);
      cf.pending_callee = static_cast<uint16_t>(bc::decode(m.code, invoke_pc).arg);
    }
    const auto& vt = ti.get_local_variable_table(loc.method);
    cf.locals.assign(m.num_locals, Value::of_i64(0));
    for (const auto& var : vt) {
      Value v = ti.get_local(home_tid, depth, var.slot);
      // References are left behind (fetched on demand); remember only
      // whether they were null so the worker can stub non-null ones.
      if (var.type == bc::Ty::Ref)
        cf.locals[var.slot] = v.r != bc::kNull ? Value::of_ref(kRemoteMark) : Value::null();
      else
        cf.locals[var.slot] = v;
    }
    cs.frames.push_back(std::move(cf));
  }

  // Statics of loaded classes (Fig. 3's "save static fields"); refs null.
  for (const auto& c : P.classes) {
    if (!vm.class_loaded(c.id) || c.num_static_slots == 0) continue;
    CapturedStatics st;
    st.cls = c.id;
    st.values.assign(c.num_static_slots, Value::of_i64(0));
    for (uint16_t fid : c.field_ids) {
      const bc::Field& f = P.field(fid);
      if (!f.is_static) continue;
      Value v = ti.get_static_field(fid);
      if (f.type == bc::Ty::Ref)
        st.values[f.slot] = v.r != bc::kNull ? Value::of_ref(kRemoteMark) : Value::null();
      else
        st.values[f.slot] = v;
    }
    cs.statics.push_back(std::move(st));
  }
  home.sync_ti_cost();
  return cs;
}

Segment::Segment(SodNode& dest) : dest_(&dest) {
  om_.install(dest);
  dest.set_segment(this);
  install_cs_natives();
}

void Segment::install_cs_natives() {
  if (dest_->natives_bound(SodNode::NativeGroup::Restore)) return;
  // Bound once per node; each call reads the node's current segment, the
  // one most recently constructed there.
  SodNode* node = dest_;
  auto cursor = [node]() -> const Cursor& {
    const Segment* seg = node->segment();
    SOD_CHECK(seg != nullptr && seg->cursor_.frame != nullptr, "cs read outside restoration");
    return seg->cursor_;
  };
  auto& reg = dest_->registry();
  reg.bind("cs.read_i64", [cursor](svm::VM&, std::span<Value> a) {
    return Value::of_i64(cursor().frame->locals[static_cast<size_t>(a[0].i)].i);
  });
  reg.bind("cs.read_f64", [cursor](svm::VM&, std::span<Value> a) {
    const Value& v = cursor().frame->locals[static_cast<size_t>(a[0].i)];
    return Value::of_f64(v.tag == bc::Ty::F64 ? v.d : 0.0);
  });
  reg.bind("cs.read_ref", [cursor](svm::VM& vm, std::span<Value> a) {
    const Cursor& cur = cursor();
    const Value& v = cur.frame->locals[static_cast<size_t>(a[0].i)];
    if (v.tag != bc::Ty::Ref || v.r == bc::kNull) return Value::null();
    // Checkpoint states carry real home ids: the stub resolves directly
    // against the home heap, no suspended-frame lookup needed.
    if (cur.home_refs) return Value::of_ref(vm.heap().alloc_stub(v.r));
    // Non-null at the home: a stub for the suspended home frame's local,
    // resolved through GetLocal.
    const auto slot = static_cast<uint16_t>(a[0].i);
    return Value::of_ref(vm.heap().alloc_stub(svm::StubCell::of_local(cur.home_depth, slot)));
  });
  reg.bind("cs.read_pc", [cursor](svm::VM&, std::span<Value>) {
    return Value::of_i64(cursor().frame->pc);
  });
  dest_->mark_natives_bound(SodNode::NativeGroup::Restore);
}

void Segment::restore(const CapturedState& cs) {
  SOD_CHECK(!cs.frames.empty(), "restore of empty state");
  auto& vm = dest_->vm();
  auto& ti = dest_->ti();
  const bc::Program& P = dest_->program();

  ti.set_debug_enabled(true);
  debug_held_ = true;
  cursor_.home_refs = cs.home_refs;

  // Restore class static data (SetStatic<Type>Field in the paper); class
  // loads may fetch class images on demand.  A ref static becomes a stub
  // for its home field, so copies of it (e.g. a static array cached into
  // a local) stay resolvable after another restore re-plants the statics.
  for (const auto& st : cs.statics) {
    vm.ensure_loaded(st.cls);
    const bc::Class& cls = P.cls(st.cls);
    SOD_CHECK(st.values.size() == cls.num_static_slots, "statics size mismatch");
    std::vector<Value> vals = st.values;
    for (uint16_t fid : cls.field_ids) {
      const bc::Field& f = P.field(fid);
      if (!f.is_static) continue;
      Value& v = vals[f.slot];
      if (v.tag != bc::Ty::Ref || v.r == bc::kNull) continue;
      if (cs.home_refs)  // checkpoint statics hold real home ids
        v = Value::of_ref(vm.heap().alloc_stub(v.r));
      else if (v.r == kRemoteMark)
        v = Value::of_ref(vm.heap().alloc_stub(svm::StubCell::of_static(fid)));
    }
    vm.overwrite_statics(st.cls, std::move(vals));
  }

  const Method& m0 = P.method(cs.frames[0].method);
  std::vector<Value> dummy;
  dummy.reserve(m0.params.size());
  for (bc::Ty t : m0.params) dummy.push_back(Value::zero_of(t));
  tid_ = vm.spawn(cs.frames[0].method, dummy);

  ti.set_breakpoint(cs.frames[0].method, 0);
  for (size_t i = 0; i < cs.frames.size(); ++i) {
    // Run until frame i is (re)created: stack depth grows to i+1 with the
    // breakpoint at its method entry.  A frame whose *resume* point is
    // pc 0 re-trips its own entry breakpoint first (depth unchanged);
    // skip those and keep going.
    while (true) {
      svm::RunResult rr = dest_->run_guest(tid_);
      SOD_CHECK(rr.reason == StopReason::Breakpoint, "restore: expected breakpoint");
      if (vm.thread(tid_).frames.size() == i + 1) break;
      SOD_CHECK(vm.thread(tid_).frames.size() == i,
                "restore: unexpected stack depth at breakpoint");
    }
    const auto& top = vm.thread(tid_).frames.back();
    SOD_CHECK(top.method == cs.frames[i].method && top.pc == 0, "restore: wrong frame");
    if (i + 1 < cs.frames.size()) ti.set_breakpoint(cs.frames[i + 1].method, 0);
    cursor_.frame = &cs.frames[i];
    cursor_.home_depth = om_.home_depth(static_cast<int>(i));
    ti.raise_exception(tid_, bc::builtin::kInvalidState, "restore");
    // Java-level (reflection-based) restoration on devices without a tool
    // interface pays a heavy per-frame cost (Table VII).
    if (dest_->config().java_level_restore)
      dest_->node().charge_host(VDur::millis(1.5));
  }
  for (const auto& f : cs.frames) ti.clear_breakpoint(f.method, 0);

  // The last frame's restoration handler has not executed yet.  Run it to
  // completion now (breakpoint at the saved pc it will jump to), so the
  // cursor can be retargeted — e.g. by another Segment restoring on this
  // same node — without corrupting this thread's state.
  {
    const CapturedFrame& last = cs.frames.back();
    ti.set_breakpoint(last.method, last.pc);
    while (true) {
      svm::RunResult rr = dest_->run_guest(tid_);
      SOD_CHECK(rr.reason == StopReason::Breakpoint, "restore: handler completion");
      const auto& top = vm.thread(tid_).frames.back();
      if (vm.thread(tid_).frames.size() == cs.frames.size() && top.method == last.method &&
          top.pc == last.pc)
        break;
    }
    ti.clear_breakpoint(last.method, last.pc);
  }
  pending_callee_ = cs.frames.back().pending_callee;
  dest_->sync_ti_cost();
  cursor_.frame = nullptr;

  if (pending_callee_ == bc::kNoId) {
    ti.set_debug_enabled(false);
    debug_held_ = false;
  }
}

void Segment::deliver(Value v) {
  SOD_CHECK(pending_callee_ != bc::kNoId, "deliver without a pending call");
  auto& ti = dest_->ti();
  ti.set_breakpoint(pending_callee_, 0);
  svm::RunResult rr = dest_->run_guest(tid_);
  SOD_CHECK(rr.reason == StopReason::Breakpoint, "deliver: expected pending call breakpoint");
  ti.clear_breakpoint(pending_callee_, 0);
  ti.force_early_return(tid_, v);
  pending_callee_ = bc::kNoId;
  ti.set_debug_enabled(false);
  debug_held_ = false;
  dest_->sync_ti_cost();
}

Value Segment::run_to_completion() {
  if (debug_held_) {
    dest_->ti().set_debug_enabled(false);
    debug_held_ = false;
  }
  svm::RunResult rr = dest_->run_guest(tid_);
  if (rr.reason == StopReason::Crashed) {
    const auto& th = dest_->vm().thread(tid_);
    SOD_UNREACHABLE("migrated segment crashed: " +
                    dest_->program().cls(dest_->vm().class_of(th.uncaught)).name + ": " +
                    dest_->vm().exception_message(th.uncaught));
  }
  SOD_CHECK(rr.reason == StopReason::Done, "segment did not finish");
  return dest_->vm().thread(tid_).result;
}

svm::StopReason Segment::run_chunk(uint64_t budget) {
  SOD_CHECK(budget >= 1, "zero-budget chunk");
  // Another segment restored on this node between chunks (a mid-execution
  // re-dispatch landing here) leaves the debug interpreter on; chunked
  // execution always runs fast mode between pauses, same as
  // run_to_completion after prepare().
  dest_->ti().set_debug_enabled(false);
  debug_held_ = false;
  svm::RunResult rr = dest_->run_guest(tid_, budget);
  if (rr.reason == StopReason::Budget) {
    // The budget expired mid-statement; coast under the debug interpreter
    // to the next statement start so the pause is a migration-safe point.
    dest_->ti().set_debug_enabled(true);
    dest_->vm().request_safepoint(true);
    rr = dest_->run_guest(tid_);
    dest_->vm().request_safepoint(false);
    dest_->ti().set_debug_enabled(false);
    dest_->sync_ti_cost();
  }
  if (rr.reason == StopReason::Crashed) {
    const auto& th = dest_->vm().thread(tid_);
    SOD_UNREACHABLE("migrated segment crashed: " +
                    dest_->program().cls(dest_->vm().class_of(th.uncaught)).name + ": " +
                    dest_->vm().exception_message(th.uncaught));
  }
  SOD_CHECK(rr.reason == StopReason::Done || rr.reason == StopReason::SafePoint,
            "segment chunk stopped unexpectedly");
  return rr.reason;
}

Value Segment::result() const { return dest_->vm().thread(tid_).result; }

// ---------------------------------------------------------------- write-back

namespace {

// Wire constants for the write-back message.
enum : uint8_t { kWbUpdate = 1, kWbCreate = 2, kWbEnd = 0 };

uint64_t fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Home-side twin of WriteBackBuilder::write_cell: encodes a home cell
/// with its refs written raw (they already are home ids), so a worker
/// cell whose translated encoding matches byte-for-byte is one home
/// already holds — the first-checkpoint "fetched but never mutated" skip.
void write_home_cell(const svm::Heap& heap, Ref r, ByteWriter& w) {
  const svm::Cell& c = heap.cell(r);
  if (const auto* o = std::get_if<svm::ObjCell>(&c)) {
    w.u8(1);
    w.u16(o->cls);
    w.u16(static_cast<uint16_t>(o->fields.size()));
    for (const Value& v : o->fields) {
      w.u8(static_cast<uint8_t>(v.tag));
      switch (v.tag) {
        case bc::Ty::I64: w.i64(v.i); break;
        case bc::Ty::F64: w.f64(v.d); break;
        case bc::Ty::Ref: w.u32(v.r); break;
        case bc::Ty::Void: SOD_UNREACHABLE("void field");
      }
    }
  } else if (const auto* ai = std::get_if<svm::ArrICell>(&c)) {
    w.u8(2);
    w.u32(static_cast<uint32_t>(ai->v.size()));
    for (int64_t x : ai->v) w.i64(x);
  } else if (const auto* ad = std::get_if<svm::ArrDCell>(&c)) {
    w.u8(3);
    w.u32(static_cast<uint32_t>(ad->v.size()));
    for (double x : ad->v) w.f64(x);
  } else if (const auto* ar = std::get_if<svm::ArrRCell>(&c)) {
    w.u8(4);
    w.u32(static_cast<uint32_t>(ar->v.size()));
    for (Ref x : ar->v) w.u32(x);
  } else if (const auto* s = std::get_if<svm::StrCell>(&c)) {
    w.u8(5);
    w.str(s->s);
  } else {
    SOD_UNREACHABLE("home cell comparison of an empty cell");
  }
}

class WriteBackBuilder {
 public:
  /// With `deltas` set the builder is in checkpoint mode: an update whose
  /// payload digest is unchanged since the last checkpoint is skipped (its
  /// would-be wire bytes accumulate in skipped_bytes()), and digests are
  /// refreshed for everything that ships.  `home_heap` (checkpoint mode)
  /// additionally lets the first checkpoint skip objects whose payload
  /// still equals home's copy — fetched but never mutated.
  explicit WriteBackBuilder(Segment& seg, CheckpointDeltas* deltas = nullptr,
                            const svm::Heap* home_heap = nullptr)
      : seg_(seg), heap_(seg.dest().vm().heap()), deltas_(deltas), home_heap_(home_heap) {}

  // Translate a worker-local ref into (home_ref or fresh temp id).
  uint32_t translate(Ref local) {
    if (local == bc::kNull) return 0;
    if (heap_.is_stub(local)) {
      // Never materialized at the worker: it still lives (unchanged) at
      // the home; just point back at it.
      Ref home = seg_.objman().resolve_stub_home(local);
      SOD_CHECK(home != bc::kNull, "write-back of unresolvable stub");
      return home;
    }
    Ref home = seg_.objman().home_of_local(local);
    if (home != bc::kNull) return home;  // existing home object
    auto it = created_.find(local);
    if (it != created_.end()) return it->second;
    uint32_t temp = kTempBase + static_cast<uint32_t>(created_.size());
    created_[local] = temp;
    queue_.push_back(local);
    return temp;
  }

  void build(ByteWriter& w, Value result) {
    // Updated objects: everything fetched from home, current field values.
    // In checkpoint mode, an object whose translated payload is unchanged
    // since the last checkpoint is skipped — home already holds exactly
    // those bytes — and only the delta is charged to the wire.
    // home_entries() is sorted by home ref — the canonical record order —
    // so the wire layout (and the home-side creation ids the applier
    // allocates in record order) is identical at any home-shard count.
    for (const auto& [home_ref, local_ref] : seg_.objman().home_entries()) {
      if (deltas_ == nullptr) {
        // Plain write-back: everything ships, straight into the message.
        w.u8(kWbUpdate);
        w.u32(home_ref);
        write_cell(w, local_ref);
        ++updated_;
        continue;
      }
      // Checkpoint mode: stage the cell so its digest decides whether it
      // travels at all.
      ByteWriter cell;
      write_cell(cell, local_ref);
      uint64_t h = fnv1a(cell.bytes());
      auto [it, fresh] = deltas_->digest.try_emplace(home_ref, h);
      if (fresh && home_heap_ != nullptr) {
        // First sight of this object since the attempt started: if the
        // translated payload still equals home's cell byte-for-byte, the
        // object was fetched and never mutated — home already holds it.
        ByteWriter hcell;
        write_home_cell(*home_heap_, home_ref, hcell);
        if (hcell.bytes() == cell.bytes()) {
          skipped_bytes_ += cell.size() + 5;  // record header: tag + u32
          continue;
        }
      }
      if (!fresh && it->second == h) {
        skipped_bytes_ += cell.size() + 5;  // record header: tag + u32
        continue;
      }
      it->second = h;
      w.u8(kWbUpdate);
      w.u32(home_ref);
      w.raw(cell.bytes());
      ++updated_;
    }
    // Newly created objects reachable from updates/result.
    flush_creations(w);
    w.u8(kWbEnd);
    // Updated statics of classes loaded at the worker (primitive values
    // travel by value; ref values translate like any other reference).
    const bc::Program& P = seg_.dest().program();
    const svm::VM& wvm = seg_.dest().vm();
    uint16_t nstatic = 0;
    for (const auto& c : P.classes)
      if (wvm.class_loaded(c.id) && c.num_static_slots > 0) ++nstatic;
    w.u16(nstatic);
    for (const auto& c : P.classes) {
      if (!wvm.class_loaded(c.id) || c.num_static_slots == 0) continue;
      w.u16(c.id);
      auto vals = wvm.statics_of(c.id);
      w.u16(static_cast<uint16_t>(vals.size()));
      for (const Value& v : vals) {
        w.u8(static_cast<uint8_t>(v.tag));
        switch (v.tag) {
          case bc::Ty::I64: w.i64(v.i); break;
          case bc::Ty::F64: w.f64(v.d); break;
          case bc::Ty::Ref: w.u32(translate(v.r)); break;
          case bc::Ty::Void: SOD_UNREACHABLE("void static");
        }
      }
    }
    // Result value.
    w.u8(static_cast<uint8_t>(result.tag));
    switch (result.tag) {
      case bc::Ty::I64: w.i64(result.i); break;
      case bc::Ty::F64: w.f64(result.d); break;
      case bc::Ty::Ref: w.u32(translate(result.r)); break;
      case bc::Ty::Void: break;
    }
    // Translating the result may have queued new objects; flush them in a
    // trailer section.
    flush_creations(w);
    w.u8(kWbEnd);
  }

  int updated() const { return updated_; }
  int created() const { return static_cast<int>(created_.size()); }
  size_t skipped_bytes() const { return skipped_bytes_; }
  /// local ref -> temp wire id of every creation that shipped.
  const std::unordered_map<Ref, uint32_t>& created_map() const { return created_; }
  /// temp wire id -> payload digest of every creation (checkpoint mode
  /// records these so the caller can seed the delta tracker once the real
  /// home ids are known).
  const std::unordered_map<uint32_t, uint64_t>& created_digests() const {
    return created_digests_;
  }

  static constexpr uint32_t kTempBase = 0x80000000u;

 private:
  void flush_creations(ByteWriter& w) {
    while (!queue_.empty()) {
      Ref local = queue_.front();
      queue_.pop_front();
      w.u8(kWbCreate);
      w.u32(created_.at(local));
      if (deltas_ == nullptr) {
        write_cell(w, local);
        continue;
      }
      // Checkpoint mode: record the payload digest so the next checkpoint
      // can skip the object (it becomes an update once its home id lands).
      ByteWriter cell;
      write_cell(cell, local);
      created_digests_[created_.at(local)] = fnv1a(cell.bytes());
      w.raw(cell.bytes());
    }
  }
  void write_cell(ByteWriter& w, Ref local) {
    const svm::Cell& c = heap_.cell(local);
    if (const auto* o = std::get_if<svm::ObjCell>(&c)) {
      w.u8(1);
      w.u16(o->cls);
      w.u16(static_cast<uint16_t>(o->fields.size()));
      for (const Value& v : o->fields) {
        w.u8(static_cast<uint8_t>(v.tag));
        switch (v.tag) {
          case bc::Ty::I64: w.i64(v.i); break;
          case bc::Ty::F64: w.f64(v.d); break;
          case bc::Ty::Ref: w.u32(translate(v.r)); break;
          case bc::Ty::Void: SOD_UNREACHABLE("void field");
        }
      }
    } else if (const auto* ai = std::get_if<svm::ArrICell>(&c)) {
      w.u8(2);
      w.u32(static_cast<uint32_t>(ai->v.size()));
      for (int64_t x : ai->v) w.i64(x);
    } else if (const auto* ad = std::get_if<svm::ArrDCell>(&c)) {
      w.u8(3);
      w.u32(static_cast<uint32_t>(ad->v.size()));
      for (double x : ad->v) w.f64(x);
    } else if (const auto* ar = std::get_if<svm::ArrRCell>(&c)) {
      w.u8(4);
      w.u32(static_cast<uint32_t>(ar->v.size()));
      for (Ref x : ar->v) w.u32(translate(x));
    } else if (const auto* s = std::get_if<svm::StrCell>(&c)) {
      w.u8(5);
      w.str(s->s);
    } else {
      SOD_UNREACHABLE("write-back of empty cell");
    }
  }

  Segment& seg_;
  svm::Heap& heap_;
  CheckpointDeltas* deltas_;
  const svm::Heap* home_heap_;
  std::unordered_map<Ref, uint32_t> created_;
  std::unordered_map<uint32_t, uint64_t> created_digests_;
  std::deque<Ref> queue_;
  int updated_ = 0;
  size_t skipped_bytes_ = 0;
};

class WriteBackApplier {
 public:
  explicit WriteBackApplier(SodNode& home) : home_(home) {}

  Value apply(ByteReader& r) {
    // Pass 1: read records, materialize creations, collect field patches.
    read_section(r);
    read_statics(r);
    Value result{};
    bc::Ty t = static_cast<bc::Ty>(r.u8());
    uint32_t result_ref = 0;
    switch (t) {
      case bc::Ty::I64: result = Value::of_i64(r.i64()); break;
      case bc::Ty::F64: result = Value::of_f64(r.f64()); break;
      case bc::Ty::Ref: result_ref = r.u32(); break;
      case bc::Ty::Void: break;
    }
    read_section(r);  // trailer creations
    resolve_links();
    if (t == bc::Ty::Ref) result = Value::of_ref(resolve(result_ref));
    return result;
  }

  /// Home ref a wire id landed on (valid after apply(); checkpoint capture
  /// uses this to remap temp ids in the captured stack to real home ids).
  Ref resolve(uint32_t wire_ref) {
    if (wire_ref == 0) return bc::kNull;
    if (wire_ref >= WriteBackBuilder::kTempBase) {
      auto it = temp_map_.find(wire_ref);
      SOD_CHECK(it != temp_map_.end(), "dangling temp ref in write-back");
      return it->second;
    }
    return wire_ref;  // existing home ref
  }

 private:
  struct Patch {
    Ref holder;
    uint32_t slot;
    uint32_t wire_ref;
  };

  void read_section(ByteReader& r) {
    while (true) {
      uint8_t tag = r.u8();
      if (tag == kWbEnd) break;
      uint32_t id = r.u32();
      Ref target;
      if (tag == kWbUpdate) {
        target = id;
        read_into(r, target, /*create=*/false);
      } else {
        target = read_into(r, 0, /*create=*/true);
        temp_map_[id] = target;
      }
    }
  }

  Ref read_into(ByteReader& r, Ref target, bool create) {
    svm::Heap& heap = home_.vm().heap();
    uint8_t kind = r.u8();
    switch (kind) {
      case 1: {  // object
        uint16_t cls = r.u16();
        uint16_t n = r.u16();
        if (create) {
          home_.vm().ensure_loaded(cls);
          target = heap.alloc_obj(cls, home_.vm().inst_slot_types(cls));
          SOD_CHECK(target != bc::kNull, "home heap exhausted in write-back");
        }
        auto& o = heap.obj(target);
        SOD_CHECK(o.fields.size() == n, "write-back field count mismatch");
        for (uint16_t i = 0; i < n; ++i) {
          bc::Ty t = static_cast<bc::Ty>(r.u8());
          switch (t) {
            case bc::Ty::I64: o.fields[i] = Value::of_i64(r.i64()); break;
            case bc::Ty::F64: o.fields[i] = Value::of_f64(r.f64()); break;
            case bc::Ty::Ref: patches_.push_back(Patch{target, i, r.u32()}); break;
            case bc::Ty::Void: SOD_UNREACHABLE("void field");
          }
        }
        return target;
      }
      case 2: {
        uint32_t n = r.u32();
        if (create) target = heap.alloc_arr_i(n);
        auto& a = heap.arr_i(target);
        SOD_CHECK(a.v.size() == n, "write-back i64 array size mismatch");
        for (auto& x : a.v) x = r.i64();
        return target;
      }
      case 3: {
        uint32_t n = r.u32();
        if (create) target = heap.alloc_arr_d(n);
        auto& a = heap.arr_d(target);
        SOD_CHECK(a.v.size() == n, "write-back f64 array size mismatch");
        for (auto& x : a.v) x = r.f64();
        return target;
      }
      case 4: {
        uint32_t n = r.u32();
        if (create) target = heap.alloc_arr_r(n);
        auto& a = heap.arr_r(target);
        SOD_CHECK(a.v.size() == n, "write-back ref array size mismatch");
        for (uint32_t i = 0; i < n; ++i)
          patches_.push_back(Patch{target, i | 0x40000000u, r.u32()});
        return target;
      }
      case 5: {
        std::string s = r.str();
        if (create) {
          target = heap.alloc_str(std::move(s));
        } else {
          // strings are immutable; nothing to update
        }
        return target;
      }
    }
    SOD_UNREACHABLE("bad write-back cell kind");
  }

  void read_statics(ByteReader& r) {
    uint16_t nclasses = r.u16();
    for (uint16_t k = 0; k < nclasses; ++k) {
      uint16_t cls = r.u16();
      uint16_t n = r.u16();
      home_.vm().ensure_loaded(cls);
      for (uint16_t i = 0; i < n; ++i) {
        bc::Ty t = static_cast<bc::Ty>(r.u8());
        switch (t) {
          case bc::Ty::I64:
            static_vals_.push_back({cls, i, Value::of_i64(r.i64()), 0, false});
            break;
          case bc::Ty::F64:
            static_vals_.push_back({cls, i, Value::of_f64(r.f64()), 0, false});
            break;
          case bc::Ty::Ref: static_vals_.push_back({cls, i, Value{}, r.u32(), true}); break;
          case bc::Ty::Void: SOD_UNREACHABLE("void static");
        }
      }
    }
  }

  void resolve_links() {
    svm::Heap& heap = home_.vm().heap();
    for (const Patch& p : patches_) {
      Ref v = resolve(p.wire_ref);
      if (p.slot & 0x40000000u) {
        heap.arr_r(p.holder).v[p.slot & ~0x40000000u] = v;
      } else {
        heap.obj(p.holder).fields[p.slot] = Value::of_ref(v);
      }
    }
    // Statics: primitives update unconditionally; ref statics only when
    // the worker actually holds a resolvable object (a null at the worker
    // usually means "never fetched", not "cleared").
    for (const auto& sv : static_vals_) {
      uint16_t fid = find_static_field(sv.cls, sv.slot);
      if (fid == bc::kNoId) continue;
      if (!sv.is_ref) {
        home_.vm().set_static(fid, sv.val);
      } else if (sv.wire_ref != 0) {
        home_.vm().set_static(fid, Value::of_ref(resolve(sv.wire_ref)));
      }
    }
  }

  uint16_t find_static_field(uint16_t cls, uint16_t slot) const {
    for (uint16_t fid : home_.program().cls(cls).field_ids) {
      const bc::Field& f = home_.program().field(fid);
      if (f.is_static && f.slot == slot) return fid;
    }
    return bc::kNoId;
  }

  struct StaticVal {
    uint16_t cls;
    uint16_t slot;
    Value val;
    uint32_t wire_ref;
    bool is_ref;
  };

  SodNode& home_;
  std::unordered_map<uint32_t, Ref> temp_map_;
  std::vector<Patch> patches_;
  std::vector<StaticVal> static_vals_;
};

}  // namespace

WriteBackReport write_back(Segment& seg, SodNode& home, int home_tid, int frames_to_pop,
                           Value result, sim::Link link) {
  WriteBackReport rep;
  SodNode& dest = seg.dest();

  ByteWriter w;
  WriteBackBuilder builder(seg);
  builder.build(w, result);
  rep.bytes = w.size();
  rep.objects_updated = builder.updated();
  rep.objects_created = builder.created();

  // Serialize at the worker, ship, apply at home.
  dest.node().charge_host(dest.serde().cost(w.size(), rep.objects_updated + rep.objects_created));
  sim::deliver(dest.node(), home.node(), link, w.size());
  home.node().charge_host(home.serde().cost(w.size()));

  ByteReader r(w.bytes());
  WriteBackApplier applier(home);
  Value home_result = applier.apply(r);
  rep.home_result = home_result;

  // Pop the outdated frames; the last pop delivers the return value.  A
  // frames_to_pop of 0 is an updates-only write-back (multi-segment
  // dispatch: upper segments ship their objects home, only the bottom
  // segment resumes the home thread).
  if (frames_to_pop > 0) {
    auto& ti = home.ti();
    for (int i = 0; i < frames_to_pop - 1; ++i) ti.pop_frame(home_tid);
    ti.force_early_return(home_tid, home_result);
  }
  home.sync_ti_cost();
  return rep;
}

// ------------------------------------------------------------- checkpoints

SegmentCheckpoint checkpoint_segment(Segment& seg, SodNode& home, sim::Link link,
                                     CheckpointDeltas& deltas, bool apply_at_home) {
  SodNode& dest = seg.dest();
  auto& vm = dest.vm();
  auto& ti = dest.ti();
  const bc::Program& P = dest.program();
  int tid = seg.tid();
  int depth = ti.get_stack_depth(tid);
  SOD_CHECK(depth >= 1, "checkpoint of a finished segment");

  SegmentCheckpoint out;
  CapturedState& cs = out.state;
  cs.home_refs = true;
  WriteBackBuilder builder(seg, &deltas, &home.vm().heap());

  // Translate a worker-local ref into its home id (queuing locally created
  // objects for shipment); the wire id may still be a temp, remapped after
  // the heap flush lands at home.
  auto wire_ref = [&](Ref local) -> Value {
    if (local == bc::kNull) return Value::null();
    uint32_t wire = builder.translate(local);
    return wire == 0 ? Value::null() : Value::of_ref(wire);
  };

  // Walk the whole in-flight stack through the tool interface, exactly as
  // capture_segment does at home: frames[0] = deepest frame.  The top
  // frame sits at the MSP run_chunk coasted to; deeper frames resume at
  // the statement of their pending INVOKE.
  for (int d = depth - 1; d >= 0; --d) {
    vmti::FrameLocation loc = ti.get_frame_location(tid, d);
    const Method& m = P.method(loc.method);
    CapturedFrame cf;
    cf.method = loc.method;
    if (d == 0) {
      SOD_CHECK(m.is_stmt_start(loc.pc), "checkpoint not at an MSP");
      cf.pc = loc.pc;
    } else {
      uint32_t invoke_pc = loc.pc - 3;  // INVOKE is op + u16
      SOD_CHECK(static_cast<bc::Op>(m.code[invoke_pc]) == bc::Op::INVOKE,
                "checkpointed frame not at an INVOKE");
      cf.pc = m.stmt_at_or_before(invoke_pc);
      cf.pending_callee = static_cast<uint16_t>(bc::decode(m.code, invoke_pc).arg);
    }
    const auto& vt = ti.get_local_variable_table(loc.method);
    cf.locals.assign(m.num_locals, Value::of_i64(0));
    for (const auto& var : vt) {
      Value v = ti.get_local(tid, d, var.slot);
      cf.locals[var.slot] = var.type == bc::Ty::Ref ? wire_ref(v.r) : v;
    }
    cs.frames.push_back(std::move(cf));
  }

  // Statics of classes loaded at the worker, refs translated the same way.
  for (const auto& c : P.classes) {
    if (!vm.class_loaded(c.id) || c.num_static_slots == 0) continue;
    CapturedStatics st;
    st.cls = c.id;
    st.values.assign(c.num_static_slots, Value::of_i64(0));
    for (uint16_t fid : c.field_ids) {
      const bc::Field& f = P.field(fid);
      if (!f.is_static) continue;
      Value v = ti.get_static_field(fid);
      st.values[f.slot] = f.type == bc::Ty::Ref ? wire_ref(v.r) : v;
    }
    cs.statics.push_back(std::move(st));
  }
  dest.sync_ti_cost();

  // Heap flush: changed + created objects (and current statics) go home as
  // an updates-only write-back message; unchanged objects are skipped by
  // the delta tracker and cost nothing on the wire.
  ByteWriter w;
  builder.build(w, Value{});
  out.heap_bytes = w.size();
  out.full_heap_bytes = w.size() + builder.skipped_bytes();
  out.objects_shipped = builder.updated() + builder.created();
  out.state_bytes = cs.wire_size();

  dest.node().charge_host(dest.serde().cost(out.state_bytes + w.size(),
                                            out.objects_shipped + depth));
  sim::deliver(dest.node(), home.node(), link, out.state_bytes + w.size());
  home.node().charge_host(home.serde().cost(w.size()));

  // Restart-from-capture mode records the checkpoint without absorbing
  // its heap flush: a later restart re-executes against home's pristine
  // state, so nothing is double-applied.  (Resume and speculation need
  // the flush applied — they restore against home's current objects.)
  if (!apply_at_home) return out;

  ByteReader r(w.bytes());
  WriteBackApplier applier(home);
  applier.apply(r);

  // Creations now have real home ids: remap temp wire ids in the captured
  // state, seed the delta tracker, and adopt the (home, local) identities
  // so the final write-back updates these objects instead of re-creating
  // them.
  auto remap = [&](Value& v) {
    if (v.tag != bc::Ty::Ref || v.r < WriteBackBuilder::kTempBase) return;
    v = Value::of_ref(applier.resolve(v.r));
  };
  for (auto& f : cs.frames)
    for (auto& v : f.locals) remap(v);
  for (auto& st : cs.statics)
    for (auto& v : st.values) remap(v);
  for (const auto& [local, temp] : builder.created_map())
    seg.objman().adopt_mapping(applier.resolve(temp), local);
  for (const auto& [temp, digest] : builder.created_digests())
    deltas.digest[applier.resolve(temp)] = digest;
  return out;
}

// ---------------------------------------------------------------- triggers

bool pause_at_depth(SodNode& node, int tid, uint16_t method, int depth) {
  auto& vm = node.vm();
  auto& ti = node.ti();
  ti.set_debug_enabled(true);
  ti.set_breakpoint(method, 0);
  while (true) {
    svm::RunResult rr = node.run_guest(tid);
    if (rr.reason == StopReason::Done || rr.reason == StopReason::Crashed) {
      ti.clear_breakpoint(method, 0);
      ti.set_debug_enabled(false);
      node.sync_ti_cost();
      return false;
    }
    SOD_CHECK(rr.reason == StopReason::Breakpoint, "unexpected stop while seeking depth");
    if (static_cast<int>(vm.thread(tid).frames.size()) >= depth) {
      ti.clear_breakpoint(method, 0);
      node.sync_ti_cost();
      return true;  // paused at method entry == MSP 0, debug stays on
    }
  }
}

bool pause_at_next_msp(SodNode& node, int tid) {
  auto& vm = node.vm();
  node.ti().set_debug_enabled(true);
  vm.request_safepoint(true);
  svm::RunResult rr = node.run_guest(tid);
  vm.request_safepoint(false);
  node.sync_ti_cost();
  return rr.reason == StopReason::SafePoint;
}

int max_migratable_frames(SodNode& node, int tid, const std::vector<uint16_t>& pinned_methods) {
  const auto& frames = node.vm().thread(tid).frames;
  int n = 0;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    bool pinned = false;
    for (uint16_t m : pinned_methods)
      if (it->method == m) pinned = true;
    if (pinned) break;
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------- offload

OffloadOutcome offload_and_return(SodNode& home, int home_tid, int nframes, SodNode& dest,
                                  sim::Link link) {
  OffloadOutcome out;

  // Capture.
  VDur t0 = home.node().clock.now();
  CapturedState cs = capture_segment(home, home_tid, SegmentSpec{0, nframes});
  // The paper disables the debug interface outside migration events.
  home.ti().set_debug_enabled(false);
  home.sync_ti_cost();
  out.timing.state_bytes = cs.wire_size();
  home.node().charge_host(home.serde().cost(out.timing.state_bytes,
                                            static_cast<int>(cs.frames.size())));
  out.timing.capture = home.node().clock.now() - t0;

  // Transfer (state + the top frame's class image is pre-shipped).
  uint16_t top_cls = home.program().method(cs.frames.back().method).owner;
  size_t ship = out.timing.state_bytes + home.program().class_image_size(top_cls);
  dest.mark_class_shipped(top_cls);
  dest.enable_class_fetch(&home, link);
  VDur sent_at = home.node().clock.now();
  sim::deliver(home.node(), dest.node(), link, ship);
  out.timing.transfer = dest.node().clock.now() - sent_at;

  // Restore.
  VDur t2 = dest.node().clock.now();
  Segment seg(dest);
  seg.objman().bind_home(&home, home_tid, static_cast<int>(cs.frames.size()), link);
  seg.restore(cs);
  out.timing.restore = dest.node().clock.now() - t2;
  out.timing.class_bytes = dest.class_bytes_fetched();

  // Execute remotely; object misses fault in on demand.
  Value result = seg.run_to_completion();
  out.faults = seg.objman().stats();

  // Write back + resume home.
  out.writeback = write_back(seg, home, home_tid, nframes, result, link);
  out.result = result;
  return out;
}


// ------------------------------------------------- exception-driven offload

void OffloadGuard::install(SodNode& node) {
  node.registry().bind("offload.trap", [this](svm::VM& vm, std::span<Value> a) {
    trapped_ = true;
    uid_ = a[0].i;
    // The handler's goto lands on the failing statement's MSP next; a
    // safepoint request pauses execution exactly there, capturable.
    vm.set_debug_mode(true);
    vm.request_safepoint(true);
    return Value{};
  });
}

ElasticOutcome run_elastic(SodNode& device, int tid, SodNode& cloud, sim::Link link,
                           OffloadGuard& guard) {
  ElasticOutcome out;
  while (true) {
    svm::RunResult rr = device.run_guest(tid);
    if (rr.reason == StopReason::Done) {
      out.result = device.vm().thread(tid).result;
      return out;
    }
    if (rr.reason == StopReason::Crashed) {
      SOD_UNREACHABLE("elastic run crashed: " +
                      device.vm().exception_message(device.vm().thread(tid).uncaught));
    }
    SOD_CHECK(rr.reason == StopReason::SafePoint, "elastic run: unexpected stop");
    SOD_CHECK(guard.trapped(), "safepoint stop without a trap");
    guard.reset();
    device.vm().request_safepoint(false);

    // Rocket the whole stack into the cloud; the failing allocation
    // retries there with a bigger heap.
    int depth = static_cast<int>(device.vm().thread(tid).frames.size());
    auto o = offload_and_return(device, tid, depth, cloud, link);
    out.offloaded = true;
    out.timing = o.timing;
    device.ti().set_debug_enabled(false);
    // The whole stack migrated: the device thread completed via write-back.
    SOD_CHECK(device.vm().thread(tid).status == svm::ThreadStatus::Done,
              "elastic offload did not complete the thread");
    out.result = device.vm().thread(tid).result;
    return out;
  }
}

}  // namespace sod::mig
