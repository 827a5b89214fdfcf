#include "svm/vm.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <string>

#include "bytecode/disasm.h"

// Direct-threaded dispatch: on GCC/Clang the interpreter loop uses computed
// goto (a per-opcode label table) so each handler jumps straight to the next
// handler instead of round-tripping through a switch.  MSVC and unknown
// compilers fall back to the portable switch loop; -DSOD_COMPUTED_GOTO=0
// (CMake option SOD_FORCE_SWITCH_DISPATCH) forces the fallback anywhere.
#ifndef SOD_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define SOD_COMPUTED_GOTO 1
#else
#define SOD_COMPUTED_GOTO 0
#endif
#endif

namespace sod::svm {

using bc::DecodedInstr;
using bc::DecodedMethod;
using bc::Method;
using bc::Op;
using bc::Program;

VM::VM(const Program& prog, const NativeRegistry* natives) : VM(prog, natives, Config{}) {}

VM::VM(const Program& prog, const NativeRegistry* natives, Config cfg)
    : prog_(&prog),
      decoded_(prog.decoded()),
      natives_(natives),
      cfg_(cfg),
      heap_(cfg.heap_limit_bytes) {
  rt_.resize(prog.classes.size());
  for (size_t c = 0; c < prog.classes.size(); ++c) {
    auto& r = rt_[c];
    r.inst_types.resize(prog.classes[c].num_inst_slots, Ty::I64);
    r.static_types.resize(prog.classes[c].num_static_slots, Ty::I64);
    for (uint16_t fid : prog.classes[c].field_ids) {
      const bc::Field& f = prog.field(fid);
      (f.is_static ? r.static_types : r.inst_types)[f.slot] = f.type;
    }
  }
  native_fns_.assign(prog.natives.size(), nullptr);
}

namespace {
/// Values a new stack starts with: room for a few frames of the usual
/// handful of locals and operands before the first doubling.
constexpr size_t kMinStack = 64;
/// Encoded size of ICONST (opcode + i64 immediate), which fused handlers
/// step over.
constexpr uint32_t kIconstSize = 9;
}  // namespace

void VM::grow_stack(GuestThread& th, size_t need) {
  size_t n = std::max(th.stack.size() * 2, kMinStack);
  while (n < need) n *= 2;
  th.stack.resize(n);
}

void VM::finish(GuestThread& th, ThreadStatus status) {
  th.status = status;
  th.frames.clear();
  spare_.push_back({std::move(th.frames), std::move(th.stack)});  // leaves both empty
}

int VM::spawn(uint16_t method_id, std::span<const Value> args) {
  const Method& m = prog_->method(method_id);
  SOD_CHECK(args.size() == m.params.size(), "spawn: arg count mismatch for " + m.name);
  for (size_t i = 0; i < args.size(); ++i)
    SOD_CHECK(args[i].tag == m.params[i], "spawn: arg type mismatch for " + m.name);
  FrameImage entry{method_id, 0, decoded_->methods[method_id].zero_locals};
  std::copy(args.begin(), args.end(), entry.locals.begin());
  return adopt_frames({&entry, 1});
}

int VM::adopt_frames(std::span<const FrameImage> frames) {
  SOD_CHECK(!frames.empty(), "adopt_frames: empty stack");
  for (const FrameImage& f : frames) ensure_loaded(prog_->method(f.method).owner);
  GuestThread& th = threads_.emplace_back();
  th.id = static_cast<int>(threads_.size()) - 1;
  if (!spare_.empty()) {  // storage a finished thread left behind
    th.frames = std::move(spare_.back().frames);
    th.stack = std::move(spare_.back().stack);
    spare_.pop_back();
  }
  uint32_t base = 0;
  for (const FrameImage& f : frames) {
    const DecodedMethod& dm = decoded_->methods[f.method];
    SOD_CHECK(f.locals.size() == dm.num_locals, "adopt_frames: locals size mismatch");
    const size_t need = size_t{base} + dm.num_locals + dm.max_stack;
    if (th.stack.size() < need) grow_stack(th, need);
    std::copy(f.locals.begin(), f.locals.end(), th.stack.begin() + base);
    th.frames.push_back(Frame{f.method, f.pc, base, base + dm.num_locals});
    base += dm.num_locals;
  }
  return th.id;
}

GuestThread& VM::thread(int tid) {
  SOD_CHECK(tid >= 0 && tid < static_cast<int>(threads_.size()), "bad tid");
  return threads_[tid];
}
const GuestThread& VM::thread(int tid) const {
  SOD_CHECK(tid >= 0 && tid < static_cast<int>(threads_.size()), "bad tid");
  return threads_[tid];
}

Value VM::call(std::string_view qname, std::span<const Value> args) {
  uint16_t mid = prog_->find_method(qname);
  SOD_CHECK(mid != bc::kNoId, "call: unknown method " + std::string(qname));
  int tid = spawn(mid, args);
  RunResult rr = run(tid);
  if (rr.reason == StopReason::Crashed) {
    const GuestThread& th = thread(tid);
    std::string cls = prog_->cls(class_of(th.uncaught)).name;
    SOD_UNREACHABLE("guest crashed with " + cls + ": " + exception_message(th.uncaught));
  }
  SOD_CHECK(rr.reason == StopReason::Done, "call: guest did not finish");
  return thread(tid).result;
}

void VM::load_class(uint16_t cls) {
  ClassRT& r = rt_[cls];
  r.loaded = true;
  r.statics.clear();
  r.statics.reserve(r.static_types.size());
  for (Ty t : r.static_types) r.statics.push_back(Value::zero_of(t));
  if (on_class_load) on_class_load(*this, cls);
}

Value VM::get_static(uint16_t field_id) {
  const bc::Field& f = prog_->field(field_id);
  SOD_CHECK(f.is_static, "get_static on instance field");
  ensure_loaded(f.owner);
  return rt_[f.owner].statics[f.slot];
}

void VM::set_static(uint16_t field_id, Value v) {
  const bc::Field& f = prog_->field(field_id);
  SOD_CHECK(f.is_static, "set_static on instance field");
  ensure_loaded(f.owner);
  rt_[f.owner].statics[f.slot] = v;
}

void VM::overwrite_statics(uint16_t cls, std::vector<Value> vals) {
  ensure_loaded(cls);
  SOD_CHECK(vals.size() == rt_[cls].statics.size(), "statics size mismatch");
  rt_[cls].statics = std::move(vals);
}

void VM::throw_guest(uint16_t ex_cls, std::string_view msg) {
  SOD_CHECK(!pending_, "guest exception already pending");
  pending_ = true;
  pending_cls_ = ex_cls;
  pending_msg_ = std::string(msg);
}

Ref VM::make_exception(uint16_t ex_cls, std::string_view msg) {
  ensure_loaded(ex_cls);
  Ref r = heap_.alloc_obj(ex_cls, rt_[ex_cls].inst_types);
  SOD_CHECK(r != bc::kNull, "heap exhausted allocating exception");
  if (!msg.empty()) ex_msgs_[r] = std::string(msg);
  return r;
}

std::string VM::exception_message(Ref r) const {
  auto it = ex_msgs_.find(r);
  return it == ex_msgs_.end() ? "" : it->second;
}

Ref VM::intern_pool_string(uint16_t idx) {
  auto it = pool_strings_.find(idx);
  if (it != pool_strings_.end()) return it->second;
  Ref r = heap_.alloc_str(prog_->strings[idx]);
  SOD_CHECK(r != bc::kNull, "heap exhausted interning string");
  pool_strings_[idx] = r;
  return r;
}

std::span<Value> VM::frame_locals(int tid, size_t idx) {
  GuestThread& th = thread(tid);
  SOD_CHECK(idx < th.frames.size(), "bad frame index");
  const Frame& f = th.frames[idx];
  return {th.stack.data() + f.base, decoded_->methods[f.method].num_locals};
}

void VM::pop_top_frame(int tid) {
  GuestThread& th = thread(tid);
  SOD_CHECK(!th.frames.empty(), "pop_frame on empty stack");
  th.frames.pop_back();
}

void VM::early_return(int tid, Value v) {
  GuestThread& th = thread(tid);
  SOD_CHECK(!th.frames.empty(), "force_early_return on empty stack");
  const Method& m = prog_->method(th.frames.back().method);
  th.frames.pop_back();
  if (th.frames.empty()) {
    th.result = v;
    finish(th, ThreadStatus::Done);
    return;
  }
  if (m.ret != Ty::Void) {
    SOD_CHECK(v.tag == m.ret, "force_early_return type mismatch");
    // The slot is the callee's old base: inside the stack, and inside the
    // caller's verified max_stack (the INVOKE's result lands there).
    Frame& caller = th.frames.back();
    th.stack[caller.sp++] = v;
  }
}

std::span<Value> VM::native_locals() {
  SOD_CHECK(native_frame_ != nullptr, "native_locals outside native dispatch");
  GuestThread& th = threads_[static_cast<size_t>(native_tid_)];
  return {th.stack.data() + native_frame_->base,
          decoded_->methods[native_frame_->method].num_locals};
}

const NativeFn& VM::native_fn(uint16_t idx) {
  const NativeFn*& fn = native_fns_[idx];
  if (fn == nullptr) {
    const std::string& name = prog_->natives[idx].name;
    fn = natives_ ? natives_->find(name) : nullptr;
    SOD_CHECK(fn, "unbound native: " + name);
  }
  return *fn;
}

bool VM::dispatch_exception(GuestThread& th, Ref ex, uint32_t throw_pc) {
  uint16_t ex_cls = heap_.obj(ex).cls;
  uint32_t look = throw_pc;
  while (!th.frames.empty()) {
    Frame& f = th.frames.back();
    const Method& m = prog_->method(f.method);
    for (const auto& e : m.ex_table) {
      if (look >= e.from_pc && look < e.to_pc &&
          (e.ex_class == bc::kAnyClass || e.ex_class == ex_cls)) {
        const DecodedMethod& dm = decoded_->methods[f.method];
        SOD_CHECK(dm.max_stack >= 1, "exception handler without operand room in " + m.name);
        f.sp = f.base + dm.num_locals;
        th.stack[f.sp++] = Value::of_ref(ex);
        f.pc = e.handler_pc;
        return true;
      }
    }
    th.frames.pop_back();
    if (!th.frames.empty()) {
      // Caller's pc is the return address; the INVOKE instruction that is
      // conceptually "throwing" sits just before it.
      look = th.frames.back().pc - 1;
    }
  }
  th.uncaught = ex;
  finish(th, ThreadStatus::Crashed);
  return false;
}

void VM::raise_in_thread(int tid, uint16_t ex_cls, std::string_view msg) {
  GuestThread& th = thread(tid);
  SOD_CHECK(th.status == ThreadStatus::Ready && !th.frames.empty(),
            "raise_in_thread on non-runnable thread");
  Ref ex = make_exception(ex_cls, msg);
  dispatch_exception(th, ex, th.frames.back().pc);
}

RunResult VM::run(int tid, uint64_t budget) {
  GuestThread& th = thread(tid);
  if (th.status == ThreadStatus::Done) return {StopReason::Done, 0};
  if (th.status == ThreadStatus::Crashed) return {StopReason::Crashed, 0};
  return loop(th, budget);
}

// Dispatch plumbing shared by both interpreter modes.  Handlers are written
// once; VM_LABEL (VM_FUSED for a bc::fused op) expands to a goto label
// (direct-threaded) or a case label (switch loop, which switches on the
// op's byte because fused ops are not bc::Op enumerators).
// VM_DISPATCH_PLAIN runs a fused entry's first instruction alone.  Every
// handler ends in VM_NEXT()/VM_JUMP(), which run the fast prologue:
// re-check only what a handler can change (budget, debug mode) and
// dispatch the pre-decoded entry at the new pc.  An exhausted budget
// writes the top frame's pc and sp back and goes to vm_top, the full
// prologue that also re-seats the registers from the thread (on entry and
// after an exception).  Debug mode goes to vm_check for the breakpoint and
// safepoint checks, which write the registers back only when they stop.
// INVOKE and RETURN re-seat the registers themselves.  A pc past the code
// or inside an instruction lands on vm_bad_pc.
#if SOD_COMPUTED_GOTO
#define VM_LABEL(name) h_##name
#define VM_FUSED(name) h_##name
#define VM_DISPATCH() goto* kJump[static_cast<size_t>(in.op)]
#define VM_DISPATCH_PLAIN() goto* kPlain[static_cast<size_t>(in.op)]
#else
#define VM_LABEL(name) case static_cast<uint8_t>(Op::name)
#define VM_FUSED(name) case static_cast<uint8_t>(bc::fused::name)
#define VM_DISPATCH() goto vm_switch
#define VM_DISPATCH_PLAIN()        \
  do {                             \
    in.op = bc::plain_op(in.op);   \
    goto vm_switch;                \
  } while (0)
#endif
#define VM_FAST()                    \
  do {                               \
    if (executed >= budget) {        \
      VM_SAVE();                     \
      goto vm_top;                   \
    }                                \
    if (debug_) goto vm_check;       \
    if (pc >= ncode) goto vm_bad_pc; \
    in = ops[pc];                    \
    next = pc + in.size;             \
    ++executed;                      \
    VM_DISPATCH();                   \
  } while (0)
#define VM_NEXT() \
  do {            \
    pc = next;    \
    VM_FAST();    \
  } while (0)
#define VM_JUMP(target) \
  do {                  \
    pc = (target);      \
    VM_FAST();          \
  } while (0)

RunResult VM::loop(GuestThread& th, uint64_t budget) {
  uint64_t executed = 0;
  uint64_t counted = 0;  // part of `executed` already added to instrs_
  const Program& P = *prog_;

  Frame* f = nullptr;
  const DecodedMethod* dm = nullptr;
  const DecodedInstr* ops = nullptr;  // dm->ops, indexed by byte pc
  const uint8_t* code = nullptr;      // dm->code, for immediates
  uint32_t ncode = 0;
  uint32_t pc = 0;
  uint32_t next = 0;
  DecodedInstr in{};
  Value* stk = nullptr;     // th.stack.data()
  Value* locals = nullptr;  // stk + f->base
  Value* sp = nullptr;      // next free operand slot of the top frame
#ifndef NDEBUG
  // The top frame's operand area, [locals + num_locals, + max_stack).
  const Value* op_lo = nullptr;
  const Value* op_hi = nullptr;
#define VM_BOUNDS() (op_lo = locals + dm->num_locals, op_hi = op_lo + dm->max_stack)
#else
#define VM_BOUNDS() ((void)0)
#endif

  auto push = [&](Value v) {
    assert(sp < op_hi && "operand push beyond max_stack");
    *sp++ = v;
  };
  auto pop = [&]() {
    assert(sp > op_lo && "operand pop below the frame's locals");
    return *--sp;
  };

  // VM_SAVE writes the top frame's registers back, before anything can
  // observe the frame; VM_COUNT adds the instructions run since the last
  // count to instrs_.
#define VM_SAVE()                            \
  do {                                       \
    f->pc = pc;                              \
    f->sp = static_cast<uint32_t>(sp - stk); \
  } while (0)
#define VM_COUNT()                 \
  do {                             \
    instrs_ += executed - counted; \
    counted = executed;            \
  } while (0)
#define VM_STOP(reason)                    \
  do {                                     \
    VM_COUNT();                            \
    return {StopReason::reason, executed}; \
  } while (0)
  // Point the code registers at `f`'s method.
#define VM_SEAT_CODE()                             \
  do {                                             \
    dm = &decoded_->methods[f->method];            \
    ops = dm->ops.data();                          \
    code = dm->code.data();                        \
    ncode = static_cast<uint32_t>(dm->ops.size()); \
  } while (0)

#define THROW_GUEST(cls, msg)            \
  do {                                   \
    throw_guest((cls), (msg));           \
    goto handle_pending;                 \
  } while (0)

#if SOD_COMPUTED_GOTO
  // One entry per opcode, in bc::Op declaration order, plus kOpCount_:
  // the decoded table's marker for a pc that is not an instruction start,
  // then the bc::fused ops in kSuperinstructions order.
  static const void* const kJump[] = {
      &&h_NOP,        &&h_ICONST,     &&h_DCONST,     &&h_ACONST_NULL, &&h_LDC_STR,
      &&h_ILOAD,      &&h_DLOAD,      &&h_ALOAD,      &&h_ISTORE,      &&h_DSTORE,
      &&h_ASTORE,     &&h_POP,        &&h_DUP,        &&h_SWAP,        &&h_IADD,
      &&h_ISUB,       &&h_IMUL,       &&h_IDIV,       &&h_IREM,        &&h_INEG,
      &&h_ISHL,       &&h_ISHR,       &&h_IAND,       &&h_IOR,         &&h_IXOR,
      &&h_DADD,       &&h_DSUB,       &&h_DMUL,       &&h_DDIV,        &&h_DNEG,
      &&h_I2D,        &&h_D2I,        &&h_DCMP,       &&h_GOTO,        &&h_IFEQ,
      &&h_IFNE,       &&h_IFLT,       &&h_IFLE,       &&h_IFGT,        &&h_IFGE,
      &&h_IF_ICMPEQ,  &&h_IF_ICMPNE,  &&h_IF_ICMPLT,  &&h_IF_ICMPLE,   &&h_IF_ICMPGT,
      &&h_IF_ICMPGE,  &&h_IFNULL,     &&h_IFNONNULL,  &&h_LOOKUPSWITCH, &&h_GETFIELD,
      &&h_PUTFIELD,   &&h_GETSTATIC,  &&h_PUTSTATIC,  &&h_NEW,         &&h_NEWARRAY,
      &&h_IALOAD,     &&h_IASTORE,    &&h_DALOAD,     &&h_DASTORE,     &&h_AALOAD,
      &&h_AASTORE,    &&h_ARRAYLEN,   &&h_INVOKE,     &&h_INVOKENATIVE, &&h_RETURN,
      &&h_IRETURN,    &&h_DRETURN,    &&h_ARETURN,    &&h_THROW,      &&vm_bad_pc,
      &&h_ILOAD_ICONST_ISUB, &&h_ILOAD_ICONST_IF_ICMPGE, &&h_ILOAD_ILOAD_IADD,
  };
  static_assert(sizeof(kJump) / sizeof(kJump[0]) ==
                    static_cast<size_t>(bc::kNumOps) + 1 + bc::kNumFused,
                "jump table out of sync with bc::Op and bc::fused");
  // kJump with each fused op sent to its first instruction's handler.
  static const auto kPlain = [] {
    std::array<const void*, std::size(kJump)> t{};
    for (size_t i = 0; i < t.size(); ++i)
      t[i] = kJump[static_cast<size_t>(bc::plain_op(static_cast<Op>(i)))];
    return t;
  }();
#endif

vm_top:
  // Full prologue.  The top frame's pc and sp are in memory here.
  if (executed >= budget) VM_STOP(Budget);
  if (th.frames.empty()) goto vm_done;

  f = &th.frames.back();
  SOD_CHECK(f->method < decoded_->methods.size(), "bad method id");
  VM_SEAT_CODE();
  pc = f->pc;
  stk = th.stack.data();
  locals = stk + f->base;
  sp = stk + f->sp;
  VM_BOUNDS();

vm_check:
  // Debug-mode checks before every instruction, on the seated registers.
  if (pc >= ncode) goto vm_bad_pc;
  in = ops[pc];
  if (debug_) {
    if (!th.resume_skip_bp && !bps_.empty() && bps_.count(bp_key(f->method, pc))) {
      th.resume_skip_bp = true;
      VM_SAVE();
      VM_STOP(Breakpoint);
    }
    th.resume_skip_bp = false;
    if (safepoint_req_ && (in.flags & DecodedInstr::kMsp) && sp == locals + dm->num_locals) {
      VM_SAVE();
      VM_STOP(SafePoint);
    }
    // Debug mode runs every instruction alone, so these checks see every pc.
    next = pc + in.size;
    ++executed;
    VM_DISPATCH_PLAIN();
  }

  next = pc + in.size;
  ++executed;
  VM_DISPATCH();

#if !SOD_COMPUTED_GOTO
vm_switch:
  switch (static_cast<uint8_t>(in.op)) {
#endif

  VM_LABEL(NOP) : VM_NEXT();

  VM_LABEL(ICONST) : {
    int64_t v;
    std::memcpy(&v, code + pc + 1, 8);
    push(Value::of_i64(v));
    VM_NEXT();
  }
  VM_LABEL(DCONST) : {
    double v;
    std::memcpy(&v, code + pc + 1, 8);
    push(Value::of_f64(v));
    VM_NEXT();
  }
  VM_LABEL(ACONST_NULL) : push(Value::null()); VM_NEXT();
  VM_LABEL(LDC_STR) : push(Value::of_ref(intern_pool_string(static_cast<uint16_t>(in.arg)))); VM_NEXT();

  VM_LABEL(ILOAD) :
  VM_LABEL(DLOAD) :
  VM_LABEL(ALOAD) : push(locals[in.arg]); VM_NEXT();
  VM_LABEL(ISTORE) :
  VM_LABEL(DSTORE) :
  VM_LABEL(ASTORE) : locals[in.arg] = pop(); VM_NEXT();

  VM_LABEL(POP) : pop(); VM_NEXT();
  VM_LABEL(DUP) : {
    assert(sp > op_lo && "dup of an empty operand stack");
    push(sp[-1]);
    VM_NEXT();
  }
  VM_LABEL(SWAP) : {
    assert(sp - 2 >= op_lo && "swap needs two operands");
    std::swap(sp[-1], sp[-2]);
    VM_NEXT();
  }

  VM_LABEL(IADD) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a + b)); VM_NEXT(); }
  VM_LABEL(ISUB) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a - b)); VM_NEXT(); }
  VM_LABEL(IMUL) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a * b)); VM_NEXT(); }
  VM_LABEL(IDIV) : {
    int64_t b = pop().i, a = pop().i;
    if (b == 0) THROW_GUEST(bc::builtin::kArithmetic, "/ by zero");
    // INT64_MIN / -1 wraps to INT64_MIN (Java semantics); negate via
    // unsigned so the wrap is defined instead of UB.
    push(Value::of_i64(b == -1 ? static_cast<int64_t>(-static_cast<uint64_t>(a)) : a / b));
    VM_NEXT();
  }
  VM_LABEL(IREM) : {
    int64_t b = pop().i, a = pop().i;
    if (b == 0) THROW_GUEST(bc::builtin::kArithmetic, "% by zero");
    push(Value::of_i64(b == -1 ? 0 : a % b));
    VM_NEXT();
  }
  // Negate via unsigned so INT64_MIN wraps to itself (Java semantics)
  // instead of being signed-overflow UB.
  VM_LABEL(INEG) : { int64_t a = pop().i; push(Value::of_i64(static_cast<int64_t>(-static_cast<uint64_t>(a)))); VM_NEXT(); }
  VM_LABEL(ISHL) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a << (b & 63))); VM_NEXT(); }
  VM_LABEL(ISHR) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a >> (b & 63))); VM_NEXT(); }
  VM_LABEL(IAND) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a & b)); VM_NEXT(); }
  VM_LABEL(IOR) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a | b)); VM_NEXT(); }
  VM_LABEL(IXOR) : { int64_t b = pop().i, a = pop().i; push(Value::of_i64(a ^ b)); VM_NEXT(); }

  VM_LABEL(DADD) : { double b = pop().d, a = pop().d; push(Value::of_f64(a + b)); VM_NEXT(); }
  VM_LABEL(DSUB) : { double b = pop().d, a = pop().d; push(Value::of_f64(a - b)); VM_NEXT(); }
  VM_LABEL(DMUL) : { double b = pop().d, a = pop().d; push(Value::of_f64(a * b)); VM_NEXT(); }
  VM_LABEL(DDIV) : { double b = pop().d, a = pop().d; push(Value::of_f64(a / b)); VM_NEXT(); }
  VM_LABEL(DNEG) : { double a = pop().d; push(Value::of_f64(-a)); VM_NEXT(); }

  VM_LABEL(I2D) : { int64_t a = pop().i; push(Value::of_f64(static_cast<double>(a))); VM_NEXT(); }
  VM_LABEL(D2I) : { double a = pop().d; push(Value::of_i64(static_cast<int64_t>(a))); VM_NEXT(); }
  VM_LABEL(DCMP) : {
    double b = pop().d, a = pop().d;
    push(Value::of_i64(a < b ? -1 : (a > b ? 1 : 0)));
    VM_NEXT();
  }

  VM_LABEL(GOTO) : VM_JUMP(in.arg);
  VM_LABEL(IFEQ) : { if (pop().i == 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFNE) : { if (pop().i != 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFLT) : { if (pop().i < 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFLE) : { if (pop().i <= 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFGT) : { if (pop().i > 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFGE) : { if (pop().i >= 0) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPEQ) : { int64_t b = pop().i, a = pop().i; if (a == b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPNE) : { int64_t b = pop().i, a = pop().i; if (a != b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPLT) : { int64_t b = pop().i, a = pop().i; if (a < b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPLE) : { int64_t b = pop().i, a = pop().i; if (a <= b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPGT) : { int64_t b = pop().i, a = pop().i; if (a > b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IF_ICMPGE) : { int64_t b = pop().i, a = pop().i; if (a >= b) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFNULL) : { if (pop().r == bc::kNull) VM_JUMP(in.arg); VM_NEXT(); }
  VM_LABEL(IFNONNULL) : { if (pop().r != bc::kNull) VM_JUMP(in.arg); VM_NEXT(); }

  VM_LABEL(LOOKUPSWITCH) : {
    int64_t key = pop().i;
    // No owning local here: leaving a handler by computed goto runs no
    // destructors, so a decoded SwitchInfo would leak.
    VM_JUMP(bc::switch_target(dm->code, pc, key));
  }

  VM_LABEL(GETFIELD) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r))
      THROW_GUEST(bc::builtin::kNullPointer, fd.name);
    push(heap_.obj(r).fields[fd.slot]);
    VM_NEXT();
  }
  VM_LABEL(PUTFIELD) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    Value v = pop();
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r))
      THROW_GUEST(bc::builtin::kNullPointer, fd.name);
    heap_.obj(r).fields[fd.slot] = v;
    VM_NEXT();
  }
  VM_LABEL(GETSTATIC) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    ensure_loaded(fd.owner);
    push(rt_[fd.owner].statics[fd.slot]);
    VM_NEXT();
  }
  VM_LABEL(PUTSTATIC) : {
    const bc::Field& fd = P.field(static_cast<uint16_t>(in.arg));
    ensure_loaded(fd.owner);
    rt_[fd.owner].statics[fd.slot] = pop();
    VM_NEXT();
  }

  VM_LABEL(NEW) : {
    uint16_t cid = static_cast<uint16_t>(in.arg);
    ensure_loaded(cid);
    Ref r = heap_.alloc_obj(cid, rt_[cid].inst_types);
    if (r == bc::kNull) THROW_GUEST(bc::builtin::kOutOfMemory, P.cls(cid).name);
    push(Value::of_ref(r));
    VM_NEXT();
  }
  VM_LABEL(NEWARRAY) : {
    int64_t n = pop().i;
    if (n < 0) THROW_GUEST(bc::builtin::kIndexOutOfBounds, "negative array size");
    Ref r;
    switch (static_cast<Ty>(in.arg)) {
      case Ty::I64: r = heap_.alloc_arr_i(static_cast<size_t>(n)); break;
      case Ty::F64: r = heap_.alloc_arr_d(static_cast<size_t>(n)); break;
      case Ty::Ref: r = heap_.alloc_arr_r(static_cast<size_t>(n)); break;
      default: SOD_UNREACHABLE("bad array type");
    }
    if (r == bc::kNull) THROW_GUEST(bc::builtin::kOutOfMemory, "array");
    push(Value::of_ref(r));
    VM_NEXT();
  }

  VM_LABEL(IALOAD) : {
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "iaload");
    auto& a = heap_.arr_i(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "iaload");
    push(Value::of_i64(a.v[static_cast<size_t>(i)]));
    VM_NEXT();
  }
  VM_LABEL(IASTORE) : {
    int64_t v = pop().i;
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "iastore");
    auto& a = heap_.arr_i(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "iastore");
    a.v[static_cast<size_t>(i)] = v;
    VM_NEXT();
  }
  VM_LABEL(DALOAD) : {
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "daload");
    auto& a = heap_.arr_d(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "daload");
    push(Value::of_f64(a.v[static_cast<size_t>(i)]));
    VM_NEXT();
  }
  VM_LABEL(DASTORE) : {
    double v = pop().d;
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "dastore");
    auto& a = heap_.arr_d(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "dastore");
    a.v[static_cast<size_t>(i)] = v;
    VM_NEXT();
  }
  VM_LABEL(AALOAD) : {
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "aaload");
    auto& a = heap_.arr_r(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "aaload");
    push(Value::of_ref(a.v[static_cast<size_t>(i)]));
    VM_NEXT();
  }
  VM_LABEL(AASTORE) : {
    Ref v = pop().r;
    int64_t i = pop().i;
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "aastore");
    auto& a = heap_.arr_r(r);
    if (i < 0 || static_cast<size_t>(i) >= a.v.size())
      THROW_GUEST(bc::builtin::kIndexOutOfBounds, "aastore");
    a.v[static_cast<size_t>(i)] = v;
    VM_NEXT();
  }
  VM_LABEL(ARRAYLEN) : {
    Ref r = pop().r;
    if (r == bc::kNull || heap_.is_stub(r)) THROW_GUEST(bc::builtin::kNullPointer, "arraylen");
    const Cell& c = heap_.cell(r);
    size_t n = 0;
    if (const auto* ai = std::get_if<ArrICell>(&c)) n = ai->v.size();
    else if (const auto* ad = std::get_if<ArrDCell>(&c)) n = ad->v.size();
    else if (const auto* ar = std::get_if<ArrRCell>(&c)) n = ar->v.size();
    else if (const auto* s = std::get_if<StrCell>(&c)) n = s->s.size();
    else SOD_UNREACHABLE("arraylen of non-array");
    push(Value::of_i64(static_cast<int64_t>(n)));
    VM_NEXT();
  }

  VM_LABEL(INVOKE) : {
    const uint16_t mid = static_cast<uint16_t>(in.arg);
    SOD_CHECK(mid < decoded_->methods.size(), "bad method id");
    const DecodedMethod& callee = decoded_->methods[mid];
    if (callee.code.empty()) SOD_UNREACHABLE("invoke of bodyless method " + P.method(mid).name);
    if (th.frames.size() >= cfg_.max_frames)
      SOD_UNREACHABLE("guest stack overflow in " + P.method(mid).name);
    ensure_loaded(callee.owner);
    // The arguments on top of the caller's operands become the callee's
    // first locals in place; the caller resumes with them popped.
    assert(sp - callee.num_params >= op_lo && "invoke arguments missing");
    const auto base = static_cast<uint32_t>(sp - stk) - callee.num_params;
    f->pc = next;  // return address
    f->sp = base;
    const size_t need = size_t{base} + callee.num_locals + callee.max_stack;
    if (need > th.stack.size()) {
      grow_stack(th, need);
      stk = th.stack.data();
    }
    locals = stk + base;
    std::copy(callee.zero_locals.begin() + callee.num_params, callee.zero_locals.end(),
              locals + callee.num_params);
    sp = locals + callee.num_locals;
    f = &th.frames.emplace_back(Frame{mid, 0, base, base + callee.num_locals});
    VM_SEAT_CODE();
    VM_BOUNDS();
    VM_JUMP(0);
  }

  VM_LABEL(INVOKENATIVE) : {
    const bc::NativeDecl& nd = P.natives[in.arg];
    const NativeFn& fn = native_fn(static_cast<uint16_t>(in.arg));
    const size_t np = nd.params.size();
    assert(sp - np >= op_lo && "native arguments missing");
    sp -= np;
    // The native sees its arguments in place and the frame without them.
    VM_SAVE();
    VM_COUNT();
    native_frame_ = f;
    native_tid_ = th.id;
    Value ret = fn(*this, std::span<Value>(sp, np));
    native_frame_ = nullptr;
    native_tid_ = -1;
    if (pending_) goto handle_pending;
    if (nd.ret != Ty::Void) {
      SOD_CHECK(ret.tag == nd.ret, "native returned wrong type: " + nd.name);
      // Natives cannot push frames, so the stack and frame are unmoved.
      push(ret);
    }
    VM_NEXT();
  }

  VM_LABEL(RETURN) :
  VM_LABEL(IRETURN) :
  VM_LABEL(DRETURN) :
  VM_LABEL(ARETURN) : {
    Value rv{};
    const bool has = in.op != Op::RETURN;
    if (has) rv = pop();
    th.frames.pop_back();
    if (th.frames.empty()) {
      th.result = rv;
      finish(th, ThreadStatus::Done);
      VM_STOP(Done);
    }
    // The caller's sp is the callee's base: popping truncates the stack.
    f = &th.frames.back();
    VM_SEAT_CODE();
    locals = stk + f->base;
    sp = stk + f->sp;
    VM_BOUNDS();
    if (has) push(rv);
    VM_JUMP(f->pc);
  }

  VM_LABEL(THROW) : {
    Ref ex = pop().r;
    if (ex == bc::kNull || heap_.is_stub(ex))
      THROW_GUEST(bc::builtin::kNullPointer, "throw null");
    VM_SAVE();
    VM_COUNT();
    if (!dispatch_exception(th, ex, pc)) VM_STOP(Crashed);
    goto vm_top;
  }

  // Superinstructions (see bc::kSuperinstructions).  `next` is past the
  // leading ILOAD.  A fused handler runs its whole sequence only when the
  // budget has room for the two later instructions, and counts them;
  // otherwise the leading instruction runs alone.  Either way a budget
  // stop lands on the same instruction count, so checkpoint chunks and
  // virtual time do not depend on fusion.
  VM_FUSED(ILOAD_ICONST_ISUB) : {
    if (budget - executed < 2) VM_DISPATCH_PLAIN();
    executed += 2;
    int64_t k;
    std::memcpy(&k, code + next + 1, 8);
    push(Value::of_i64(locals[in.arg].i - k));
    VM_JUMP(next + kIconstSize + 1);
  }
  VM_FUSED(ILOAD_ICONST_IF_ICMPGE) : {
    if (budget - executed < 2) VM_DISPATCH_PLAIN();
    executed += 2;
    int64_t k;
    std::memcpy(&k, code + next + 1, 8);
    const DecodedInstr& br = ops[next + kIconstSize];
    if (locals[in.arg].i >= k) VM_JUMP(br.arg);
    VM_JUMP(next + kIconstSize + br.size);
  }
  VM_FUSED(ILOAD_ILOAD_IADD) : {
    if (budget - executed < 2) VM_DISPATCH_PLAIN();
    executed += 2;
    const DecodedInstr& second = ops[next];
    push(Value::of_i64(locals[in.arg].i + locals[second.arg].i));
    VM_JUMP(next + second.size + 1);
  }

#if !SOD_COMPUTED_GOTO
  default: goto vm_bad_pc;  // kOpCount_: not an instruction start
  }
  SOD_UNREACHABLE("fell out of dispatch switch");
#endif

vm_bad_pc: {
  // Built piecewise: `"lit" + std::string` trips gcc 12's -Wrestrict false
  // positive (PR 105651) under -O2.
  std::string msg("pc ");
  msg += std::to_string(pc);
  msg += " is not an instruction start in ";
  msg += P.method(f->method).name;
  SOD_UNREACHABLE(msg);
}

handle_pending: {
  SOD_CHECK(pending_, "handle_pending without pending exception");
  pending_ = false;
  VM_SAVE();
  VM_COUNT();
  Ref ex = make_exception(pending_cls_, pending_msg_);
  if (!dispatch_exception(th, ex, pc)) VM_STOP(Crashed);
  goto vm_top;
}

vm_done:
  finish(th, ThreadStatus::Done);
  VM_COUNT();
  return {StopReason::Done, 0};

#undef THROW_GUEST
#undef VM_SEAT_CODE
#undef VM_STOP
#undef VM_COUNT
#undef VM_SAVE
#undef VM_BOUNDS
#undef VM_LABEL
#undef VM_FUSED
#undef VM_DISPATCH_PLAIN
#undef VM_DISPATCH
#undef VM_FAST
#undef VM_NEXT
#undef VM_JUMP
}

}  // namespace sod::svm
