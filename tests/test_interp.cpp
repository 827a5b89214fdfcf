// Interpreter semantics: arithmetic, control flow, locals, recursion,
// arrays, objects, statics, strings, natives, budget and safepoint stops;
// the pre-decoded dispatch table, its superinstructions and the
// per-thread value stack.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/apps.h"
#include "prep/prep.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using bc::Op;
using svm::StopReason;
using svm::ThreadStatus;

bc::Program arith_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("M");
  // iops(a, b) = ((a+b)*(a-b)) % (b|1) + (a/(b|1)) - (-a ^ (a&b)) + (a<<1) + (b>>1)
  auto& f = c.method("iops", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt()
      .iload("a").iload("b").iadd()
      .iload("a").iload("b").isub()
      .imul()
      .iload("b").iconst(1).ior()
      .irem()
      .iload("a").iload("b").iconst(1).ior().idiv()
      .iadd()
      .iload("a").ineg()
      .iload("a").iload("b").iand()
      .ixor()
      .isub()
      .iload("a").iconst(1).ishl().iadd()
      .iload("b").iconst(1).ishr().iadd()
      .iret();
  // dops(x, y) = (x+y)*(x-y)/(y) - (-x)
  auto& g = c.method("dops", {{"x", Ty::F64}, {"y", Ty::F64}}, Ty::F64);
  g.stmt()
      .dload("x").dload("y").dadd()
      .dload("x").dload("y").dsub()
      .dmul()
      .dload("y").ddiv()
      .dload("x").dneg()
      .dsub()
      .dret();
  // conv(a) = (i64)((f64)a * 1.5)
  auto& h = c.method("conv", {{"a", Ty::I64}}, Ty::I64);
  h.stmt().iload("a").i2d().dconst(1.5).dmul().d2i().iret();
  return pb.build();
}

int64_t iops_ref(int64_t a, int64_t b) {
  return ((a + b) * (a - b)) % (b | 1) + a / (b | 1) - ((-a) ^ (a & b)) + (a << 1) + (b >> 1);
}

TEST(Interp, IntegerArithmetic) {
  auto p = arith_program();
  for (auto [a, b] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 0}, {1, 2}, {17, 5}, {-9, 4}, {1000000, 3}, {-7, -13}}) {
    EXPECT_EQ(run1(p, "M.iops", {Value::of_i64(a), Value::of_i64(b)}).as_i64(), iops_ref(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(Interp, FloatArithmetic) {
  auto p = arith_program();
  double x = 3.5, y = 2.0;
  double want = (x + y) * (x - y) / y - (-x);
  EXPECT_DOUBLE_EQ(run1(p, "M.dops", {Value::of_f64(x), Value::of_f64(y)}).as_f64(), want);
}

TEST(Interp, Conversions) {
  auto p = arith_program();
  EXPECT_EQ(run1(p, "M.conv", {Value::of_i64(7)}).as_i64(), 10);
  EXPECT_EQ(run1(p, "M.conv", {Value::of_i64(-8)}).as_i64(), -12);
}

TEST(Interp, DivisionByZeroThrows) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("div", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt().iload("a").iload("b").idiv().iret();
  auto p = pb.build();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.div"), std::vector<Value>{Value::of_i64(1), Value::of_i64(0)});
  auto rr = vm.run(tid);
  EXPECT_EQ(rr.reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kArithmetic);
}

TEST(Interp, Int64MinDivMinusOne) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("div", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt().iload("a").iload("b").idiv().iret();
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.div", {Value::of_i64(INT64_MIN), Value::of_i64(-1)}).as_i64(), INT64_MIN);
}

TEST(Interp, RecursionFib) {
  auto p = fib_program();
  for (int64_t n : {0, 1, 2, 5, 10, 20}) {
    EXPECT_EQ(run1(p, "Main.fib", {Value::of_i64(n)}).as_i64(), fib_ref(n)) << n;
  }
}

TEST(Interp, LoopsViaBranches) {
  // sum 1..n with a while loop
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("sum", {{"n", Ty::I64}}, Ty::I64);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::I64);
  Label head = f.label(), done = f.label();
  f.stmt().iconst(1).istore(i);
  f.stmt().iconst(0).istore(s);
  f.bind(head).stmt().iload(i).iload("n").if_icmpgt(done);
  f.stmt().iload(s).iload(i).iadd().istore(s);
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(head);
  f.bind(done).stmt().iload(s).iret();
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.sum", {Value::of_i64(100)}).as_i64(), 5050);
  EXPECT_EQ(run1(p, "M.sum", {Value::of_i64(0)}).as_i64(), 0);
}

TEST(Interp, LookupSwitch) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("sw", {{"k", Ty::I64}}, Ty::I64);
  Label c1 = f.label(), c2 = f.label(), dflt = f.label();
  f.stmt().iload("k").lookupswitch(dflt, {{10, c1}, {20, c2}});
  f.bind(c1).stmt().iconst(111).iret();
  f.bind(c2).stmt().iconst(222).iret();
  f.bind(dflt).stmt().iconst(-1).iret();
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.sw", {Value::of_i64(10)}).as_i64(), 111);
  EXPECT_EQ(run1(p, "M.sw", {Value::of_i64(20)}).as_i64(), 222);
  EXPECT_EQ(run1(p, "M.sw", {Value::of_i64(99)}).as_i64(), -1);
}

TEST(Interp, ArraysAndBoundsChecks) {
  ProgramBuilder pb;
  auto& c = pb.cls("M");
  // rev_sum(n): fill arr[i]=i*i, then sum in reverse
  auto& f = c.method("rev_sum", {{"n", Ty::I64}}, Ty::I64);
  uint16_t a = f.local("a", Ty::Ref);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::I64);
  Label h1 = f.label(), d1 = f.label(), h2 = f.label(), d2 = f.label();
  f.stmt().iload("n").newarray(Ty::I64).astore(a);
  f.stmt().iconst(0).istore(i);
  f.bind(h1).stmt().iload(i).iload("n").if_icmpge(d1);
  f.stmt().aload(a).iload(i).iload(i).iload(i).imul().iastore();
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h1);
  f.bind(d1).stmt().iload("n").iconst(1).isub().istore(i);
  f.stmt().iconst(0).istore(s);
  f.bind(h2).stmt().iload(i).iconst(0).if_icmplt(d2);
  f.stmt().iload(s).aload(a).iload(i).iaload().iadd().istore(s);
  f.stmt().iload(i).iconst(1).isub().istore(i);
  f.stmt().go(h2);
  f.bind(d2).stmt().iload(s).iret();
  // oob(): read past the end
  auto& g = c.method("oob", {}, Ty::I64);
  uint16_t b = g.local("b", Ty::Ref);
  g.stmt().iconst(3).newarray(Ty::I64).astore(b);
  g.stmt().aload(b).iconst(3).iaload().iret();
  auto p = pb.build();

  EXPECT_EQ(run1(p, "M.rev_sum", {Value::of_i64(10)}).as_i64(), 285);

  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.oob"), {});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kIndexOutOfBounds);
}

TEST(Interp, DoubleArrays) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("dsum", {{"n", Ty::I64}}, Ty::F64);
  uint16_t a = f.local("a", Ty::Ref);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::F64);
  Label h = f.label(), d = f.label(), h2 = f.label(), d2 = f.label();
  f.stmt().iload("n").newarray(Ty::F64).astore(a);
  f.stmt().iconst(0).istore(i);
  f.bind(h).stmt().iload(i).iload("n").if_icmpge(d);
  f.stmt().aload(a).iload(i).iload(i).i2d().dconst(0.5).dmul().dastore();
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h);
  f.bind(d).stmt().dconst(0).dstore(s);
  f.stmt().iconst(0).istore(i);
  f.bind(h2).stmt().iload(i).iload("n").if_icmpge(d2);
  f.stmt().dload(s).aload(a).iload(i).daload().dadd().dstore(s);
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h2);
  f.bind(d2).stmt().dload(s).dret();
  auto p = pb.build();
  EXPECT_DOUBLE_EQ(run1(p, "M.dsum", {Value::of_i64(10)}).as_f64(), 22.5);
}

bc::Program object_program() {
  ProgramBuilder pb;
  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  pt.field("y", Ty::I64);
  auto& gx = pt.method("getX", {{"this", Ty::Ref}}, Ty::I64);
  gx.stmt().aload("this").getfield("Point.x").iret();

  auto& m = pb.cls("M");
  m.field("count", Ty::I64, /*is_static=*/true);
  auto& f = m.method("use", {{"a", Ty::I64}}, Ty::I64);
  uint16_t pslot = f.local("p", Ty::Ref);
  uint16_t t = f.local("t", Ty::I64);
  f.stmt().new_("Point").astore(pslot);
  f.stmt().aload(pslot).iload("a").putfield("Point.x");
  f.stmt().aload(pslot).iconst(7).putfield("Point.y");
  f.stmt().aload(pslot).invoke("Point.getX").istore(t);
  f.stmt().getstatic("M.count").iconst(1).iadd().putstatic("M.count");
  f.stmt().iload(t).aload(pslot).getfield("Point.y").iadd().getstatic("M.count").iadd().iret();
  return pb.build();
}

TEST(Interp, ObjectsFieldsAndStatics) {
  auto p = object_program();
  svm::VM vm(p, nullptr);
  // First call: count becomes 1 -> 5 + 7 + 1
  EXPECT_EQ(vm.call("M.use", std::vector<Value>{Value::of_i64(5)}).as_i64(), 13);
  // Statics persist within the VM: second call sees count == 2.
  EXPECT_EQ(vm.call("M.use", std::vector<Value>{Value::of_i64(5)}).as_i64(), 14);
}

TEST(Interp, GetfieldOnNullThrowsNPE) {
  ProgramBuilder pb;
  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  auto& f = pb.cls("M").method("npe", {}, Ty::I64);
  uint16_t pslot = f.local("p", Ty::Ref);
  f.stmt().aconst_null().astore(pslot);
  f.stmt().aload(pslot).getfield("Point.x").iret();
  auto p = pb.build();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.npe"), {});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kNullPointer);
  EXPECT_EQ(vm.exception_message(vm.thread(tid).uncaught), "Point.x");
}

TEST(Interp, GuestTryCatch) {
  // try { throw ArithmeticException (via 1/0) } catch -> return 42
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("t", {}, Ty::I64);
  uint16_t tmp = f.local("tmp", Ty::I64);
  Label handler = f.label(), end = f.label();
  uint32_t from = f.here();
  f.stmt().iconst(1).iconst(0).idiv().istore(tmp);
  f.stmt().iload(tmp).iret();
  uint32_t to = f.here();
  f.bind(handler);
  f.pop().stmt().iconst(42).iret();
  f.bind(end);
  f.ex_entry(from, to, handler, bc::builtin::kArithmetic);
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.t", {}).as_i64(), 42);
}

TEST(Interp, ExceptionPropagatesThroughFrames) {
  // inner() divides by zero; outer catches.
  ProgramBuilder pb;
  auto& c = pb.cls("M");
  auto& inner = c.method("inner", {}, Ty::I64);
  inner.stmt().iconst(1).iconst(0).idiv().iret();
  auto& outer = c.method("outer", {}, Ty::I64);
  uint16_t t = outer.local("t", Ty::I64);
  Label h = outer.label();
  uint32_t from = outer.here();
  outer.stmt().invoke("M.inner").istore(t);
  outer.stmt().iload(t).iret();
  uint32_t to = outer.here();
  outer.bind(h).pop().stmt().iconst(-5).iret();
  outer.ex_entry(from, to, h, bc::kAnyClass);
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.outer", {}).as_i64(), -5);
}

TEST(Interp, ThrowAndCatchGuestObject) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("t", {{"k", Ty::I64}}, Ty::I64);
  Label h = f.label(), nothrow = f.label();
  uint32_t from = f.here();
  f.stmt().iload("k").ifeq(nothrow);
  f.stmt().new_("ArithmeticException").throw_();
  f.bind(nothrow).stmt().iconst(1).iret();
  uint32_t to = f.here();
  f.bind(h).pop().stmt().iconst(2).iret();
  f.ex_entry(from, to, h, bc::builtin::kArithmetic);
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.t", {Value::of_i64(0)}).as_i64(), 1);
  EXPECT_EQ(run1(p, "M.t", {Value::of_i64(1)}).as_i64(), 2);
}

TEST(Interp, NativesAndStrings) {
  ProgramBuilder pb;
  svm::declare_stdlib(pb);
  auto& f = pb.cls("M").method("go", {}, Ty::I64);
  uint16_t s = f.local("s", Ty::Ref);
  uint16_t at = f.local("at", Ty::I64);
  f.stmt().ldc_str("hello world").astore(s);
  f.stmt().aload(s).invokenative("sys.print_str");
  f.stmt().iconst(42).invokenative("sys.print_i64");
  f.stmt().aload(s).ldc_str("world").iconst(0).invokenative("str.find").istore(at);
  f.stmt().iload(at).iret();
  auto p = pb.build();

  svm::NativeRegistry reg;
  svm::StdLib lib;
  lib.install(reg);
  svm::VM vm(p, &reg);
  EXPECT_EQ(vm.call("M.go", {}).as_i64(), 6);
  EXPECT_EQ(lib.out(), "hello world\n42\n");
}

TEST(Interp, BudgetPausesAndResumes) {
  auto p = fib_program();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("Main.fib"), std::vector<Value>{Value::of_i64(18)});
  int pauses = 0;
  while (true) {
    auto rr = vm.run(tid, 100);
    if (rr.reason == StopReason::Done) break;
    ASSERT_EQ(rr.reason, StopReason::Budget);
    ++pauses;
    ASSERT_LT(pauses, 1000000);
  }
  EXPECT_GT(pauses, 10);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), fib_ref(18));
}

TEST(Interp, BreakpointFiresOnlyInDebugMode) {
  auto p = fib_program();
  uint16_t mid = p.find_method("Main.fib");
  {
    svm::VM vm(p, nullptr);
    vm.add_breakpoint(mid, 0);
    int tid = vm.spawn(mid, std::vector<Value>{Value::of_i64(10)});
    EXPECT_EQ(vm.run(tid).reason, StopReason::Done);  // fast mode ignores bps
  }
  {
    svm::VM vm(p, nullptr);
    vm.set_debug_mode(true);
    vm.add_breakpoint(mid, 0);
    int tid = vm.spawn(mid, std::vector<Value>{Value::of_i64(10)});
    auto rr = vm.run(tid);
    EXPECT_EQ(rr.reason, StopReason::Breakpoint);
    EXPECT_EQ(vm.thread(tid).frames.back().pc, 0u);
    // Resuming skips the breakpoint we stopped on, then hits it again on
    // the next recursive call.
    rr = vm.run(tid);
    EXPECT_EQ(rr.reason, StopReason::Breakpoint);
    EXPECT_EQ(vm.thread(tid).frames.size(), 2u);
    // Remove and finish.
    vm.remove_breakpoint(mid, 0);
    EXPECT_EQ(vm.run(tid).reason, StopReason::Done);
    EXPECT_EQ(vm.thread(tid).result.as_i64(), fib_ref(10));
  }
}

TEST(Interp, SafepointPause) {
  auto p = fib_program();
  uint16_t mid = p.find_method("Main.fib");
  svm::VM vm(p, nullptr);
  vm.set_debug_mode(true);
  int tid = vm.spawn(mid, std::vector<Value>{Value::of_i64(12)});
  // Run a little, then request a safepoint pause.
  auto rr = vm.run(tid, 50);
  ASSERT_EQ(rr.reason, StopReason::Budget);
  vm.request_safepoint(true);
  rr = vm.run(tid);
  ASSERT_EQ(rr.reason, StopReason::SafePoint);
  const auto& f = vm.thread(tid).frames.back();
  EXPECT_TRUE(p.method(f.method).is_stmt_start(f.pc));
  EXPECT_EQ(f.sp, f.base + vm.decoded().methods[f.method].num_locals);  // no operands
  // Clear the request; execution completes normally.
  vm.request_safepoint(false);
  EXPECT_EQ(vm.run(tid).reason, StopReason::Done);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), fib_ref(12));
}

TEST(Interp, RaiseInThreadTriggersHandler) {
  // Method with a catch-all handler that returns 77; raise an exception
  // externally at entry (the restore driver's mechanism).
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("t", {}, Ty::I64);
  Label h = f.label();
  uint32_t from = f.here();
  f.stmt().iconst(1).iret();
  uint32_t to = f.here();
  f.bind(h).pop().stmt().iconst(77).iret();
  f.ex_entry(from, to, h, bc::builtin::kInvalidState);
  auto p = pb.build();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.t"), {});
  vm.raise_in_thread(tid, bc::builtin::kInvalidState, "restore");
  EXPECT_EQ(vm.run(tid).reason, StopReason::Done);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), 77);
}

TEST(Interp, HeapLimitTriggersOutOfMemory) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("big", {}, Ty::I64);
  uint16_t a = f.local("a", Ty::Ref);
  f.stmt().iconst(1 << 20).newarray(Ty::I64).astore(a);
  f.stmt().aload(a).arraylen().iret();
  auto p = pb.build();
  svm::VM::Config cfg;
  cfg.heap_limit_bytes = 1024;  // tiny device heap
  svm::VM vm(p, nullptr, cfg);
  int tid = vm.spawn(p.find_method("M.big"), {});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kOutOfMemory);
}

TEST(Interp, InstructionCounting) {
  auto p = fib_program();
  svm::VM vm(p, nullptr);
  uint64_t before = vm.instr_count();
  vm.call("Main.fib", std::vector<Value>{Value::of_i64(10)});
  EXPECT_GT(vm.instr_count(), before + 100);
}


// --- pre-decoded dispatch table ---

/// Pcs of `m` that control can reach other than by falling through:
/// statement starts, branch and switch targets, exception handlers.
std::vector<bool> entered_pcs(const bc::Method& m) {
  std::vector<bool> entered(m.code.size() + 1, false);
  for (uint32_t s : m.stmt_starts) entered[s] = true;
  for (const bc::ExEntry& e : m.ex_table) entered[e.handler_pc] = true;
  for (uint32_t pc = 0; pc < m.code.size(); pc += bc::instr_size(m.code, pc)) {
    bc::Instr in = bc::decode(m.code, pc);
    if (bc::is_branch(in.op)) entered[in.arg] = true;
    if (in.op == Op::LOOKUPSWITCH) {
      bc::SwitchInfo si = bc::decode_switch(m.code, pc);
      entered[si.default_target] = true;
      for (const auto& [key, tgt] : si.pairs) entered[tgt] = true;
    }
  }
  return entered;
}

TEST(Decoded, TableMatchesDecodeAtEveryInstructionOfEveryTableIApp) {
  int fused_by_kind[bc::kNumFused] = {};
  for (const apps::AppSpec& spec : apps::table1_apps()) {
    bc::Program p = spec.build();
    prep::preprocess_program(p);
    svm::VM vm(p, nullptr);
    const bc::DecodedProgram& dp = vm.decoded();
    ASSERT_EQ(dp.methods.size(), p.methods.size()) << spec.name;
    int starts = 0, msps = 0;
    for (const bc::Method& m : p.methods) {
      const auto& ops = dp.methods[m.id].ops;
      ASSERT_EQ(ops.size(), m.code.size()) << m.name;
      const std::vector<bool> entered = entered_pcs(m);
      uint32_t next_start = 0;
      uint32_t interior_until = 0;  // end of the fused sequence pc is inside
      for (uint32_t pc = 0; pc < m.code.size(); ++pc) {
        const bc::DecodedInstr& e = ops[pc];
        if (pc != next_start) {
          EXPECT_EQ(e.op, Op::kOpCount_) << m.name << " pc " << pc;
          continue;
        }
        bc::Instr in = bc::decode(m.code, pc);
        EXPECT_EQ(bc::plain_op(e.op), in.op) << m.name << " pc " << pc;
        EXPECT_EQ(e.size, in.size) << m.name << " pc " << pc;
        EXPECT_EQ(e.arg, in.arg) << m.name << " pc " << pc;
        const bool msp = (e.flags & bc::DecodedInstr::kMsp) != 0;
        EXPECT_EQ(msp, m.is_stmt_start(pc)) << m.name << " pc " << pc;
        if (pc < interior_until) {
          // Inside a fused sequence: a plain entry nothing jumps to.
          EXPECT_EQ(e.op, in.op) << m.name << " pc " << pc;
          EXPECT_FALSE(entered[pc]) << m.name << " pc " << pc << " is entered mid-sequence";
        } else if (bc::is_fused(e.op)) {
          const auto& sup = bc::kSuperinstructions[static_cast<int>(e.op) - bc::kNumOps - 1];
          EXPECT_EQ(sup.fused, e.op);
          uint32_t at = pc;
          for (Op want : sup.seq) {
            EXPECT_EQ(bc::decode(m.code, at).op, want) << m.name << " pc " << at;
            at += bc::instr_size(m.code, at);
          }
          interior_until = at;
          ++fused_by_kind[static_cast<int>(e.op) - bc::kNumOps - 1];
        }
        ++starts;
        msps += msp ? 1 : 0;
        next_start = pc + in.size;
      }
      EXPECT_EQ(next_start, m.code.size()) << m.name;
    }
    EXPECT_GT(starts, 0) << spec.name;
    EXPECT_GT(msps, 0) << spec.name;
  }
  for (int k = 0; k < bc::kNumFused; ++k) EXPECT_GT(fused_by_kind[k], 0) << "fused op " << k;
}

TEST(Decoded, FusedOpsFollowTheirPatternTable) {
  for (int k = 0; k < bc::kNumFused; ++k) {
    const bc::Superinstruction& s = bc::kSuperinstructions[k];
    EXPECT_EQ(static_cast<int>(s.fused), bc::kNumOps + 1 + k);
    EXPECT_TRUE(bc::is_fused(s.fused));
    EXPECT_EQ(bc::plain_op(s.fused), s.seq[0]);
  }
  for (int op = 0; op <= bc::kNumOps; ++op) {
    EXPECT_FALSE(bc::is_fused(static_cast<Op>(op)));
    EXPECT_EQ(bc::plain_op(static_cast<Op>(op)), static_cast<Op>(op));
  }
}

/// M.f(x): v = x; do v = v - 3 while (v > 0); return v, where the loop's
/// back-edge targets the ICONST of `iload x; iconst 3; isub`.
bc::Program backedge_program() {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("f", {{"x", Ty::I64}}, Ty::I64);
  Label again = f.label();
  f.stmt().iload("x");
  f.bind(again).iconst(3).isub().dup().ifgt(again);
  f.iret();
  return pb.build();
}

TEST(Decoded, BackEdgeIntoASequenceLeavesItUnfused) {
  auto p = backedge_program();
  svm::VM vm(p, nullptr);
  const auto& ops = vm.decoded().methods[p.find_method("M.f")].ops;
  ASSERT_EQ(ops[0].op, Op::ILOAD);  // not fused: pc 3 is a branch target
  ASSERT_EQ(ops[3].op, Op::ICONST);
  for (int64_t x : {-4, 0, 1, 3, 10, 11, 100}) {
    int64_t v = x;
    do v -= 3;
    while (v > 0);
    EXPECT_EQ(vm.call("M.f", std::vector<Value>{Value::of_i64(x)}).as_i64(), v) << x;
  }
  // The same sequence with no branch into it is fused.
  ProgramBuilder pb;
  pb.cls("M").method("g", {{"x", Ty::I64}}, Ty::I64).stmt().iload("x").iconst(3).isub().iret();
  auto q = pb.build();
  svm::VM vq(q, nullptr);
  EXPECT_EQ(vq.decoded().methods[q.find_method("M.g")].ops[0].op, bc::fused::ILOAD_ICONST_ISUB);
  EXPECT_EQ(vq.call("M.g", std::vector<Value>{Value::of_i64(10)}).as_i64(), 7);
}

/// M.f(x, y) = (x - 3) / y, or x + 100 when y == 0: the divide sits in a
/// try range whose ArithmeticException handler is at pc 3, the ICONST of
/// `iload x; iconst 3; isub`, when `handler_mid_sequence`.  A handler there
/// would not verify (it starts with the exception ref on the stack), so the
/// handler pc is patched after the build, and only y != 0 runs it.
bc::Program handler_program(bool handler_mid_sequence) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("f", {{"x", Ty::I64}, {"y", Ty::I64}}, Ty::I64);
  Label caught = f.label();
  f.stmt().iload("x").iconst(3).isub();
  const uint32_t from = f.here();
  f.iload("y").idiv();
  const uint32_t to = f.here();
  f.iret();
  f.bind(caught).pop().stmt().iload("x").iconst(100).iadd().iret();
  f.ex_entry(from, to, caught, bc::builtin::kArithmetic);
  auto p = pb.build();
  if (handler_mid_sequence) p.method_mut(p.find_method("M.f")).ex_table[0].handler_pc = 3;
  return p;
}

TEST(Decoded, HandlerInsideASequenceLeavesItUnfused) {
  auto p = handler_program(false);
  const uint16_t f = p.find_method("M.f");
  svm::VM fused(p, nullptr);
  EXPECT_EQ(fused.decoded().methods[f].ops[0].op, bc::fused::ILOAD_ICONST_ISUB);
  EXPECT_EQ(fused.call("M.f", std::vector<Value>{Value::of_i64(17), Value::of_i64(0)}).as_i64(),
            117);

  auto q = handler_program(true);
  svm::VM plain(q, nullptr);
  EXPECT_EQ(plain.decoded().methods[f].ops[0].op, Op::ILOAD);
  for (int64_t x : {-9, 0, 17, 40})
    for (int64_t y : {-2, 1, 3}) {
      std::vector<Value> args{Value::of_i64(x), Value::of_i64(y)};
      EXPECT_EQ(plain.call("M.f", args).as_i64(), (x - 3) / y) << x << " " << y;
      EXPECT_EQ(fused.call("M.f", args).as_i64(), (x - 3) / y) << x << " " << y;
    }
}

TEST(Decoded, RewrittenHandlerPcGivesALaterVmAFreshTable) {
  auto p = handler_program(false);
  const uint16_t f = p.find_method("M.f");
  svm::VM before(p, nullptr);
  ASSERT_EQ(before.decoded().methods[f].ops[0].op, bc::fused::ILOAD_ICONST_ISUB);

  // Only the handler pc moves, onto the sequence's ICONST: code, statement
  // table and frame header are unchanged.
  p.method_mut(f).ex_table[0].handler_pc = 3;
  EXPECT_FALSE(before.decoded().matches(p));
  svm::VM after(p, nullptr);
  EXPECT_NE(&before.decoded(), &after.decoded());
  EXPECT_TRUE(after.decoded().matches(p));
  EXPECT_EQ(after.decoded().methods[f].ops[0].op, Op::ILOAD);
  EXPECT_EQ(after.decoded().methods[f].handler_pcs, std::vector<uint32_t>{3});
}

/// Budget stops one and two instructions into a fused sequence land on the
/// plain instructions, in fast and in debug mode.
TEST(Decoded, BudgetStopsInsideAFusedSequence) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("f", {{"x", Ty::I64}, {"y", Ty::I64}}, Ty::I64);
  Label big = f.label();
  f.stmt().iload("x").iconst(3).isub().istore("x");      // pcs 0, 3, 12
  f.stmt().iload("x").iload("y").iadd().istore("y");     // pcs 16, 19, 22
  f.stmt().iload("y").iconst(10).if_icmpge(big);         // pcs 26, 29, 38
  f.stmt().iconst(-1).iret();
  f.bind(big).stmt().iload("y").iret();
  auto p = pb.build();
  const uint16_t m = p.find_method("M.f");
  for (bool debug : {false, true}) {
    for (uint64_t first : {1, 2, 3}) {
      svm::VM vm(p, nullptr);
      vm.set_debug_mode(debug);
      ASSERT_EQ(vm.decoded().methods[m].ops[0].op, bc::fused::ILOAD_ICONST_ISUB);
      int tid = vm.spawn(m, std::vector<Value>{Value::of_i64(20), Value::of_i64(1)});
      svm::RunResult rr = vm.run(tid, first);
      ASSERT_EQ(rr.reason, StopReason::Budget);
      EXPECT_EQ(rr.executed, first);
      EXPECT_EQ(vm.instr_count(), first);
      const uint32_t want_pc[] = {0, 3, 12, 13};
      EXPECT_EQ(vm.thread(tid).frames.back().pc, want_pc[first]) << debug;
      // Resume in slices of two: each slice ends one instruction into the
      // next sequence or on its last instruction.
      uint64_t total = first;
      while ((rr = vm.run(tid, 2)).reason == StopReason::Budget) {
        EXPECT_EQ(rr.executed, 2u);
        total += rr.executed;
      }
      ASSERT_EQ(rr.reason, StopReason::Done);
      total += rr.executed;
      EXPECT_EQ(vm.thread(tid).result.as_i64(), 18);
      EXPECT_EQ(vm.instr_count(), 13u);
      EXPECT_EQ(total, 13u);
    }
  }
}

/// M.f() = 5 via `iconst 5; goto L; L: ireturn`, with the GOTO target
/// patched to `target`.
bc::Program goto_program(uint32_t target) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("f", {}, Ty::I64);
  Label l = f.label();
  f.stmt().iconst(5).go(l);
  f.bind(l).iret();
  auto p = pb.build();
  auto& code = p.method_mut(p.find_method("M.f")).code;
  EXPECT_EQ(static_cast<Op>(code[9]), Op::GOTO);
  std::memcpy(code.data() + 10, &target, 4);
  return p;
}

TEST(Decoded, JumpIntoTheMiddleOfAnInstructionPanics) {
  EXPECT_EQ(run1(goto_program(14), "M.f", {}).as_i64(), 5);  // the real target
  EXPECT_DEATH(run1(goto_program(3), "M.f", {}), "pc 3 is not an instruction start in M.f");
  EXPECT_DEATH(run1(goto_program(1000), "M.f", {}), "pc 1000 is not an instruction start");
}

TEST(Decoded, RewrittenCodeGivesALaterVmAFreshTable) {
  ProgramBuilder pb;
  pb.cls("M").method("k", {}, Ty::I64).stmt().iconst(7).iret();
  auto p = pb.build();
  const uint16_t k = p.find_method("M.k");
  svm::VM before(p, nullptr);
  svm::VM twin(p, nullptr);
  EXPECT_EQ(&before.decoded(), &twin.decoded());  // one table per program

  int64_t nine = 9;
  std::memcpy(p.method_mut(k).code.data() + 1, &nine, 8);
  svm::VM after(p, nullptr);
  EXPECT_NE(&before.decoded(), &after.decoded());
  EXPECT_TRUE(after.decoded().matches(p));
  EXPECT_FALSE(before.decoded().matches(p));
  EXPECT_EQ(after.call("M.k", {}).as_i64(), 9);
  // A VM built before the rewrite keeps the table (and code) it started with.
  EXPECT_EQ(before.call("M.k", {}).as_i64(), 7);

  // A real rewrite: preprocessing changes every method's code.
  auto fib = fib_program();
  svm::VM raw(fib, nullptr);
  prep::preprocess_program(fib);
  svm::VM prepped(fib, nullptr);
  EXPECT_NE(&raw.decoded(), &prepped.decoded());
  EXPECT_TRUE(prepped.decoded().matches(fib));
  EXPECT_EQ(prepped.call("Main.fib", std::vector<Value>{Value::of_i64(15)}).as_i64(),
            fib_ref(15));
}

// --- the value stack ---

/// deep(n) fills its locals (i64, f64, ref) and recurses; probe() has the
/// same layout and returns a checksum of its untouched locals, so any
/// value left behind on the stack by an earlier, deeper frame makes it
/// non-zero.
bc::Program recycle_program() {
  ProgramBuilder pb;
  pb.cls("Box").field("v", Ty::I64);
  auto& c = pb.cls("M");
  auto& deep = c.method("deep", {{"n", Ty::I64}}, Ty::I64);
  {
    uint16_t x = deep.local("x", Ty::I64);
    uint16_t d = deep.local("d", Ty::F64);
    uint16_t r = deep.local("r", Ty::Ref);
    Label base = deep.label();
    deep.stmt().iload("n").ifle(base);
    deep.stmt().iload("n").iconst(1000).iadd().istore(x);
    deep.stmt().dconst(2.5).dstore(d);
    deep.stmt().new_("Box").astore(r);
    deep.stmt().iload("n").iconst(1).isub().invoke("M.deep").iload(x).iadd().iret();
    deep.bind(base).stmt().iconst(0).iret();
  }
  auto& probe = c.method("probe", {}, Ty::I64);
  {
    uint16_t x = probe.local("x", Ty::I64);
    uint16_t d = probe.local("d", Ty::F64);
    uint16_t r = probe.local("r", Ty::Ref);
    uint16_t extra = probe.local("extra", Ty::Ref);
    Label null_ok = probe.label(), extra_ok = probe.label();
    probe.stmt().aload(r).ifnull(null_ok);
    probe.stmt().iconst(-1).iret();
    probe.bind(null_ok).stmt().aload(extra).ifnull(extra_ok);
    probe.stmt().iconst(-2).iret();
    probe.bind(extra_ok).stmt().iload(x).dload(d).d2i().iadd().iret();
  }
  auto& main = c.method("main", {{"n", Ty::I64}}, Ty::I64);
  uint16_t t = main.local("t", Ty::I64);
  main.stmt().iload("n").invoke("M.deep").istore(t);
  main.stmt().invoke("M.probe").iret();
  return pb.build();
}

TEST(ValueStack, FramesPushedAfterDeepRecursionStartZeroed) {
  auto p = recycle_program();
  EXPECT_EQ(run1(p, "M.main", {Value::of_i64(40)}).as_i64(), 0);  // fast mode

  // Stop at probe's first instruction and read the frame as capture would.
  const uint16_t probe = p.find_method("M.probe");
  svm::VM vm(p, nullptr);
  vm.set_debug_mode(true);
  vm.add_breakpoint(probe, 0);
  int tid = vm.spawn(p.find_method("M.main"), std::vector<Value>{Value::of_i64(40)});
  ASSERT_EQ(vm.run(tid).reason, StopReason::Breakpoint);
  const auto& frames = vm.thread(tid).frames;
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames.back().method, probe);
  std::span<const Value> locals = vm.frame_locals(tid, 1);
  ASSERT_EQ(locals.size(), 4u);
  EXPECT_TRUE(locals[0].same_as(Value::of_i64(0)));
  EXPECT_TRUE(locals[1].same_as(Value::of_f64(0)));
  EXPECT_TRUE(locals[2].same_as(Value::null()));
  EXPECT_TRUE(locals[3].same_as(Value::null()));
  EXPECT_EQ(frames.back().sp, frames.back().base + 4);  // no operands

  // A second deep call, on a thread that may reuse a finished thread's
  // storage, sees zeroed locals too.
  vm.remove_breakpoint(probe, 0);
  const uint16_t deep = p.find_method("M.deep");
  EXPECT_EQ(vm.call("M.main", std::vector<Value>{Value::of_i64(30)}).as_i64(), 0);
  vm.add_breakpoint(deep, 0);
  int tid2 = vm.spawn(deep, std::vector<Value>{Value::of_i64(3)});
  ASSERT_EQ(vm.run(tid2).reason, StopReason::Breakpoint);
  ASSERT_EQ(vm.run(tid2).reason, StopReason::Breakpoint);
  std::span<const Value> g = vm.frame_locals(tid2, vm.thread(tid2).frames.size() - 1);
  EXPECT_TRUE(g[0].same_as(Value::of_i64(2)));  // the argument
  EXPECT_TRUE(g[1].same_as(Value::of_i64(0)));
  EXPECT_TRUE(g[2].same_as(Value::of_f64(0)));
  EXPECT_TRUE(g[3].same_as(Value::null()));
  vm.clear_breakpoints();
  EXPECT_EQ(vm.run(tid).reason, StopReason::Done);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), 0);
}

/// rec(n, h): locals x = 7n+3, d = n/4, r = new Box{v = x}.  At n == 0 it
/// divides by zero; every frame's handler rethrows unless n == h, where it
/// returns 1000x + 4d + r.v from its own locals.  Frames above h add x.
bc::Program unwind_program() {
  ProgramBuilder pb;
  pb.cls("Box").field("v", Ty::I64);
  auto& f = pb.cls("M").method("rec", {{"n", Ty::I64}, {"h", Ty::I64}}, Ty::I64);
  uint16_t x = f.local("x", Ty::I64);
  uint16_t d = f.local("d", Ty::F64);
  uint16_t r = f.local("r", Ty::Ref);
  uint16_t e = f.local("e", Ty::Ref);
  Label recurse = f.label(), handler = f.label(), rethrow = f.label();
  f.stmt().iload("n").iconst(7).imul().iconst(3).iadd().istore(x);
  f.stmt().iload("n").i2d().dconst(0.25).dmul().dstore(d);
  f.stmt().new_("Box").astore(r);
  f.stmt().aload(r).iload(x).putfield("Box.v");
  f.stmt().iload("n").ifne(recurse);
  f.stmt().iconst(1).iload("n").idiv().iret();
  f.bind(recurse);
  uint32_t from = f.here();
  f.stmt().iload("n").iconst(1).isub().iload("h").invoke("M.rec").iload(x).iadd().iret();
  uint32_t to = f.here();
  f.bind(handler).astore(e);
  f.stmt().iload("n").iload("h").if_icmpne(rethrow);
  f.stmt()
      .iload(x).iconst(1000).imul()
      .dload(d).dconst(4).dmul().d2i().iadd()
      .aload(r).getfield("Box.v").iadd()
      .iret();
  f.bind(rethrow).stmt().aload(e).throw_();
  f.ex_entry(from, to, handler, bc::builtin::kArithmetic);
  return pb.build();
}

int64_t unwind_ref(int64_t n, int64_t h) {
  const int64_t xh = 7 * h + 3;
  int64_t v = xh * 1000 + h + xh;
  for (int64_t k = h + 1; k <= n; ++k) v += 7 * k + 3;
  return v;
}

TEST(ValueStack, GrowsMidCallAndUnwindsAcrossTheGrownRegion) {
  auto p = unwind_program();
  const uint16_t rec = p.find_method("M.rec");
  for (int64_t h : {1, 5, 150, 297}) {
    const std::vector<Value> args{Value::of_i64(300), Value::of_i64(h)};
    EXPECT_EQ(run1(p, "M.rec", args).as_i64(), unwind_ref(300, h)) << "h=" << h;

    // The same run in small budget slices: the stack doubles several times
    // while the recursion deepens, and the frames that survive the unwind
    // keep their locals across every move.
    svm::VM vm(p, nullptr);
    int tid = vm.spawn(rec, args);
    std::vector<size_t> sizes{vm.thread(tid).stack.size()};
    svm::RunResult rr;
    while ((rr = vm.run(tid, 97)).reason == StopReason::Budget) {
      const auto& th = vm.thread(tid);
      if (th.stack.size() != sizes.back()) sizes.push_back(th.stack.size());
      // Every live frame above the bottom has its own locals intact.
      for (size_t i = 0; i < th.frames.size(); ++i) {
        std::span<const Value> l = vm.frame_locals(tid, i);
        const int64_t n = 300 - static_cast<int64_t>(i);
        if (th.frames[i].pc <= p.method(rec).stmt_starts[1]) continue;  // x not set yet
        ASSERT_TRUE(l[2].same_as(Value::of_i64(7 * n + 3))) << "frame " << i;
      }
    }
    ASSERT_EQ(rr.reason, StopReason::Done);
    EXPECT_EQ(vm.thread(tid).result.as_i64(), unwind_ref(300, h)) << "h=" << h;
    EXPECT_GE(sizes.size(), 4u) << "h=" << h;  // grew at least three times
  }

  // Uncaught (h = -1): every handler rethrows and the thread crashes.
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(rec, std::vector<Value>{Value::of_i64(300), Value::of_i64(-1)});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kArithmetic);
}

TEST(ValueStack, NativeReadsItsArgumentSpanAndRaises) {
  ProgramBuilder pb;
  pb.native("t.check", {Ty::I64, Ty::F64, Ty::Ref}, Ty::I64);
  pb.cls("Box").field("v", Ty::I64);
  auto& f = pb.cls("M").method("go", {{"a", Ty::I64}}, Ty::I64);
  uint16_t b = f.local("b", Ty::Ref);
  uint16_t k = f.local("k", Ty::I64);
  Label handler = f.label();
  f.stmt().new_("Box").astore(b);
  f.stmt().iconst(31).istore(k);
  uint32_t from = f.here();
  // 100 sits under the arguments: the native's span must not reach it.
  f.stmt().iconst(100).iload("a").dconst(2.5).aload(b).invokenative("t.check").iadd().iret();
  uint32_t to = f.here();
  f.bind(handler).pop();
  f.stmt().iload(k).iconst(1000).iadd().iret();
  f.ex_entry(from, to, handler, bc::builtin::kArithmetic);
  auto p = pb.build();

  std::vector<std::vector<Value>> seen;
  svm::NativeRegistry reg;
  reg.bind("t.check", [&](svm::VM& vm, std::span<Value> a) {
    seen.emplace_back(a.begin(), a.end());
    if (a[0].i < 0) {
      vm.throw_guest(bc::builtin::kArithmetic, "negative");
      return Value{};
    }
    return Value::of_i64(a[0].i + static_cast<int64_t>(a[1].d * 2));
  });
  svm::VM vm(p, &reg);
  EXPECT_EQ(vm.call("M.go", std::vector<Value>{Value::of_i64(7)}).as_i64(), 112);
  EXPECT_EQ(vm.call("M.go", std::vector<Value>{Value::of_i64(-4)}).as_i64(), 1031);
  ASSERT_EQ(seen.size(), 2u);
  for (size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].size(), 3u);
    EXPECT_TRUE(seen[i][0].same_as(Value::of_i64(i == 0 ? 7 : -4)));
    EXPECT_TRUE(seen[i][1].same_as(Value::of_f64(2.5)));
    EXPECT_EQ(seen[i][2].tag, Ty::Ref);
    EXPECT_NE(seen[i][2].r, bc::kNull);
  }
}

TEST(Decoded, RewrittenFrameHeaderGivesALaterVmAFreshTable) {
  auto p = recycle_program();
  const uint16_t probe = p.find_method("M.probe");
  svm::VM before(p, nullptr);
  ASSERT_EQ(before.decoded().methods[probe].num_locals, 4);

  // Grow probe's locals by one untyped slot: the code is unchanged, but a
  // later VM must size and zero probe's frames from the new header.
  p.method_mut(probe).num_locals = 5;
  EXPECT_FALSE(before.decoded().matches(p));
  svm::VM after(p, nullptr);
  EXPECT_NE(&before.decoded(), &after.decoded());
  EXPECT_TRUE(after.decoded().matches(p));
  const bc::DecodedMethod& dm = after.decoded().methods[probe];
  EXPECT_EQ(dm.num_locals, 5);
  ASSERT_EQ(dm.zero_locals.size(), 5u);
  EXPECT_TRUE(dm.zero_locals[4].same_as(Value::of_i64(0)));
  EXPECT_EQ(after.call("M.main", std::vector<Value>{Value::of_i64(20)}).as_i64(), 0);

  // Each other header field is compared too.
  auto changed = [&](auto edit) {
    auto q = recycle_program();
    svm::VM vm(q, nullptr);
    edit(q.method_mut(q.find_method("M.probe")));
    return !vm.decoded().matches(q);
  };
  EXPECT_TRUE(changed([](bc::Method& m) { ++m.max_stack; }));
  EXPECT_TRUE(changed([](bc::Method& m) { m.owner = 0; }));
  EXPECT_TRUE(changed([](bc::Method& m) { m.params.push_back(Ty::I64); }));
  EXPECT_TRUE(changed([](bc::Method& m) { m.var_table[1].type = Ty::I64; }));
  EXPECT_FALSE(changed([](bc::Method& m) { m.var_table[1].name = "renamed"; }));
}

}  // namespace
}  // namespace sod
