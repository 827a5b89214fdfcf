// Differential property tests: randomly generated guest programs are
// evaluated both by the interpreter and by a host-side reference
// evaluator.  Straight-line expressions and nested calls are also run
// through the flatten pass, which must preserve their results.  Structured
// programs add branches, counted loops, calls (recursion included) and
// field/array traffic; they are also run cut into slices of every budget,
// which must stop on exact instruction counts whatever the interpreter
// fuses.  Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "prep/flatten.h"
#include "support/rng.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using bc::Op;

/// Generates a random expression program over k i64 parameters:
/// emits the same computation into the builder and onto a host-side
/// evaluation stack.
struct ExprGen {
  Rng rng;
  bc::MethodBuilder& f;
  std::vector<int64_t> args;     // parameter values
  std::vector<int64_t> host;     // host evaluation stack

  ExprGen(uint64_t seed, bc::MethodBuilder& fb, std::vector<int64_t> a)
      : rng(seed), f(fb), args(std::move(a)) {}

  void push_leaf() {
    if (rng.below(2) == 0 && !args.empty()) {
      size_t k = rng.below(args.size());
      f.iload(static_cast<uint16_t>(k));
      host.push_back(args[k]);
    } else {
      int64_t v = rng.range(-50, 50);
      f.iconst(v);
      host.push_back(v);
    }
  }

  void combine() {
    int64_t b = host.back();
    host.pop_back();
    int64_t a = host.back();
    host.pop_back();
    switch (rng.below(6)) {
      case 0: f.iadd(); host.push_back(a + b); break;
      case 1: f.isub(); host.push_back(a - b); break;
      case 2: f.imul(); host.push_back(a * b); break;
      case 3: f.iand(); host.push_back(a & b); break;
      case 4: f.ior(); host.push_back(a | b); break;
      default: f.ixor(); host.push_back(a ^ b); break;
    }
  }

  int64_t generate(int ops) {
    f.stmt();
    push_leaf();
    for (int i = 0; i < ops; ++i) {
      if (host.size() < 2 || (rng.below(3) != 0 && host.size() < 6)) push_leaf();
      else combine();
    }
    while (host.size() > 1) combine();
    f.iret();
    return host.back();
  }
};

class RandomExpr : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpr, InterpreterMatchesHostEvaluator) {
  uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  Rng argrng(seed * 7);
  std::vector<int64_t> args = {argrng.range(-100, 100), argrng.range(-100, 100),
                               argrng.range(-100, 100)};

  ProgramBuilder pb;
  auto& f = pb.cls("R").method(
      "e", {{"a", Ty::I64}, {"b", Ty::I64}, {"c", Ty::I64}}, Ty::I64);
  ExprGen gen(seed, f, args);
  int64_t expected = gen.generate(12 + GetParam() % 20);
  auto p = pb.build();

  std::vector<Value> vargs;
  for (int64_t a : args) vargs.push_back(Value::of_i64(a));
  EXPECT_EQ(run1(p, "R.e", vargs).as_i64(), expected) << "seed " << seed;
}

TEST_P(RandomExpr, FlattenPreservesSemantics) {
  uint64_t seed = 5000 + static_cast<uint64_t>(GetParam());
  Rng argrng(seed * 13);
  std::vector<int64_t> args = {argrng.range(-100, 100), argrng.range(-100, 100),
                               argrng.range(-100, 100)};

  ProgramBuilder pb;
  auto& f = pb.cls("R").method(
      "e", {{"a", Ty::I64}, {"b", Ty::I64}, {"c", Ty::I64}}, Ty::I64);
  ExprGen gen(seed, f, args);
  int64_t expected = gen.generate(10 + GetParam() % 25);
  auto p = pb.build();
  prep::flatten_program(p);

  std::vector<Value> vargs;
  for (int64_t a : args) vargs.push_back(Value::of_i64(a));
  EXPECT_EQ(run1(p, "R.e", vargs).as_i64(), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpr, ::testing::Range(0, 25));

/// Random call graphs: chains of helper methods with nested invocations —
/// the flatten pass must extract calls and preserve results.
class RandomCalls : public ::testing::TestWithParam<int> {};

TEST_P(RandomCalls, NestedCallsSurviveFlatten) {
  uint64_t seed = 9000 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  ProgramBuilder pb;
  auto& cls = pb.cls("C");
  // helper_i(x) = x * mi + ci
  int nhelpers = 3 + static_cast<int>(rng.below(3));
  std::vector<int64_t> mult(static_cast<size_t>(nhelpers)), add(static_cast<size_t>(nhelpers));
  for (int i = 0; i < nhelpers; ++i) {
    mult[static_cast<size_t>(i)] = rng.range(1, 5);
    add[static_cast<size_t>(i)] = rng.range(-10, 10);
    // Built piecewise: `"h" + std::to_string(i)` trips gcc 12's -Wrestrict
    // false positive (PR 105651) under -O2.
    std::string hname("h");
    hname += std::to_string(i);
    auto& h = cls.method(hname, {{"x", Ty::I64}}, Ty::I64);
    h.stmt()
        .iload("x")
        .iconst(mult[static_cast<size_t>(i)])
        .imul()
        .iconst(add[static_cast<size_t>(i)])
        .iadd()
        .iret();
  }
  // main(x) = h0(h1(x)) + h2(x) ... nested in ONE statement
  auto& m = cls.method("main", {{"x", Ty::I64}}, Ty::I64);
  m.stmt()
      .iload("x").invoke("C.h1").invoke("C.h0")
      .iload("x").invoke("C.h2")
      .iadd()
      .iret();
  auto p = pb.build();
  prep::FlattenStats st = prep::flatten_program(p);
  EXPECT_GE(st.calls_extracted, 2);  // nested calls forced into temps

  int64_t x = rng.range(-20, 20);
  auto h = [&](int i, int64_t v) { return v * mult[static_cast<size_t>(i)] + add[static_cast<size_t>(i)]; };
  int64_t expected = h(0, h(1, x)) + h(2, x);
  EXPECT_EQ(run1(p, "C.main", {Value::of_i64(x)}).as_i64(), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCalls, ::testing::Range(0, 15));

// --- structured programs: branches, loops, calls, fields, arrays ---

/// A tiny structured language over i64.  The generator builds an AST once;
/// it is then both emitted as bytecode and evaluated on the host, in the
/// same left-to-right order, so calls with heap side effects agree too.
/// Every binary result is masked to 20 bits, so no operation overflows.
constexpr int64_t kMask = 0xFFFFF;
constexpr int64_t kArrLen = 8;
constexpr int kFields = 3;

struct Expr {
  enum Kind { Const, Var, Bin, Call, Field, Elem } kind = Const;
  int64_t value = 0;  ///< Const
  int slot = 0;       ///< Var
  int op = 0;         ///< Bin: 0..5; Field: field index; Call: callee
  std::vector<Expr> kids;
};

struct Stmt {
  enum Kind { Assign, If, Loop, SetField, SetElem } kind = Assign;
  int slot = 0;     ///< Assign target; Loop counter
  int op = 0;       ///< If: comparison 0..5; SetField: field index
  int64_t n = 0;    ///< Loop trip count
  std::vector<Expr> exprs;  ///< Assign: value; If: a[, b]; SetField: value; SetElem: index, value
  std::vector<Stmt> body, alt;
};

/// f(x): slot 0 is x, slots 1..3 temps, slots 4..5 loop counters.  A
/// function returns ret folded with a checksum of its temps (main: also of
/// the heap), so every assignment shows in the result.  The recursive
/// function returns `base` at x <= 0 and otherwise (f(x - 1) + that)
/// & kMask after its body.
struct Fn {
  std::vector<Stmt> body;
  Expr ret;
  bool recursive = false;
  int64_t base = 0;
};

constexpr int kTemps = 3;      // slots 1..3 (main: 3..5 after a, b, c)
constexpr int kCounters = 2;   // loop nesting depth

struct ProgGen {
  Rng rng;
  std::vector<Fn> fns;  ///< fns[0] is main(a, b, c); the last is recursive
  int calls_left = 0;

  explicit ProgGen(uint64_t seed) : rng(seed) {}

  static int nparams(size_t fn) { return fn == 0 ? 3 : 1; }

  Expr gen_expr(size_t fn, int depth) {
    Expr e;
    const int nvars = nparams(fn) + kTemps + kCounters;
    uint64_t pick = depth >= 3 ? rng.below(4) : rng.below(7);
    if (pick == 6 && calls_left > 0 && fn + 1 < fns.size()) {
      --calls_left;
      e.kind = Expr::Call;
      e.op = static_cast<int>(fn + 1 + rng.below(fns.size() - fn - 1));
      e.kids.push_back(gen_expr(fn, depth + 1));
      return e;
    }
    switch (pick) {
      case 0: e.kind = Expr::Const; e.value = rng.range(-50, 50); break;
      case 1: e.kind = Expr::Var; e.slot = static_cast<int>(rng.below(static_cast<uint64_t>(nvars))); break;
      case 2: e.kind = Expr::Field; e.op = static_cast<int>(rng.below(kFields)); break;
      case 3:
        e.kind = Expr::Elem;
        e.kids.push_back(gen_expr(fn, depth + 1));
        break;
      default:
        e.kind = Expr::Bin;
        e.op = static_cast<int>(rng.below(6));
        e.kids.push_back(gen_expr(fn, depth + 1));
        e.kids.push_back(gen_expr(fn, depth + 1));
        break;
    }
    return e;
  }

  std::vector<Stmt> gen_block(size_t fn, int loop_depth, int nest, int len) {
    std::vector<Stmt> out;
    const int first_temp = nparams(fn);
    for (int i = 0; i < len; ++i) {
      Stmt s;
      uint64_t pick = nest >= 2 ? rng.below(4) % 2 * 3 : rng.below(5);
      if (pick == 2 && (loop_depth >= kCounters || fns[fn].recursive)) pick = 0;
      switch (pick) {
        case 0:
          s.kind = Stmt::Assign;
          s.slot = first_temp + static_cast<int>(rng.below(kTemps));
          s.exprs.push_back(gen_expr(fn, 0));
          break;
        case 1:
          s.kind = Stmt::If;
          s.op = static_cast<int>(rng.below(6));
          s.exprs.push_back(gen_expr(fn, 1));
          if (rng.below(2)) s.exprs.push_back(gen_expr(fn, 1));
          s.body = gen_block(fn, loop_depth, nest + 1, 1 + static_cast<int>(rng.below(2)));
          s.alt = gen_block(fn, loop_depth, nest + 1, static_cast<int>(rng.below(3)));
          break;
        case 2:
          s.kind = Stmt::Loop;
          s.slot = first_temp + kTemps + loop_depth;
          s.n = rng.range(0, 4);
          s.body = gen_block(fn, loop_depth + 1, nest + 1, 1 + static_cast<int>(rng.below(3)));
          break;
        case 3:
          s.kind = Stmt::SetField;
          s.op = static_cast<int>(rng.below(kFields));
          s.exprs.push_back(gen_expr(fn, 0));
          break;
        default:
          s.kind = Stmt::SetElem;
          s.exprs.push_back(gen_expr(fn, 1));
          s.exprs.push_back(gen_expr(fn, 1));
          break;
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  void generate(int nhelpers) {
    fns.resize(static_cast<size_t>(nhelpers) + 2);
    fns.back().recursive = true;
    fns.back().base = rng.range(-20, 20);
    for (size_t k = fns.size(); k-- > 0;) {
      calls_left = fns[k].recursive ? 0 : 3;
      fns[k].body = gen_block(k, 0, 0, 2 + static_cast<int>(rng.below(4)));
      fns[k].ret = gen_expr(k, 1);
    }
  }
};

/// `stem` followed by `k`.  Built piecewise: `"lit" + std::string` trips
/// gcc 12's -Wrestrict false positive (PR 105651) under -O2.
std::string numbered(const char* stem, size_t k) {
  std::string s(stem);
  s += std::to_string(k);
  return s;
}

std::string fn_name(size_t k) { return k == 0 ? std::string("P.main") : numbered("P.f", k); }

/// Emits a ProgGen program into a builder.
struct Emitter {
  const ProgGen& g;
  bc::MethodBuilder* f = nullptr;

  void expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Const: f->iconst(e.value); break;
      case Expr::Var: f->iload(static_cast<uint16_t>(e.slot)); break;
      case Expr::Field:
        f->getstatic("G.box").getfield(numbered("Box.f", static_cast<size_t>(e.op)));
        break;
      case Expr::Elem:
        f->getstatic("G.arr");
        index(e.kids[0]);
        f->iaload();
        break;
      case Expr::Call:
        expr(e.kids[0]);
        f->iconst(7).iand().invoke(fn_name(static_cast<size_t>(e.op)));
        break;
      case Expr::Bin:
        expr(e.kids[0]);
        expr(e.kids[1]);
        switch (e.op) {
          case 0: f->iadd(); break;
          case 1: f->isub(); break;
          case 2: f->imul(); break;
          case 3: f->iand(); break;
          case 4: f->ior(); break;
          default: f->ixor(); break;
        }
        f->iconst(kMask).iand();
        break;
    }
  }

  /// ((i % len) + len) % len: always in bounds.
  void index(const Expr& i) {
    expr(i);
    f->iconst(kArrLen).irem().iconst(kArrLen).iadd().iconst(kArrLen).irem();
  }

  /// Branch to `l` when comparison `op` (==, !=, <, <=, >, >=) is false.
  void branch_unless(int op, bool binary, bc::Label l) {
    switch (op) {
      case 0: binary ? f->if_icmpne(l) : f->ifne(l); break;
      case 1: binary ? f->if_icmpeq(l) : f->ifeq(l); break;
      case 2: binary ? f->if_icmpge(l) : f->ifge(l); break;
      case 3: binary ? f->if_icmpgt(l) : f->ifgt(l); break;
      case 4: binary ? f->if_icmple(l) : f->ifle(l); break;
      default: binary ? f->if_icmplt(l) : f->iflt(l); break;
    }
  }

  void block(const std::vector<Stmt>& b) {
    for (const Stmt& s : b) stmt(s);
  }

  void stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Assign:
        f->stmt();
        expr(s.exprs[0]);
        f->istore(static_cast<uint16_t>(s.slot));
        break;
      case Stmt::If: {
        bc::Label alt = f->label(), end = f->label();
        f->stmt();
        for (const Expr& e : s.exprs) {
          expr(e);
          f->iconst(3).iand();  // two bits: ties are common
        }
        branch_unless(s.op, s.exprs.size() == 2, alt);
        block(s.body);
        f->stmt().go(end);
        f->bind(alt);
        block(s.alt);
        f->stmt().go(end);  // a GOTO to the very next pc, on purpose
        f->bind(end);
        break;
      }
      case Stmt::Loop: {
        bc::Label head = f->label(), end = f->label();
        const auto c = static_cast<uint16_t>(s.slot);
        f->stmt().iconst(0).istore(c);
        f->bind(head).stmt().iload(c).iconst(s.n).if_icmpge(end);
        block(s.body);
        f->stmt().iload(c).iconst(1).iadd().istore(c);
        f->stmt().go(head);
        f->bind(end);
        break;
      }
      case Stmt::SetField:
        f->stmt().getstatic("G.box");
        expr(s.exprs[0]);
        f->putfield(numbered("Box.f", static_cast<size_t>(s.op)));
        break;
      case Stmt::SetElem:
        f->stmt().getstatic("G.arr");
        index(s.exprs[0]);
        expr(s.exprs[1]);
        f->iastore();
        break;
    }
  }

  void emit(ProgramBuilder& pb) {
    auto& box = pb.cls("Box");
    for (size_t k = 0; k < kFields; ++k) box.field(numbered("f", k), Ty::I64);
    auto& gcls = pb.cls("G");
    gcls.field("box", Ty::Ref, /*is_static=*/true);
    gcls.field("arr", Ty::Ref, /*is_static=*/true);
    auto& pc = pb.cls("P");
    for (size_t k = 0; k < g.fns.size(); ++k) {
      const Fn& fn = g.fns[k];
      f = k == 0 ? &pc.method("main", {{"a", Ty::I64}, {"b", Ty::I64}, {"c", Ty::I64}}, Ty::I64)
                 : &pc.method(numbered("f", k), {{"x", Ty::I64}}, Ty::I64);
      for (size_t t = 0; t < kTemps + kCounters; ++t) f->local(numbered("v", t), Ty::I64);
      if (k == 0) {
        f->stmt().new_("Box").putstatic("G.box");
        f->stmt().iconst(kArrLen).newarray(Ty::I64).putstatic("G.arr");
      }
      bc::Label go_on = f->label();
      if (fn.recursive) {
        f->stmt().iload(0).ifgt(go_on);
        f->stmt().iconst(fn.base).iret();
        f->bind(go_on);
      }
      block(fn.body);
      f->stmt();
      if (fn.recursive) f->iload(0).iconst(1).isub().invoke(fn_name(k));
      expr(fn.ret);
      if (fn.recursive) f->iadd().iconst(kMask).iand();
      const int first_temp = ProgGen::nparams(k);
      for (int t = first_temp; t < first_temp + kTemps; ++t)
        f->iload(static_cast<uint16_t>(t)).iconst(2 * t + 3).imul().iadd().iconst(kMask).iand();
      if (k == 0) {
        for (size_t i = 0; i < kFields; ++i)
          f->getstatic("G.box").getfield(numbered("Box.f", i)).iadd().iconst(kMask).iand();
        for (int64_t i = 0; i < kArrLen; ++i)
          f->getstatic("G.arr").iconst(i).iaload().iadd().iconst(kMask).iand();
      }
      f->iret();
    }
  }
};

/// Host-side reference evaluator for a ProgGen program.
struct HostEval {
  const ProgGen& g;
  int64_t fields[kFields] = {};
  int64_t arr[kArrLen] = {};
  int64_t calls = 0;
  int64_t self_calls = 0;  ///< recursive calls made by the recursive function

  static int64_t wrap(int64_t i) { return ((i % kArrLen) + kArrLen) % kArrLen; }

  int64_t expr(const Expr& e, std::vector<int64_t>& v) {
    switch (e.kind) {
      case Expr::Const: return e.value;
      case Expr::Var: return v[static_cast<size_t>(e.slot)];
      case Expr::Field: return fields[e.op];
      case Expr::Elem: return arr[wrap(expr(e.kids[0], v))];
      case Expr::Call: return call(static_cast<size_t>(e.op), expr(e.kids[0], v) & 7);
      case Expr::Bin: {
        int64_t a = expr(e.kids[0], v);
        int64_t b = expr(e.kids[1], v);
        int64_t r = 0;
        switch (e.op) {
          case 0: r = a + b; break;
          case 1: r = a - b; break;
          case 2: r = a * b; break;
          case 3: r = a & b; break;
          case 4: r = a | b; break;
          default: r = a ^ b; break;
        }
        return r & kMask;
      }
    }
    return 0;
  }

  static bool holds(int op, int64_t a, int64_t b) {
    switch (op) {
      case 0: return a == b;
      case 1: return a != b;
      case 2: return a < b;
      case 3: return a <= b;
      case 4: return a > b;
      default: return a >= b;
    }
  }

  void block(const std::vector<Stmt>& b, std::vector<int64_t>& v) {
    for (const Stmt& s : b) {
      switch (s.kind) {
        case Stmt::Assign: v[static_cast<size_t>(s.slot)] = expr(s.exprs[0], v); break;
        case Stmt::If: {
          int64_t a = expr(s.exprs[0], v) & 3;
          int64_t c = s.exprs.size() == 2 ? expr(s.exprs[1], v) & 3 : 0;
          block(holds(s.op, a, c) ? s.body : s.alt, v);
          break;
        }
        case Stmt::Loop:
          for (v[static_cast<size_t>(s.slot)] = 0; v[static_cast<size_t>(s.slot)] < s.n;
               ++v[static_cast<size_t>(s.slot)])
            block(s.body, v);
          break;
        case Stmt::SetField: fields[s.op] = expr(s.exprs[0], v); break;
        case Stmt::SetElem: {
          int64_t i = wrap(expr(s.exprs[0], v));
          arr[i] = expr(s.exprs[1], v);
          break;
        }
      }
    }
  }

  int64_t run(size_t k, std::vector<int64_t> v) {
    ++calls;
    const Fn& fn = g.fns[k];
    v.resize(v.size() + kTemps + kCounters, 0);
    if (fn.recursive && v[0] <= 0) return fn.base;
    block(fn.body, v);
    int64_t r = 0;
    if (fn.recursive) {
      ++self_calls;
      r = call(k, v[0] - 1);
      r = (r + expr(fn.ret, v)) & kMask;
    } else {
      r = expr(fn.ret, v);
    }
    const int first_temp = ProgGen::nparams(k);
    for (int t = first_temp; t < first_temp + kTemps; ++t)
      r = (r + v[static_cast<size_t>(t)] * (2 * t + 3)) & kMask;
    if (k == 0) {
      for (int64_t x : fields) r = (r + x) & kMask;
      for (int64_t x : arr) r = (r + x) & kMask;
    }
    return r;
  }

  int64_t call(size_t k, int64_t x) { return run(k, {x}); }
};

class RandomStructured : public ::testing::TestWithParam<int> {};

// Only the interpreter is checked here.  The flatten pass hoists an
// extracted call above heap and static reads that precede it in the same
// statement (the paper's Fig. 4a shape), so a callee that writes what such
// a read sees changes the flattened result; see ROADMAP.
TEST_P(RandomStructured, InterpreterMatchesHostEvaluator) {
  const uint64_t seed = 20000 + static_cast<uint64_t>(GetParam());
  ProgGen gen(seed);
  gen.generate(1 + GetParam() % 3);
  Rng argrng(seed * 31);
  std::vector<int64_t> args = {argrng.range(-100, 100), argrng.range(-100, 100),
                               argrng.range(-100, 100)};
  HostEval host{gen};
  const int64_t expected = host.run(0, args);

  ProgramBuilder pb;
  Emitter{gen}.emit(pb);
  auto p = pb.build();
  std::vector<Value> vargs;
  for (int64_t a : args) vargs.push_back(Value::of_i64(a));
  EXPECT_EQ(run1(p, "P.main", vargs).as_i64(), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructured, ::testing::Range(0, 100));

/// What a budget stop leaves observable of a thread: its frames and the
/// live part of its value stack (every frame's locals and operands).
struct Snapshot {
  std::vector<svm::Frame> frames;
  std::vector<Value> stack;

  static Snapshot of(const svm::VM& vm, int tid) {
    const svm::GuestThread& th = vm.thread(tid);
    Snapshot s{th.frames, {}};
    if (!th.frames.empty())
      s.stack.assign(th.stack.begin(), th.stack.begin() + th.frames.back().sp);
    return s;
  }

  /// Empty when equal, else what differs.
  std::string diff(const Snapshot& o) const {
    if (frames.size() != o.frames.size()) return "frame count";
    for (size_t i = 0; i < frames.size(); ++i) {
      const svm::Frame &a = frames[i], &b = o.frames[i];
      if (a.method != b.method || a.pc != b.pc || a.base != b.base || a.sp != b.sp)
        return numbered("frame ", i);
    }
    for (size_t i = 0; i < stack.size(); ++i)
      if (!stack[i].same_as(o.stack[i])) return numbered("stack slot ", i);
    return {};
  }
};

/// Structured program `param` of the BudgetSlicing seeds and its arguments.
struct SlicingCase {
  uint64_t seed;
  bc::Program p;
  std::vector<Value> args;

  explicit SlicingCase(int param) : seed(20000 + static_cast<uint64_t>(param)) {
    ProgGen gen(seed);
    gen.generate(1 + param % 3);
    ProgramBuilder pb;
    Emitter{gen}.emit(pb);
    p = pb.build();
    Rng argrng(seed * 31);
    for (int i = 0; i < 3; ++i) args.push_back(Value::of_i64(argrng.range(-100, 100)));
  }

  int spawn(svm::VM& vm, bool debug) const {
    vm.set_debug_mode(debug);
    return vm.spawn(p.find_method("P.main"), args);
  }
};

/// The fused op at `tid`'s next instruction, or kOpCount_.
Op fused_next(const svm::VM& vm, int tid) {
  const svm::Frame& top = vm.thread(tid).frames.back();
  const Op op = vm.decoded().methods[top.method].ops[top.pc].op;
  return bc::is_fused(op) ? op : Op::kOpCount_;
}

constexpr int kSlicingSeeds = 12;

/// Runs `c` in chained slices, a first slice of `first` instructions and
/// then slices of `budget`, and checks at every stop that the slice ran
/// exactly its budget and left the state a run stepped one instruction at
/// a time leaves at that count (stepped in lockstep).  Marks each count it
/// stopped at in `stopped_at`.
void expect_slices_match_stepping(const SlicingCase& c, bool debug, uint64_t first,
                                  uint64_t budget, int64_t result, uint64_t n,
                                  std::vector<bool>& stopped_at) {
  SCOPED_TRACE("seed " + std::to_string(c.seed) + " first slice " + std::to_string(first) +
               " then " + std::to_string(budget));
  svm::VM vm(c.p, nullptr), stepped(c.p, nullptr);
  const int tid = c.spawn(vm, debug);
  const int ref = c.spawn(stepped, debug);
  uint64_t total = 0, slice = first;
  svm::RunResult rr;
  while ((rr = vm.run(tid, slice)).reason == svm::StopReason::Budget) {
    ASSERT_EQ(rr.executed, slice);
    total += slice;
    stopped_at[total] = true;
    while (stepped.instr_count() < total)
      ASSERT_EQ(stepped.run(ref, 1).reason, svm::StopReason::Budget);
    const std::string d = Snapshot::of(vm, tid).diff(Snapshot::of(stepped, ref));
    ASSERT_TRUE(d.empty()) << "after " << total << " instructions: " << d;
    slice = budget;
  }
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), result);
  EXPECT_EQ(vm.instr_count(), n);
  EXPECT_EQ(total + rr.executed, n);
}

class BudgetSlicing : public ::testing::TestWithParam<int> {};

// Fused sequences run only when the budget has room for all of them, so a
// run cut into slices of any budget stops at exactly the budget and leaves
// the state that running one instruction at a time leaves at that count.
// Chained slices of 2 and 3 from every start offset stop at every count
// (ending a slice one and two instructions into every fused sequence
// executed, and giving each sequence both too little and exactly enough
// room); a few long budgets cover slices that run many fused sequences.
TEST_P(BudgetSlicing, ChainedSlicesMatchASteppedRun) {
  const SlicingCase c(GetParam());
  for (bool debug : {false, true}) {
    SCOPED_TRACE(debug ? "debug mode" : "fast mode");
    svm::VM whole(c.p, nullptr);
    int tid = c.spawn(whole, debug);
    ASSERT_EQ(whole.run(tid).reason, svm::StopReason::Done);
    const int64_t result = whole.thread(tid).result.as_i64();
    const uint64_t n = whole.instr_count();

    // One instruction per slice: the counts at which a fused sequence
    // starts.
    std::vector<uint64_t> fused_at;
    svm::VM stepped(c.p, nullptr);
    tid = c.spawn(stepped, debug);
    do {
      if (fused_next(stepped, tid) != Op::kOpCount_) fused_at.push_back(stepped.instr_count());
    } while (stepped.run(tid, 1).reason == svm::StopReason::Budget);
    EXPECT_EQ(stepped.thread(tid).result.as_i64(), result);
    EXPECT_EQ(stepped.instr_count(), n);

    std::vector<bool> stopped_at(n + 1, false);
    for (uint64_t budget : {2, 3})
      for (uint64_t offset = 0; offset < budget; ++offset)
        expect_slices_match_stepping(c, debug, offset == 0 ? budget : offset, budget, result, n,
                                     stopped_at);
    for (uint64_t budget : {7, 61, 997})
      expect_slices_match_stepping(c, debug, budget, budget, result, n, stopped_at);
    for (uint64_t t : fused_at) {
      EXPECT_TRUE(t + 1 >= n || stopped_at[t + 1]) << "no stop one into the sequence at " << t;
      EXPECT_TRUE(t + 2 >= n || stopped_at[t + 2]) << "no stop two into the sequence at " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetSlicing, ::testing::Range(0, kSlicingSeeds));

/// The slicing seeds must execute every fused op.
TEST(BudgetSlicingSeeds, RunEveryFusedOp) {
  int runs[bc::kNumFused] = {};
  for (int i = 0; i < kSlicingSeeds; ++i) {
    const SlicingCase c(i);
    svm::VM vm(c.p, nullptr);
    const int tid = c.spawn(vm, false);
    do {
      const Op op = fused_next(vm, tid);
      if (op != Op::kOpCount_) ++runs[static_cast<int>(op) - bc::kNumOps - 1];
    } while (vm.run(tid, 1).reason == svm::StopReason::Budget);
  }
  for (int k = 0; k < bc::kNumFused; ++k) EXPECT_GE(runs[k], 10) << "fused op " << k;
}

/// The seeds above must exercise every construct, recursion included.
TEST(RandomStructuredGenerator, SeedsCoverEveryConstruct) {
  int stmts[5] = {}, exprs[6] = {}, ifs[12] = {};
  int64_t calls = 0, recursions = 0;
  std::function<void(const Expr&)> count_expr = [&](const Expr& e) {
    ++exprs[e.kind];
    for (const Expr& k : e.kids) count_expr(k);
  };
  std::function<void(const std::vector<Stmt>&)> count_block = [&](const std::vector<Stmt>& b) {
    for (const Stmt& s : b) {
      ++stmts[s.kind];
      if (s.kind == Stmt::If) ++ifs[s.op * 2 + (s.exprs.size() == 2 ? 1 : 0)];
      for (const Expr& e : s.exprs) count_expr(e);
      count_block(s.body);
      count_block(s.alt);
    }
  };
  for (int i = 0; i < 100; ++i) {
    ProgGen gen(20000 + static_cast<uint64_t>(i));
    gen.generate(1 + i % 3);
    for (const Fn& fn : gen.fns) {
      count_block(fn.body);
      count_expr(fn.ret);
    }
    HostEval host{gen};
    host.run(0, {1, 2, 3});
    calls += host.calls - 1;
    recursions += host.self_calls;
  }
  for (int k = 0; k < 5; ++k) EXPECT_GE(stmts[k], 10) << "statement kind " << k;
  for (int k = 0; k < 6; ++k) EXPECT_GE(exprs[k], 10) << "expression kind " << k;
  for (int k = 0; k < 12; ++k) EXPECT_GE(ifs[k], 5) << "comparison " << k / 2 << " binary " << k % 2;
  EXPECT_GE(calls, 100);
  EXPECT_GE(recursions, 50);
}

/// A guest exception unwinds a random-depth recursion whose frames hold
/// objects in Ref locals; the frames go back to the pool, and the next
/// call must still see its Ref local null and its i64 local zero.
class UnwindThroughRecycledFrames : public ::testing::TestWithParam<int> {};

TEST_P(UnwindThroughRecycledFrames, NextCallSeesNullRefLocals) {
  Rng rng(30000 + static_cast<uint64_t>(GetParam()));
  const int64_t depth = rng.range(1, 60);
  ProgramBuilder pb;
  pb.cls("Box").field("v", Ty::I64);
  auto& c = pb.cls("U");
  auto& thrower = c.method("dive", {{"n", Ty::I64}}, Ty::I64);
  {
    uint16_t r = thrower.local("r", Ty::Ref);
    uint16_t x = thrower.local("x", Ty::I64);
    Label more = thrower.label();
    thrower.stmt().new_("Box").astore(r);
    thrower.stmt().iload("n").iconst(7).iadd().istore(x);
    thrower.stmt().iload("n").ifgt(more);
    thrower.stmt().iload(x).iconst(0).idiv().iret();  // ArithmeticException
    thrower.bind(more).stmt().iload("n").iconst(1).isub().invoke("U.dive").iret();
  }
  auto& probe = c.method("probe", {}, Ty::I64);
  {
    uint16_t r = probe.local("r", Ty::Ref);
    uint16_t x = probe.local("x", Ty::I64);
    Label null_ok = probe.label();
    probe.stmt().aload(r).ifnull(null_ok);
    probe.stmt().iconst(-1).iret();
    probe.bind(null_ok).stmt().iload(x).iret();
  }
  auto& main = c.method("main", {{"n", Ty::I64}}, Ty::I64);
  {
    uint16_t t = main.local("t", Ty::I64);
    Label caught = main.label();
    uint32_t from = main.here();
    main.stmt().iload("n").invoke("U.dive").istore(t);
    main.stmt().iconst(-2).iret();  // not reached: dive always throws
    uint32_t to = main.here();
    main.bind(caught).pop().stmt().invoke("U.probe").iret();
    main.ex_entry(from, to, caught, bc::builtin::kArithmetic);
  }
  auto p = pb.build();
  EXPECT_EQ(run1(p, "U.main", {Value::of_i64(depth)}).as_i64(), 0) << "depth " << depth;
  prep::flatten_program(p);
  EXPECT_EQ(run1(p, "U.main", {Value::of_i64(depth)}).as_i64(), 0) << "depth " << depth;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnwindThroughRecycledFrames, ::testing::Range(0, 10));

}  // namespace
}  // namespace sod
