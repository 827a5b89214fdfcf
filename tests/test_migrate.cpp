// End-to-end SOD migration: capture -> transfer -> restore -> remote
// execution with object faulting -> write-back -> home resume.  Also the
// Fig. 1 flows: return-to-home, total migration, multi-hop workflow.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "apps/apps.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using mig::SodNode;

bc::Program prepped_fib() {
  auto p = testing::fib_program();
  prep::preprocess_program(p);
  return p;
}

/// Linked-list workload: build at home, sum migrated.
///   build(n): list of nodes with val = 1..n, returns head
///   sum(head): walks the list
///   main(n): h = build(n); return sum(h)
bc::Program list_program() {
  ProgramBuilder pb;
  auto& nd = pb.cls("ListNode");
  nd.field("val", Ty::I64);
  nd.field("next", Ty::Ref);

  auto& m = pb.cls("M");
  m.field("total_built", Ty::I64, /*is_static=*/true);

  auto& bld = m.method("build", {{"n", Ty::I64}}, Ty::Ref);
  uint16_t head = bld.local("head", Ty::Ref);
  uint16_t node = bld.local("node", Ty::Ref);
  uint16_t i = bld.local("i", Ty::I64);
  Label loop = bld.label(), done = bld.label();
  bld.stmt().aconst_null().astore(head);
  bld.stmt().iload("n").istore(i);
  bld.bind(loop).stmt().iload(i).iconst(1).if_icmplt(done);
  bld.stmt().new_("ListNode").astore(node);
  bld.stmt().aload(node).iload(i).putfield("ListNode.val");
  bld.stmt().aload(node).aload(head).putfield("ListNode.next");
  bld.stmt().aload(node).astore(head);
  bld.stmt().getstatic("M.total_built").iconst(1).iadd().putstatic("M.total_built");
  bld.stmt().iload(i).iconst(1).isub().istore(i);
  bld.stmt().go(loop);
  bld.bind(done).stmt().aload(head).aret();

  auto& sum = m.method("sum", {{"head", Ty::Ref}}, Ty::I64);
  uint16_t cur = sum.local("cur", Ty::Ref);
  uint16_t s = sum.local("s", Ty::I64);
  Label sl = sum.label(), sd = sum.label();
  sum.stmt().aload("head").astore(cur);
  sum.stmt().iconst(0).istore(s);
  sum.bind(sl).stmt().aload(cur).ifnull(sd);
  sum.stmt().iload(s).aload(cur).getfield("ListNode.val").iadd().istore(s);
  // also mutate each node so write-back has something to do
  sum.stmt().aload(cur).aload(cur).getfield("ListNode.val").iconst(2).imul()
      .putfield("ListNode.val");
  sum.stmt().aload(cur).getfield("ListNode.next").astore(cur);
  sum.stmt().go(sl);
  sum.bind(sd).stmt().iload(s).iret();

  auto& mn = m.method("main", {{"n", Ty::I64}}, Ty::I64);
  uint16_t h = mn.local("h", Ty::Ref);
  uint16_t r = mn.local("r", Ty::I64);
  mn.stmt().iload("n").invoke("M.build").astore(h);
  mn.stmt().aload(h).invoke("M.sum").istore(r);
  mn.stmt().iload(r).getstatic("M.total_built").iadd().iret();
  return pb.build();
}

TEST(Migrate, FibOffloadAndReturn) {
  auto p = prepped_fib();
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  uint16_t fib = p.find_method("Main.fib");

  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(16)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 6));
  ASSERT_EQ(home.vm().thread(tid).frames.size(), 6u);

  auto out = mig::offload_and_return(home, tid, 3, dest, sim::Link::gigabit());
  EXPECT_GT(out.timing.capture.ns, 0);
  EXPECT_GT(out.timing.transfer.ns, 0);
  EXPECT_GT(out.timing.restore.ns, 0);
  EXPECT_GT(out.timing.state_bytes, 0u);

  // Home stack shrank by the three migrated frames and got the result.
  EXPECT_EQ(home.vm().thread(tid).frames.size(), 3u);
  home.ti().set_debug_enabled(false);
  auto rr = home.run_guest(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), fib_ref(16));
}

TEST(Migrate, MigrateAtEveryFeasibleDepth) {
  // Sweep: pause at depths 2..8, offload top half, verify final result.
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  for (int depth = 2; depth <= 8; ++depth) {
    SodNode home("home", p, {});
    SodNode dest("dest", p, {});
    int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(13)});
    ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, depth));
    int nframes = depth / 2 + 1;
    mig::offload_and_return(home, tid, nframes, dest, sim::Link::gigabit());
    home.ti().set_debug_enabled(false);
    auto rr = home.run_guest(tid);
    ASSERT_EQ(rr.reason, svm::StopReason::Done) << "depth " << depth;
    EXPECT_EQ(home.vm().thread(tid).result.as_i64(), fib_ref(13)) << "depth " << depth;
  }
}

TEST(Migrate, ObjectFaultingFetchesOnDemandAndWritesBack) {
  auto p = list_program();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  uint16_t mn = p.find_method("M.main");
  uint16_t sum = p.find_method("M.sum");

  int tid = home.vm().spawn(mn, std::vector<Value>{Value::of_i64(10)});
  // Run until M.sum is entered (frames: main, sum).
  ASSERT_TRUE(mig::pause_at_depth(home, tid, sum, 2));

  auto out = mig::offload_and_return(home, tid, 1, dest, sim::Link::gigabit());
  // The list was fetched node by node on demand.
  EXPECT_GE(out.faults.faults, 10);
  EXPECT_GT(out.faults.bytes, 0u);
  EXPECT_EQ(out.result.as_i64(), 55);
  EXPECT_GE(out.writeback.objects_updated, 10);

  home.ti().set_debug_enabled(false);
  auto rr = home.run_guest(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  // main returns sum + total_built = 55 + 10
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), 65);
}

/// One list-sum offload driven step by step: `before_restore` runs after
/// the Segment is built and bound, before restoration (where a benchmark
/// wraps natives).  Returns the remote result and the faults it served.
std::pair<int64_t, int> offload_list_sum(SodNode& home, SodNode& dest,
                                         const std::function<void()>& before_restore) {
  const bc::Program& p = home.program();
  int tid = home.vm().spawn(p.find_method("M.main"), std::vector<Value>{Value::of_i64(10)});
  EXPECT_TRUE(mig::pause_at_depth(home, tid, p.find_method("M.sum"), 2));
  mig::CapturedState cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, 1});
  home.ti().set_debug_enabled(false);
  mig::Segment seg(dest);
  seg.objman().bind_home(&home, tid, 1, sim::Link::gigabit());
  before_restore();
  seg.restore(cs);
  Value r = seg.run_to_completion();
  mig::write_back(seg, home, tid, 1, r, sim::Link::gigabit());
  return {r.as_i64(), seg.objman().stats().faults};
}

TEST(Migrate, SodNativesBindOncePerNodeAndServeTheNewestSegment) {
  auto p = list_program();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  auto [r1, f1] = offload_list_sum(home, dest, [] {});
  EXPECT_EQ(r1, 55);
  EXPECT_GE(f1, 10);

  // Later segments on the node bind nothing; each is served by its own
  // object manager (its fault count starts from zero) and its own
  // restoration cursor.
  const uint64_t bound = dest.registry().version();
  for (int i = 0; i < 3; ++i) {
    auto [r, f] = offload_list_sum(home, dest, [] {});
    EXPECT_EQ(r, 55);
    EXPECT_EQ(f, f1);
  }
  EXPECT_EQ(dest.registry().version(), bound);

  // A native wrapped after a segment is built serves that segment; the
  // next segment's construction replaces the wrapper with the node's own
  // binding, so wrapping again never stacks wrappers.
  int wrapped = 0;
  auto wrap = [&] {
    for (const char* name : {"objman.bring_local", "objman.bring_field"}) {
      const svm::NativeFn inner = *dest.registry().find(name);
      dest.registry().bind(name, [&wrapped, inner](svm::VM& vm, std::span<Value> a) {
        ++wrapped;
        return inner(vm, a);
      });
    }
  };
  int per_offload = -1;
  for (int i = 0; i < 3; ++i) {
    const int before = wrapped;
    auto [r, f] = offload_list_sum(home, dest, wrap);
    EXPECT_EQ(r, 55);
    EXPECT_EQ(f, f1);
    const int calls = wrapped - before;
    EXPECT_GT(calls, 0);
    if (per_offload < 0) per_offload = calls;
    EXPECT_EQ(calls, per_offload) << "wrappers stacked up";
  }
}

TEST(Migrate, WriteBackReflectsHeapMutations) {
  auto p = list_program();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  uint16_t bld = p.find_method("M.build");
  uint16_t sum = p.find_method("M.sum");

  // Build the list locally at home.
  Value head = home.vm().call(p.method(bld).name, std::vector<Value>{Value::of_i64(5)});
  // Spawn sum(head) and immediately migrate the whole (1-frame) stack.
  int tid = home.vm().spawn(sum, std::vector<Value>{head});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, sum, 1));
  auto out = mig::offload_and_return(home, tid, 1, dest, sim::Link::gigabit());
  EXPECT_EQ(out.result.as_i64(), 15);
  // The whole stack migrated: thread is Done at home with the result.
  EXPECT_EQ(home.vm().thread(tid).status, svm::ThreadStatus::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), 15);
  // sum() doubled each node's val at the worker; home heap must show it.
  bc::Ref cur = head.as_ref();
  int64_t want = 2;
  uint16_t val_fid = p.find_field("ListNode.val");
  uint16_t next_fid = p.find_field("ListNode.next");
  const bc::Field& valf = p.field(val_fid);
  const bc::Field& nextf = p.field(next_fid);
  while (cur != bc::kNull) {
    EXPECT_EQ(home.vm().heap().obj(cur).fields[valf.slot].as_i64(), want);
    cur = home.vm().heap().obj(cur).fields[nextf.slot].as_ref();
    want += 2;
  }
}

TEST(Migrate, TotalMigrationFig1b) {
  // Fig. 1(b): top frame migrates; the residual frames are pushed to the
  // same destination; when the top segment finishes, its result is
  // delivered into the residual segment at the destination and execution
  // continues there (no return to home).
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});

  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 4));

  // Segment A: top frame.
  auto csA = mig::capture_segment(home, tid, mig::SegmentSpec{0, 1});
  // Segment B: the residual stack (depths 1..4).
  auto csB = mig::capture_segment(home, tid, mig::SegmentSpec{1, 4});
  home.ti().set_debug_enabled(false);

  mig::Segment segA(dest);
  segA.objman().bind_home(&home, tid, 0, sim::Link::gigabit());
  // Worker frames for A mirror home depth 0 only; frame 0 <-> depth 0.
  segA.objman().bind_home(&home, tid, 1, sim::Link::gigabit());
  segA.restore(csA);
  Value a = segA.run_to_completion();

  mig::Segment segB(dest);
  segB.restore(csB);
  segB.deliver(a);
  Value final = segB.run_to_completion();
  EXPECT_EQ(final.as_i64(), fib_ref(12));
}

/// A static array read through a local copy two frames up the stack:
///   init():  S.data = new i64[3]; S.data[1] = 7
///   leaf(k): arr = S.data; return arr[k]
///   mid(k):  return leaf(k) + 1
///   main():  init(); return mid(1)
bc::Program static_copy_program() {
  ProgramBuilder pb;
  auto& s = pb.cls("S");
  s.field("data", Ty::Ref, /*is_static=*/true);
  auto& init = s.method("init", {}, Ty::I64);
  init.stmt().iconst(3).newarray(Ty::I64).putstatic("S.data");
  init.stmt().getstatic("S.data").iconst(1).iconst(7).iastore();
  init.stmt().iconst(0).iret();
  auto& leaf = s.method("leaf", {{"k", Ty::I64}}, Ty::I64);
  uint16_t arr = leaf.local("arr", Ty::Ref);
  leaf.stmt().getstatic("S.data").astore(arr);
  leaf.stmt().aload(arr).iload("k").iaload().iret();
  auto& mid = s.method("mid", {{"k", Ty::I64}}, Ty::I64);
  mid.stmt().iload("k").invoke("S.leaf").iconst(1).iadd().iret();
  auto& mn = s.method("main", {}, Ty::I64);
  mn.stmt().invoke("S.init").pop();
  mn.stmt().iconst(1).invoke("S.mid").iret();
  return pb.build();
}

TEST(Migrate, CoResidentSegmentsResolveEachOthersStaticStubs) {
  // Two segments of one home thread restored onto one node: the second
  // restore re-plants the node's statics, and the first segment must
  // still resolve what it finds there — through a local copy while it
  // runs, and in its write-back of the statics.
  auto p = static_copy_program();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  const sim::Link link = sim::Link::gigabit();
  int tid = home.vm().spawn(p.find_method("S.main"), {});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, p.find_method("S.leaf"), 3));
  auto csA = mig::capture_segment(home, tid, mig::SegmentSpec{0, 1});
  auto csB = mig::capture_segment(home, tid, mig::SegmentSpec{1, 2});
  home.ti().set_debug_enabled(false);

  mig::Segment segA(dest);
  segA.objman().bind_home(&home, tid, 1, link);
  segA.restore(csA);
  mig::Segment segB(dest);
  segB.objman().bind_home(&home, tid, 2, link);
  segB.restore(csB);

  const uint16_t data = p.find_field("S.data");
  const bc::Ref planted = dest.vm().get_static(data).r;
  ASSERT_TRUE(dest.vm().heap().is_stub(planted));
  const bc::Ref home_data = home.vm().get_static(data).r;
  ASSERT_EQ(segA.objman().resolve_stub_home(planted), home_data);
  EXPECT_EQ(segB.objman().resolve_stub_home(planted), home_data);

  Value a = segA.run_to_completion();
  EXPECT_EQ(a.as_i64(), 7);
  mig::write_back(segA, home, tid, 0, a, link);
  segB.deliver(a);
  Value b = segB.run_to_completion();
  EXPECT_EQ(b.as_i64(), 8);
  mig::write_back(segB, home, tid, 2, b, link);
  // The write-backs pointed S.data back at the original home array.
  EXPECT_EQ(home.vm().get_static(data).r, home_data);
  ASSERT_EQ(home.run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), 8);
}

TEST(Migrate, WorkflowFig1cAcrossThreeNodes) {
  // Fig. 1(c): frame 1 -> node 2, frames 2..3 -> node 3, control flows
  // 1 -> 2 -> 3.  The lower segment restores on node 3 concurrently, so
  // its restore cost overlaps segment A's execution (freeze-time hiding).
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode n1("node1", p, {});
  SodNode n2("node2", p, {});
  SodNode n3("node3", p, {});

  int tid = n1.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
  ASSERT_TRUE(mig::pause_at_depth(n1, tid, fib, 3));

  auto csTop = mig::capture_segment(n1, tid, mig::SegmentSpec{0, 1});
  auto csRest = mig::capture_segment(n1, tid, mig::SegmentSpec{1, 3});
  n1.ti().set_debug_enabled(false);

  mig::Segment segTop(n2);
  segTop.objman().bind_home(&n1, tid, 1, sim::Link::gigabit());
  segTop.restore(csTop);

  mig::Segment segRest(n3);
  segRest.objman().bind_home(&n1, tid, 3, sim::Link::gigabit());
  segRest.restore(csRest);

  // Control: node2 executes the top frame, forwards its result to node3.
  Value top = segTop.run_to_completion();
  segRest.deliver(top);
  Value final = segRest.run_to_completion();
  EXPECT_EQ(final.as_i64(), fib_ref(12));
}

TEST(Migrate, PinnedFramesLimitSegment) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 5));
  // Pin nothing: whole stack migratable.
  EXPECT_EQ(mig::max_migratable_frames(home, tid, {}), 5);
  // Pin fib itself: nothing migratable (socket-holder scenario).
  EXPECT_EQ(mig::max_migratable_frames(home, tid, {fib}), 0);
  home.ti().set_debug_enabled(false);
}

TEST(Migrate, PauseAtNextMspAndOffload) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(14)});
  // Run a random-ish amount, then pause at the next MSP.
  home.run_guest(tid, 3000);
  ASSERT_TRUE(mig::pause_at_next_msp(home, tid));
  int depth = static_cast<int>(home.vm().thread(tid).frames.size());
  int nframes = std::max(1, depth / 2);
  mig::offload_and_return(home, tid, nframes, dest, sim::Link::gigabit());
  home.ti().set_debug_enabled(false);
  auto rr = home.run_guest(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), fib_ref(14));
}

TEST(Migrate, CapturedStateSerializationRoundTrip) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(10)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 4));
  auto cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, 4});
  home.ti().set_debug_enabled(false);

  ByteWriter w;
  cs.serialize(w);
  EXPECT_EQ(w.size(), cs.wire_size());
  ByteReader r(w.bytes());
  auto cs2 = mig::CapturedState::deserialize(r);
  ASSERT_EQ(cs2.frames.size(), cs.frames.size());
  for (size_t i = 0; i < cs.frames.size(); ++i) {
    EXPECT_EQ(cs2.frames[i].method, cs.frames[i].method);
    EXPECT_EQ(cs2.frames[i].pc, cs.frames[i].pc);
    EXPECT_EQ(cs2.frames[i].pending_callee, cs.frames[i].pending_callee);
    ASSERT_EQ(cs2.frames[i].locals.size(), cs.frames[i].locals.size());
    for (size_t k = 0; k < cs.frames[i].locals.size(); ++k)
      EXPECT_TRUE(cs2.frames[i].locals[k].same_as(cs.frames[i].locals[k]));
  }
  ASSERT_EQ(cs2.statics.size(), cs.statics.size());
}

/// wire_size() is counted, not serialized: it must equal the serialized
/// size byte for byte under both ref encodings, or every virtual transfer
/// time moves.
void expect_wire_size_exact(const mig::CapturedState& cs, const std::string& where) {
  for (bool home_refs : {false, true}) {
    mig::CapturedState v = cs;
    v.home_refs = home_refs;
    ByteWriter w;
    v.serialize(w);
    EXPECT_EQ(v.wire_size(), w.size()) << where << " home_refs=" << home_refs;
  }
}

TEST(Migrate, WireSizeEqualsSerializedSizeOnEveryTableIApp) {
  const sim::Link link = sim::Link::gigabit();
  for (const apps::AppSpec& spec : apps::table1_apps()) {
    bc::Program p = spec.build();
    prep::preprocess_program(p);
    const uint16_t entry = p.find_method(spec.entry);
    uint64_t total = 0;
    {
      SodNode ref("ref", p, {});
      int tid = ref.vm().spawn(entry, spec.bench_args);
      ref.run_guest(tid);
      total = ref.vm().instr_count();
    }
    int captures = 0, checkpoints = 0;
    for (int pct : {5, 30, 60, 90}) {
      const std::string where = spec.name + " at " + std::to_string(pct) + "%";
      SodNode home("home", p, {});
      SodNode worker("worker", p, {});
      worker.enable_class_fetch(&home, link);
      int tid = home.vm().spawn(entry, spec.bench_args);
      home.run_guest(tid, total * static_cast<uint64_t>(pct) / 100);
      if (!mig::pause_at_next_msp(home, tid)) continue;
      // The top frame alone, then the whole stack (which runs long enough
      // on the worker to be checkpointed).
      const int k = static_cast<int>(home.vm().thread(tid).frames.size());
      expect_wire_size_exact(mig::capture_segment(home, tid, mig::SegmentSpec{0, 1}), where);
      mig::CapturedState cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, k});
      home.ti().set_debug_enabled(false);
      EXPECT_FALSE(cs.home_refs);
      expect_wire_size_exact(cs, where);
      ++captures;

      mig::Segment seg(worker);
      seg.objman().bind_home(&home, tid, k, link);
      seg.restore(cs);
      mig::CheckpointDeltas deltas;
      for (int c = 0; c < 3 && seg.run_chunk(total / 50 + 1) == svm::StopReason::SafePoint;
           ++c) {
        mig::SegmentCheckpoint ck = mig::checkpoint_segment(seg, home, link, deltas);
        EXPECT_TRUE(ck.state.home_refs);
        EXPECT_EQ(ck.state_bytes, ck.state.wire_size()) << where;
        expect_wire_size_exact(ck.state, where + " checkpoint");
        ++checkpoints;
      }
    }
    EXPECT_GE(captures, 3) << spec.name;
    EXPECT_GE(checkpoints, 1) << spec.name;
  }
}

TEST(Migrate, TransferTimeScalesWithBandwidth) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  VDur fast_transfer, slow_transfer;
  for (bool slow : {false, true}) {
    SodNode home("home", p, {});
    SodNode dest("dest", p, {});
    int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
    ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 4));
    sim::Link link = slow ? sim::Link::wifi_kbps(128) : sim::Link::gigabit();
    auto out = mig::offload_and_return(home, tid, 2, dest, link);
    (slow ? slow_transfer : fast_transfer) = out.timing.transfer;
  }
  EXPECT_GT(slow_transfer.ns, 100 * fast_transfer.ns);
}

}  // namespace
}  // namespace sod
