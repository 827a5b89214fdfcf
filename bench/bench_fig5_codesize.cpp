// Fig. 5 — space overhead of the two miss-detection instrumentations on
// the paper's Geometry example class (original 501 B -> checks 667 B ->
// fault handlers 902 B in the paper's javac encoding).
#include <cstdio>

#include "bytecode/builder.h"
#include "cli/scenario.h"
#include "prep/prep.h"
#include "support/table.h"

using namespace sod;
using bc::Ty;

namespace {

/// The paper's Fig. 5 Geometry class: displaceX() with the nested
/// expression p.x = r.nextInt() + (int) p.getX().
bc::Program geometry() {
  bc::ProgramBuilder pb;
  auto& rnd = pb.cls("Random");
  rnd.field("state", Ty::I64);
  auto& nx = rnd.method("nextInt", {{"this", Ty::Ref}}, Ty::I64);
  nx.stmt().aload("this").aload("this").getfield("Random.state")
      .iconst(1103515245).imul().iconst(12345).iadd().iconst(65536).irem()
      .putfield("Random.state");
  nx.stmt().aload("this").getfield("Random.state").iret();
  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  auto& gx = pt.method("getX", {{"this", Ty::Ref}}, Ty::F64);
  gx.stmt().aload("this").getfield("Point.x").i2d().dret();
  auto& geo = pb.cls("Geometry");
  geo.field("r", Ty::Ref);
  geo.field("p", Ty::Ref);
  auto& dx = geo.method("displaceX", {{"this", Ty::Ref}}, Ty::Void);
  dx.stmt()
      .aload("this").getfield("Geometry.p")
      .aload("this").getfield("Geometry.r").invoke("Random.nextInt")
      .aload("this").getfield("Geometry.p").invoke("Point.getX").d2i()
      .iadd()
      .putfield("Point.x");
  dx.stmt().ret();
  return pb.build();
}

size_t geometry_class_size(const bc::Program& p) {
  return p.class_image_size(p.find_class("Geometry"));
}

int run(const cli::ScenarioOptions& opt) {
  std::printf("=== Fig. 5: class image size under each miss-detection scheme ===\n");

  bc::Program orig = geometry();
  prep::PrepOptions flat_only;
  flat_only.miss = prep::MissDetection::None;
  flat_only.restore_handlers = false;
  prep::preprocess_program(orig, flat_only);

  bc::Program checks = geometry();
  prep::PrepOptions co;
  co.miss = prep::MissDetection::StatusChecking;
  co.restore_handlers = false;
  prep::PrepReport crep = prep::preprocess_program(checks, co);

  bc::Program faults = geometry();
  prep::PrepOptions fo;
  fo.miss = prep::MissDetection::ObjectFaulting;
  fo.restore_handlers = false;
  prep::PrepReport frep = prep::preprocess_program(faults, fo);

  bc::Program full = geometry();
  prep::preprocess_program(full);

  size_t so = geometry_class_size(orig);
  size_t sc = geometry_class_size(checks);
  size_t sf = geometry_class_size(faults);
  size_t sfull = geometry_class_size(full);

  Table t({"Variant", "Geometry class (B)", "vs original", "whole image (B)"});
  t.row({"original (flattened)", std::to_string(so), "-", std::to_string(orig.total_image_size())});
  t.row({"status checks (B1)", std::to_string(sc), fmt("%+.0f%%", (double(sc) / so - 1) * 100),
         std::to_string(checks.total_image_size())});
  t.row({"object faulting (B2)", std::to_string(sf), fmt("%+.0f%%", (double(sf) / so - 1) * 100),
         std::to_string(faults.total_image_size())});
  t.row({"faulting + restoration", std::to_string(sfull),
         fmt("%+.0f%%", (double(sfull) / so - 1) * 100), std::to_string(full.total_image_size())});
  t.print();

  std::printf("\nInstrumentation stats: checks inserted %d, NEW rewrites %d; "
              "fault handlers %d, repair calls %d.\n",
              crep.checks.checks_inserted, crep.checks.news_rewritten,
              frep.faults.fault_handlers, frep.faults.repair_calls);
  std::printf(
      "Paper reference: 501 B original, 667 B checks (+33%%), 902 B faulting (+80%%).\n"
      "Shape: both instrumentations grow the class; faulting trades space for zero\n"
      "inline cost (Table V).  Our fixed-width immediates make the check sequences\n"
      "relatively bulkier than javac's — see EXPERIMENTS.md.\n");
  return cli::maybe_write_json(opt, "fig5", t) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("fig5", cli::ScenarioKind::Bench,
                      "Fig. 5 — instrumentation space overhead on the Geometry class", run);

}  // namespace
