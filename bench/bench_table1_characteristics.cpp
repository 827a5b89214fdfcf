// Table I — program characteristics: problem size n, max stack height h,
// accumulated local+static field bytes F, measured at paper scale.
#include <cstdio>

#include "cli/smoke.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "sodee/experiment.h"
#include "support/table.h"

using namespace sod;

namespace {

int run(const cli::ScenarioOptions& opt) {
  std::printf("=== Table I: program characteristics (measured at paper scale) ===\n");
  Table t({"App", "n", "h (paper)", "h (measured)", "F (paper)", "F (measured bytes)"});
  for (const apps::AppSpec& spec : cli::table1_apps_for(opt)) {
    bc::Program p = spec.build();
    prep::preprocess_program(p);
    mig::SodNode home("home", p, {});
    int tid = home.vm().spawn(p.find_method(spec.entry), spec.paper_args);
    bool ok = mig::pause_at_depth(home, tid, p.find_method(spec.trigger_method),
                                  spec.paper_depth);
    SOD_CHECK(ok, "trigger not reached");
    int h = static_cast<int>(home.vm().thread(tid).frames.size());
    size_t F = 0;
    {
      const bc::Program& P = home.program();
      std::vector<bc::Ref> roots;
      for (const auto& c : P.classes) {
        if (!home.vm().class_loaded(c.id)) continue;
        F += static_cast<size_t>(c.num_static_slots) * 8;
        for (const bc::Value& v : home.vm().statics_of(c.id))
          if (v.tag == bc::Ty::Ref && v.r != bc::kNull) roots.push_back(v.r);
      }
      if (!roots.empty()) F += home.vm().heap().graph_size(roots);
      for (size_t i = 0; i < home.vm().thread(tid).frames.size(); ++i)
        F += home.vm().frame_locals(tid, i).size() * 8;
    }
    home.ti().set_debug_enabled(false);
    t.row({spec.name, std::to_string(spec.paper_n), std::to_string(spec.paper_depth),
           std::to_string(h), spec.paper_F, std::to_string(F)});
  }
  t.print();
  std::printf("\nPaper shape check: Fib/NQ deep stacks with tiny F; FFT F > 64 MB; TSP ~2.5 KB.\n");
  return cli::maybe_write_json(opt, "table1", t) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("table1", cli::ScenarioKind::Bench,
                      "Table I — program characteristics at paper scale", run);

}  // namespace
