// explore: one analyst, closed loop, one query at a time, no server —
// the paper's own scenario (README.md).

#include <string>
#include <vector>

#include "perfbench/perfbench.h"

namespace progidx {
namespace perfbench {

void RunExplore(const Options& opt, bool traced, Report* r) {
  const size_t n = opt.smoke ? (size_t{1} << 14) : (size_t{1} << 24);
  const size_t queries_per_index = opt.smoke ? 300 : 4000;
  r->Meta("n", std::to_string(n));
  r->Meta("queries_per_index", std::to_string(queries_per_index));
  r->Meta("client_threads", "1");
  r->Meta("delta", std::to_string(kDelta));
  r->Meta("durability", "off (no server)");

  const MachineConstants& machine = PinnedMachineConstants();
  SetupTimer setup(n, opt.seed, [](const Column& c, const MachineConstants& mc) {
    for (const std::string& id : IndexIds()) {
      MakeBenchIndex(id, c, mc, kDelta);
    }
  });

  const std::vector<RangeQuery> queries =
      RandomRanges(n, queries_per_index, opt.seed + 1);
  // Nothing is persisted, so recover_s is what a restart must rebuild:
  // the four indexes from scratch to convergence, which is converge_s.
  SessionSummary s =
      RunSessions(n, opt.seed, queries, machine, kDelta, opt.seconds,
                  /*first_probes=*/2, traced, &setup);
  const Column column = MakeColumn(n, opt.seed);

  const double rss = PeakRssMb();
  const PrefixOracle oracle(column);
  CheckSessions(s, queries, oracle, r);
  ReportSession(s, traced, r);
  ReportCommon(r, setup.median_s(), s.p50_us, s.p99_us, s.latency,
               s.within_slo_per_s,
               static_cast<double>(s.latency.count()) /
                   (s.session_s * static_cast<double>(s.reps)),
               s.converge_s, rss);
  r->headline = s.session_s;
  r->headline_lower_better = true;
  if (traced) {
    r->Layer("storage.column_build_s", setup.column_median_s(), "s");
    ReportKernels(column, r);
  }
}

}  // namespace perfbench
}  // namespace progidx
