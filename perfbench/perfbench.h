#ifndef PROGIDX_PERFBENCH_PERFBENCH_H_
#define PROGIDX_PERFBENCH_PERFBENCH_H_

// Shared pieces of the repo benchmark (README.md in this directory):
// run options, the metric report, the closed-loop four-index session
// every workload runs, the exact answer oracles, and the probes that
// read what the program already emits (obs registry, trace spans).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/index_base.h"
#include "cost/calibration.h"
#include "obs/metrics.h"
#include "storage/column.h"

namespace progidx {
namespace perfbench {

/// The four progressive indexes, in the order every session runs them.
const std::vector<std::string>& IndexIds();

/// Every workload runs its indexes at one lane; the traced run adds a
/// session pass at kParallelLanes for the parallel layer's metrics
/// (README.md, "Why one lane").
constexpr size_t kParallelLanes = 4;

/// Latency limit behind slo_qps and the dashboard SLO check.
constexpr double kSloUs = 10000;

/// Indexes run under BudgetSpec::FixedDelta: a fixed share of the
/// column per query, so work per query does not depend on timing
/// (README.md, "Why δ and the machine constants are pinned"). kDelta
/// is the paper's δ, used by explore and ingest.
constexpr double kDelta = 0.05;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes and few operations: exercises every code path and
  /// metric in seconds, measures nothing worth comparing.
  bool smoke = false;
  /// Scratch directory inside the checkout (ingest's persistence dir,
  /// the trace file).
  std::string workdir = ".bench_build/work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced: the end-to-end metrics (always),
/// the per-layer metrics (filled by traced runs), run metadata, and
/// the correctness tally behind ok_frac.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> meta;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The workload's headline number and whether lower is better; the
  /// traced run compares it against the untraced one.
  double headline = 0;
  bool headline_lower_better = true;

  void E2E(const std::string& name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
  void Meta(const std::string& key, const std::string& value) {
    meta.emplace_back(key, value);
  }
};

/// Workload entry points. `traced` runs also fill Report::per_layer.
void RunExplore(const Options& opt, bool traced, Report* r);
void RunDashboard(const Options& opt, bool traced, Report* r);
void RunIngest(const Options& opt, bool traced, Report* r);

/// Every latency sample of a measurement. Quantiles are exact
/// (nearest rank over all samples), not the bucket bounds of
/// obs::LocalHistogram, whose values repeat exactly from run to run;
/// HistogramUs gives the bucketed figure bench::LatencyRecorder and
/// Server::DumpMetrics would print, for comparison.
class Latencies {
 public:
  void AddNs(uint64_t ns) { ns_.push_back(ns); }
  void AddSecs(double secs) {
    ns_.push_back(secs <= 0 ? 0 : static_cast<uint64_t>(secs * 1e9 + 0.5));
  }
  void MergeFrom(const Latencies& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  size_t count() const { return ns_.size(); }
  double PercentileUs(double q) const;
  double HistogramUs(double q) const;

 private:
  std::vector<uint64_t> ns_;
};

// ---- Inputs --------------------------------------------------------------

/// `count` closed ranges covering 1% of [0, n) each, uniformly placed
/// (the Random pattern of workload/synthetic.h).
std::vector<RangeQuery> RandomRanges(size_t n, size_t count, uint64_t seed);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

// ---- Set-up ------------------------------------------------------------

/// The machine constants every index of the benchmark is priced by.
/// Under a fixed δ they still set leaf sorts and phase-crossing
/// remainders, so constants measured per process moved the work the
/// same queries do: one calibration per process let explore converge
/// after 2471 to 3647 queries for one seed, and dashboard's pq after
/// about 400 or about 590 epochs. Pinned, the work each query does is a
/// function of the seed alone, as δ is pinned for the same reason
/// (README.md, "Why δ and the machine constants are pinned"). The values are medians of
/// MeasureMachineConstants() on the 4-core AVX-512 Xeon of README.md.
const MachineConstants& PinnedMachineConstants();

/// Times set-ups: column generation + MeasureMachineConstants() +
/// `construct` (which builds and drops the workload's objects over the
/// column, from PinnedMachineConstants()). The calibration is timed
/// because a user's set-up pays it; its result is not used (see
/// PinnedMachineConstants). Workloads time one set-up before each
/// session pass or serving slice, so that set-ups sample the whole run
/// as the other metrics do; setup_s is their median.
class SetupTimer {
 public:
  using Construct =
      std::function<void(const Column&, const MachineConstants&)>;
  SetupTimer(size_t n, uint64_t seed, Construct construct)
      : n_(n), seed_(seed), construct_(std::move(construct)) {}
  void Rep();
  double median_s() const { return Median(total_); }
  double column_median_s() const { return Median(column_); }

 private:
  size_t n_;
  uint64_t seed_;
  Construct construct_;
  std::vector<double> total_, column_;
};

// ---- Exact answers -------------------------------------------------------

/// Prefix-sum oracle over the sorted multiset of a column whose values
/// lie in [0, n), as every workload's column does; built by counting,
/// outside any timed region.
class PrefixOracle {
 public:
  explicit PrefixOracle(const Column& column);
  QueryResult Answer(const RangeQuery& q) const;

 private:
  std::vector<uint32_t> count_prefix_;  ///< [v] = values < v
  std::vector<int64_t> sum_prefix_;     ///< [v] = sum of values < v
};

// ---- The four-index session (Tables 3 and 4, Figs. 7 and 10) ------------

/// Names of `id`'s phases, in the order of its Phase enum.
const std::vector<std::string>& PhaseNames(const std::string& id);

/// What the four-index session measured over its passes (SessionRunner
/// below). Metrics are medians over passes, so neither where one pass's
/// column landed in memory nor one pass caught in a stall of the shared
/// machine decides them.
struct SessionSummary {
  size_t reps = 0;
  std::vector<double> cumulative_s;  ///< per index (IndexIds order)
  std::vector<double> construct_s;   ///< per index
  std::vector<double> parallel_s;    ///< traced: per index, at kParallelLanes
  /// Mean over the indexes of each one's median first-query time.
  double first_query_ms = 0;
  double converge_s = 0;       ///< summed over the indexes
  std::vector<double> converge_each_s;  ///< per index
  double converge_queries = 0;
  double session_s = 0;        ///< sum of cumulative_s
  double within_slo_per_s = 0; ///< queries within kSloUs per session second
  Latencies latency;  ///< every session query of every pass
  /// Medians over passes of each pass's quantiles of `latency`, so that
  /// a pass caught in a stall of the shared machine cannot move them.
  double p50_us = 0, p99_us = 0;
  /// Mean per repetition, [index][phase].
  std::vector<std::vector<double>> phase_s;
  std::vector<std::vector<double>> phase_queries;
  uint64_t pool_tasks = 0;  ///< traced: obs pool.* deltas of that pass
  uint64_t pool_steals = 0;
  /// Every answer given, for checking after the timed region: whole
  /// sessions, and the first-query probes (all answering queries[0]).
  std::vector<std::vector<QueryResult>> answers;
  std::vector<QueryResult> first_probe_answers;
};

/// Runs passes of the four-index session. A pass regenerates the
/// column into fresh memory, builds the four indexes over it and sends
/// each query to all four in turn, so every index's session time spans
/// the whole pass: the shared machine's speed swings by ±15% over
/// seconds, and indexes run one after the other were each timed in a
/// window of their own. Each pass also builds `first_probes` more fresh
/// indexes of each kind, spread over the pass, and times only their
/// first query: one first query per index and pass is too few samples
/// for a steady first_query_ms. Dashboard and ingest run single passes
/// between their serving runs, so the session's samples span the run.
class SessionRunner {
 public:
  SessionRunner(size_t n, uint64_t seed, const std::vector<RangeQuery>& queries,
                const MachineConstants& machine, double delta,
                size_t first_probes);
  /// One pass; returns its wall time in seconds.
  double RunPass();
  /// Medians over the passes run. `traced` adds one more pass at
  /// kParallelLanes lanes (parallel::SetLanesForTesting) for
  /// parallel.lane_speedup.* and parallel.pool_*.
  SessionSummary Summarize(bool traced);

 private:
  /// One index's session in one pass: every IndexBase::Query call timed
  /// and attributed to the index's phase() before the call.
  struct IndexPass {
    double construct_s = 0;
    double cumulative_s = 0;
    double converge_s = 0;
    size_t converge_queries = 0;
    bool converged = false;
    size_t within_slo = 0;  ///< queries answered within kSloUs
    std::vector<double> phase_s;  ///< by phase, PhaseNames order
    std::vector<size_t> phase_queries;
    std::vector<QueryResult> answers;
  };
  struct Pass {
    std::vector<IndexPass> results;            ///< per index
    std::vector<std::vector<double>> first_s;  ///< per index: first queries
    std::vector<QueryResult> probe_answers;
  };
  /// Every pass's samples of one index.
  struct PerIndex {
    std::vector<double> cumulative, construct, first, conv_s, conv_q;
  };
  Pass Interleaved(Latencies* latency);

  size_t n_;
  uint64_t seed_;
  std::vector<RangeQuery> queries_;
  const MachineConstants& machine_;
  double delta_;
  size_t first_probes_;
  std::vector<PerIndex> acc_;
  std::vector<double> pass_p50_us_, pass_p99_us_;
  SessionSummary summary_;
  size_t within_slo_ = 0;
  double within_slo_secs_ = 0;
};

/// Session passes while `budget_s` lasts (at least one), each after
/// one `setup` rep, summarized.
SessionSummary RunSessions(size_t n, uint64_t seed,
                           const std::vector<RangeQuery>& queries,
                           const MachineConstants& machine, double delta,
                           double budget_s, size_t first_probes, bool traced,
                           SetupTimer* setup);

/// Counts the session's answers into r->attempted / r->failed.
void CheckSessions(const SessionSummary& s,
                   const std::vector<RangeQuery>& queries,
                   const PrefixOracle& oracle, Report* r);

/// Adds the session's paper metrics (first_query_ms, cumulative_s.*,
/// converge_*) to the end-to-end set and, traced, the core.* and
/// parallel.* layer metrics.
void ReportSession(const SessionSummary& s, bool traced, Report* r);

// ---- Probes of what the program already emits ---------------------------

/// `id` over `column` under FixedDelta(delta), priced by `machine`
/// (which must outlive the index).
std::unique_ptr<IndexBase> MakeBenchIndex(const std::string& id,
                                          const Column& column,
                                          const MachineConstants& machine,
                                          double delta);
/// The workloads' column: the paper's uniform [0, n) permutation.
Column MakeColumn(size_t n, uint64_t seed);

/// Dispatched kernel throughput on `column`, in GB/s of bytes moved.
void ReportKernels(const Column& column, Report* r);

/// Delta of a registry histogram/counter between two snapshots.
obs::LocalHistogram HistogramDelta(const obs::LocalHistogram& before,
                                   const obs::LocalHistogram& after);
obs::LocalHistogram RegistryHistogram(const char* name);
uint64_t RegistryCounter(const char* name);

/// Durations (ns) of the buffered trace spans named `name`, read from
/// the Chrome trace obs::FlushTrace() wrote to `path`.
std::vector<uint64_t> SpanDurationsNs(const std::string& path,
                                      const char* name);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// The end-to-end metrics beside the session ones; every workload
/// reports all of them. `latency` holds the samples behind p50/p99 (its
/// count and bucketed quantiles go to the run metadata). `peak_rss_mb`
/// is read before the oracles are built, so it counts the program, not
/// the checker.
void ReportCommon(Report* r, double setup_s, double p50_us, double p99_us,
                  const Latencies& latency, double slo_qps, double ops_per_s,
                  double recover_s, double peak_rss_mb);

}  // namespace perfbench
}  // namespace progidx

#endif  // PROGIDX_PERFBENCH_PERFBENCH_H_
