#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "eval/registry.h"
#include "kernels/kernels.h"
#include "parallel/thread_pool.h"
#include "perfbench/perfbench.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

namespace progidx {
namespace perfbench {

const std::vector<std::string>& IndexIds() {
  static const std::vector<std::string> ids = {"pq", "pmsd", "plsd", "pb"};
  return ids;
}

std::vector<RangeQuery> RandomRanges(size_t n, size_t count, uint64_t seed) {
  return WorkloadGenerator::Generate(WorkloadPattern::kRandom, 0,
                                     static_cast<value_t>(n) - 1, count, 0.01,
                                     seed);
}

double Latencies::PercentileUs(double q) const {
  if (ns_.empty()) return 0;
  std::vector<uint64_t> sorted(ns_);
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t at = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return static_cast<double>(sorted[std::min(at, sorted.size() - 1)]) / 1e3;
}

double Latencies::HistogramUs(double q) const {
  obs::LocalHistogram h;
  for (const uint64_t ns : ns_) h.Record(ns);
  return static_cast<double>(h.ValueAtQuantile(q)) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

Column MakeColumn(size_t n, uint64_t seed) { return MakeUniformColumn(n, seed); }

PrefixOracle::PrefixOracle(const Column& column) {
  const size_t n = column.size();
  std::vector<uint32_t> counts(n, 0);
  for (const value_t v : column.values()) {
    PROGIDX_CHECK(v >= 0 && static_cast<size_t>(v) < n);
    counts[static_cast<size_t>(v)]++;
  }
  count_prefix_.assign(n + 1, 0);
  sum_prefix_.assign(n + 1, 0);
  for (size_t v = 0; v < n; v++) {
    count_prefix_[v + 1] = count_prefix_[v] + counts[v];
    sum_prefix_[v + 1] =
        sum_prefix_[v] + static_cast<int64_t>(v) * static_cast<int64_t>(counts[v]);
  }
}

QueryResult PrefixOracle::Answer(const RangeQuery& q) const {
  const int64_t top = static_cast<int64_t>(count_prefix_.size()) - 1;
  const int64_t lo = std::clamp<int64_t>(q.low, 0, top);
  const int64_t hi = std::clamp<int64_t>(q.high + 1, 0, top);
  if (hi <= lo) return {};
  return {sum_prefix_[hi] - sum_prefix_[lo],
          static_cast<int64_t>(count_prefix_[hi] - count_prefix_[lo])};
}

const std::vector<std::string>& PhaseNames(const std::string& id) {
  static const std::vector<std::string> four = {"creation", "refinement",
                                                "consolidation", "done"};
  static const std::vector<std::string> lsd = {
      "creation", "refinement", "merge", "consolidation", "done"};
  return id == "plsd" ? lsd : four;
}

namespace {

/// The index's public phase() before a call, as an index into
/// PhaseNames(id).
size_t PhaseOf(const IndexBase& index) {
  if (auto* p = dynamic_cast<const ProgressiveQuicksort*>(&index)) {
    return static_cast<size_t>(p->phase());
  }
  if (auto* p = dynamic_cast<const ProgressiveRadixsortMSD*>(&index)) {
    return static_cast<size_t>(p->phase());
  }
  if (auto* p = dynamic_cast<const ProgressiveRadixsortLSD*>(&index)) {
    return static_cast<size_t>(p->phase());
  }
  if (auto* p = dynamic_cast<const ProgressiveBucketsort*>(&index)) {
    return static_cast<size_t>(p->phase());
  }
  return 0;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SessionRunner::SessionRunner(size_t n, uint64_t seed,
                             const std::vector<RangeQuery>& queries,
                             const MachineConstants& machine, double delta,
                             size_t first_probes)
    : n_(n),
      seed_(seed),
      queries_(queries),
      machine_(machine),
      delta_(delta),
      first_probes_(first_probes),
      acc_(IndexIds().size()) {
  summary_.phase_s.resize(acc_.size());
  summary_.phase_queries.resize(acc_.size());
}

SessionRunner::Pass SessionRunner::Interleaved(Latencies* latency) {
  const std::vector<std::string>& ids = IndexIds();
  const size_t k = ids.size();
  Pass pass;
  pass.results.resize(k);
  const Column column = MakeColumn(n_, seed_);
  std::vector<std::unique_ptr<IndexBase>> indexes(k);
  for (size_t i = 0; i < k; i++) {
    IndexPass& s = pass.results[i];
    s.phase_s.assign(PhaseNames(ids[i]).size(), 0);
    s.phase_queries.assign(s.phase_s.size(), 0);
    s.answers.resize(queries_.size());
    const auto t0 = std::chrono::steady_clock::now();
    indexes[i] = MakeBenchIndex(ids[i], column, machine_, delta_);
    s.construct_s = SecondsSince(t0);
  }
  pass.first_s.resize(k);
  size_t probes_done = 0;
  for (size_t q = 0; q < queries_.size(); q++) {
    for (size_t i = 0; i < k; i++) {
      IndexPass& s = pass.results[i];
      IndexBase& index = *indexes[i];
      const size_t phase = std::min(PhaseOf(index), s.phase_s.size() - 1);
      const auto t0 = std::chrono::steady_clock::now();
      s.answers[q] = index.Query(queries_[q]);
      const double secs = SecondsSince(t0);
      if (latency != nullptr) latency->AddSecs(secs);
      s.cumulative_s += secs;
      s.phase_s[phase] += secs;
      s.phase_queries[phase]++;
      if (q == 0) pass.first_s[i].push_back(secs);
      if (secs * 1e6 <= kSloUs) s.within_slo++;
      if (!s.converged && index.converged()) {
        s.converged = true;
        s.converge_queries = q + 1;
        s.converge_s = s.cumulative_s;
      }
    }
    // First-query probes, spread evenly over the pass.
    while (probes_done < first_probes_ &&
           (probes_done + 1) * queries_.size() <=
               (q + 1) * (first_probes_ + 1)) {
      for (size_t i = 0; i < k; i++) {
        std::unique_ptr<IndexBase> probe =
            MakeBenchIndex(ids[i], column, machine_, delta_);
        const auto t0 = std::chrono::steady_clock::now();
        pass.probe_answers.push_back(probe->Query(queries_[0]));
        pass.first_s[i].push_back(SecondsSince(t0));
      }
      probes_done++;
    }
  }
  for (IndexPass& s : pass.results) {
    if (!s.converged) {
      s.converge_queries = queries_.size();
      s.converge_s = s.cumulative_s;
    }
  }
  return pass;
}

double SessionRunner::RunPass() {
  const auto start = std::chrono::steady_clock::now();
  Latencies latency;
  Pass pass = Interleaved(&latency);
  pass_p50_us_.push_back(latency.PercentileUs(0.50));
  pass_p99_us_.push_back(latency.PercentileUs(0.99));
  summary_.latency.MergeFrom(latency);
  for (size_t i = 0; i < acc_.size(); i++) {
    IndexPass& s = pass.results[i];
    PerIndex& a = acc_[i];
    a.cumulative.push_back(s.cumulative_s);
    a.construct.push_back(s.construct_s);
    a.first.insert(a.first.end(), pass.first_s[i].begin(),
                   pass.first_s[i].end());
    a.conv_s.push_back(s.converge_s);
    a.conv_q.push_back(static_cast<double>(s.converge_queries));
    within_slo_ += s.within_slo;
    within_slo_secs_ += s.cumulative_s;
    std::vector<double>& ps = summary_.phase_s[i];
    std::vector<double>& pq = summary_.phase_queries[i];
    ps.resize(s.phase_s.size(), 0);
    pq.resize(s.phase_s.size(), 0);
    for (size_t p = 0; p < s.phase_s.size(); p++) {
      ps[p] += s.phase_s[p];
      pq[p] += static_cast<double>(s.phase_queries[p]);
    }
    summary_.answers.push_back(std::move(s.answers));
  }
  summary_.first_probe_answers.insert(summary_.first_probe_answers.end(),
                                      pass.probe_answers.begin(),
                                      pass.probe_answers.end());
  summary_.reps++;
  return SecondsSince(start);
}

SessionSummary SessionRunner::Summarize(bool traced) {
  SessionSummary out = std::move(summary_);
  const double reps = static_cast<double>(std::max<size_t>(1, out.reps));
  const double k = static_cast<double>(acc_.size());
  for (size_t i = 0; i < acc_.size(); i++) {
    const PerIndex& a = acc_[i];
    out.cumulative_s.push_back(Median(a.cumulative));
    out.construct_s.push_back(Median(a.construct));
    out.first_query_ms += Median(a.first) * 1e3 / k;
    out.converge_each_s.push_back(Median(a.conv_s));
    out.converge_s += out.converge_each_s.back();
    out.converge_queries += Median(a.conv_q);
    out.session_s += out.cumulative_s.back();
    for (double& v : out.phase_s[i]) v /= reps;
    for (double& v : out.phase_queries[i]) v /= reps;
  }
  out.p50_us = Median(pass_p50_us_);
  out.p99_us = Median(pass_p99_us_);
  out.within_slo_per_s =
      within_slo_secs_ > 0
          ? static_cast<double>(within_slo_) / within_slo_secs_
          : 0;
  if (traced) {
    const size_t lanes = parallel::LanesOverrideForTesting();
    parallel::SetLanesForTesting(kParallelLanes);
    const uint64_t tasks0 = RegistryCounter("pool.tasks");
    const uint64_t steals0 = RegistryCounter("pool.steals");
    Pass pass = Interleaved(nullptr);
    out.pool_tasks = RegistryCounter("pool.tasks") - tasks0;
    out.pool_steals = RegistryCounter("pool.steals") - steals0;
    parallel::SetLanesForTesting(lanes);
    for (IndexPass& s : pass.results) {
      out.parallel_s.push_back(s.cumulative_s);
      out.answers.push_back(std::move(s.answers));
    }
    out.first_probe_answers.insert(out.first_probe_answers.end(),
                                   pass.probe_answers.begin(),
                                   pass.probe_answers.end());
  }
  return out;
}

SessionSummary RunSessions(size_t n, uint64_t seed,
                           const std::vector<RangeQuery>& queries,
                           const MachineConstants& machine, double delta,
                           double budget_s, size_t first_probes, bool traced,
                           SetupTimer* setup) {
  SessionRunner runner(n, seed, queries, machine, delta, first_probes);
  const auto start = std::chrono::steady_clock::now();
  double pass_s = 0;
  do {
    const auto pass_start = std::chrono::steady_clock::now();
    setup->Rep();
    runner.RunPass();
    pass_s = SecondsSince(pass_start);
  } while (SecondsSince(start) + pass_s <= budget_s);
  return runner.Summarize(traced);
}

void CheckSessions(const SessionSummary& s,
                   const std::vector<RangeQuery>& queries,
                   const PrefixOracle& oracle, Report* r) {
  std::vector<QueryResult> expected(queries.size());
  for (size_t i = 0; i < queries.size(); i++) {
    expected[i] = oracle.Answer(queries[i]);
  }
  for (const std::vector<QueryResult>& answers : s.answers) {
    for (size_t i = 0; i < answers.size(); i++) {
      r->attempted++;
      if (!(answers[i] == expected[i])) r->failed++;
    }
  }
  for (const QueryResult& answer : s.first_probe_answers) {
    r->attempted++;
    if (!(answer == expected[0])) r->failed++;
  }
}

void ReportSession(const SessionSummary& s, bool traced, Report* r) {
  const std::vector<std::string>& ids = IndexIds();
  r->E2E("first_query_ms", s.first_query_ms, "ms");
  for (size_t i = 0; i < ids.size(); i++) {
    r->E2E("cumulative_s." + ids[i], s.cumulative_s[i], "s");
  }
  r->E2E("converge_s", s.converge_s, "s");
  r->E2E("converge_queries", s.converge_queries, "count");
  r->Meta("session_reps", std::to_string(s.reps));
  if (!traced) return;
  for (size_t i = 0; i < ids.size(); i++) {
    const std::string core = "core." + ids[i] + ".";
    r->Layer(core + "construct_s", s.construct_s[i], "s");
    const std::vector<std::string>& phases = PhaseNames(ids[i]);
    for (size_t p = 0; p < phases.size(); p++) {
      r->Layer(core + phases[p] + "_s", s.phase_s[i][p], "s");
      r->Layer(core + phases[p] + "_queries", s.phase_queries[i][p], "count");
    }
    r->Layer("parallel.lane_speedup." + ids[i],
             s.parallel_s[i] > 0 ? s.cumulative_s[i] / s.parallel_s[i] : 0,
             "x");
  }
  r->Layer("parallel.pool_tasks", static_cast<double>(s.pool_tasks), "count");
  r->Layer("parallel.pool_steals", static_cast<double>(s.pool_steals),
           "count");
}

std::unique_ptr<IndexBase> MakeBenchIndex(const std::string& id,
                                          const Column& column,
                                          const MachineConstants& machine,
                                          double delta) {
  ProgressiveOptions options;
  options.machine = &machine;
  return MakeIndex(id, column, BudgetSpec::FixedDelta(delta), options);
}

const MachineConstants& PinnedMachineConstants() {
  static const MachineConstants pinned = [] {
    MachineConstants mc;
    mc.seq_read_secs = 1.05e-9;
    mc.seq_write_secs = 7.9e-10;
    mc.random_access_secs = 1.75e-7;
    mc.swap_secs = 1.3e-9;
    mc.alloc_secs = 3.3e-7;
    mc.bucket_scan_secs = 9.5e-10;
    mc.bucket_append_secs = 6.5e-9;
    mc.batch_lookup_secs = 1.6e-9;
    mc.sort_unit_scale = 4.1;
    const double scale[] = {1, 1, 2.5, 4.3, 6.0, 6.0, 6.0, 6.0, 6.0};
    for (size_t t = 0; t <= MachineConstants::kMaxThreadScale; t++) {
      mc.scan_scale[t] = scale[t];
    }
    mc.kernel_name = kernels::ActiveKernelName();
    return mc;
  }();
  return pinned;
}

void SetupTimer::Rep() {
  const auto t0 = std::chrono::steady_clock::now();
  const Column column = MakeColumn(n_, seed_);
  column_.push_back(SecondsSince(t0));
  MeasureMachineConstants();
  construct_(column, PinnedMachineConstants());
  total_.push_back(SecondsSince(t0));
}

void ReportKernels(const Column& column, Report* r) {
  const size_t n = column.size();
  const value_t* src = column.data();
  std::vector<value_t> dst(n);
  // Repeats `body` until ~0.3 s have passed (at least 3 times) and
  // returns GB/s of `bytes` per call at the median call time.
  auto gbps = [](double bytes, const std::function<void()>& body) {
    std::vector<double> secs;
    const auto start = std::chrono::steady_clock::now();
    while (secs.size() < 3 || SecondsSince(start) < 0.3) {
      const auto t0 = std::chrono::steady_clock::now();
      body();
      secs.push_back(SecondsSince(t0));
    }
    const double m = Median(secs);
    return m > 0 ? bytes / m / 1e9 : 0;
  };
  // The kernels are called through the dispatch table's function
  // pointers, so the compiler cannot drop the calls.
  const double elem = static_cast<double>(n * sizeof(value_t));
  const RangeQuery half{static_cast<value_t>(n / 4),
                        static_cast<value_t>(3 * n / 4)};
  // Read n values.
  r->Layer("kernels.scan_gbps", gbps(elem, [&] {
             kernels::RangeSumPredicated(src, n, half);
           }),
           "GB/s");
  // Read n values, write n values.
  r->Layer("kernels.partition_gbps", gbps(2 * elem, [&] {
             size_t lo = 0;
             int64_t hi = static_cast<int64_t>(n) - 1;
             kernels::PartitionTwoSided(src, n, static_cast<value_t>(n / 2),
                                        dst.data(), &lo, &hi);
           }),
           "GB/s");
  // One 8-bit LSD pass: histogram reads n, scatter reads n and writes n.
  const kernels::KernelOps& ops = kernels::Dispatch();
  r->Layer("kernels.radix_scatter_gbps", gbps(3 * elem, [&] {
             uint64_t counts[256] = {};
             ops.radix_histogram(src, n, 0, 0, 255u, counts);
             size_t offsets[256];
             size_t acc = 0;
             for (int d = 0; d < 256; d++) {
               offsets[d] = acc;
               acc += static_cast<size_t>(counts[d]);
             }
             ops.radix_scatter(src, n, 0, 0, 255u, dst.data(), offsets);
           }),
           "GB/s");
}

obs::LocalHistogram RegistryHistogram(const char* name) {
  obs::Registry& reg = obs::Registry::Global();
  return reg.SnapshotHistogram(reg.RegisterHistogram(name));
}

uint64_t RegistryCounter(const char* name) {
  obs::Registry& reg = obs::Registry::Global();
  return reg.CounterValue(reg.RegisterCounter(name));
}

obs::LocalHistogram HistogramDelta(const obs::LocalHistogram& before,
                                   const obs::LocalHistogram& after) {
  obs::LocalHistogram d;
  for (size_t b = 0; b < obs::Buckets::kCount; b++) {
    d.AccumulateBucket(b, after.counts()[b] - before.counts()[b]);
  }
  d.AccumulateTotals(after.total() - before.total(), after.sum() - before.sum());
  return d;
}

std::vector<uint64_t> SpanDurationsNs(const std::string& path,
                                      const char* name) {
  std::vector<uint64_t> out;
  std::ifstream in(path);
  const std::string key = std::string("{\"name\":\"") + name + "\"";
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const size_t at = line.find("\"dur\":");
    if (at == std::string::npos) continue;
    const double us = std::strtod(line.c_str() + at + 6, nullptr);
    out.push_back(static_cast<uint64_t>(us * 1e3 + 0.5));
  }
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void ReportCommon(Report* r, double setup_s, double p50_us, double p99_us,
                  const Latencies& latency, double slo_qps, double ops_per_s,
                  double recover_s, double peak_rss_mb) {
  r->E2E("setup_s", setup_s, "s");
  r->E2E("p50_us", p50_us, "us");
  r->E2E("p99_us", p99_us, "us");
  r->Meta("latency_samples", std::to_string(latency.count()));
  r->Meta("histogram_p50_p99_us", std::to_string(latency.HistogramUs(0.50)) +
                                      " " +
                                      std::to_string(latency.HistogramUs(0.99)));
  r->E2E("slo_qps", slo_qps, "1/s");
  r->E2E("ops_per_s", ops_per_s, "1/s");
  r->E2E("recover_s", recover_s, "s");
  r->E2E("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace perfbench
}  // namespace progidx
