// dashboard: many independent panels polling one read-only index behind
// serve::Server, so an open loop at a fixed offered rate. Runnable, but
// not in BENCHMARK.json: its latencies follow the shared host's
// contention spells (README.md, "dashboard is not measured").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "serve/server.h"

namespace progidx {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Load-side threads: the open-loop generator sends from at most this
/// many threads, each blocking in Server::Submit until answered.
constexpr size_t kGenerators = 4;

/// A rate whose generator sent later than this at p99 did not offer
/// its load, so it cannot count as meeting the SLO. The
/// generators share the 4 cores with the server's scheduler and pool
/// lanes, so they run late by up to an epoch while one runs; half the
/// latency limit leaves room for that and still rejects a generator
/// that fell behind.
constexpr double kLateLimitUs = kSloUs / 2;

/// Four times the paper's δ: the served index converges in about 290
/// single-request write epochs, under a third of a run, so that p50 falls
/// on the read-epoch path and p99 among the write epochs in every run
/// (README.md).
constexpr double kDashboardDelta = 4 * kDelta;

/// How long before a due time a generator stops sleeping and spins.
constexpr std::chrono::microseconds kSpin{200};

/// The offered rate (queries/s), how many runs it gets, and each run's
/// share of the serving time. The rate sits at an eighth of the
/// pre-convergence capacity of four blocking generators (~2000 q/s):
/// nearer to it, queueing behind the creation-phase epochs multiplied
/// the machine's speed swings into p99 swings of up to 8x, and a rung
/// above it (4000 q/s) never met the SLO, so it fed no metric
/// (README.md). A run of ~1000 requests puts under a third of them in
/// write epochs, so p99, a run's ~10th slowest request, lies inside the
/// write epochs' latencies. The rate's p99 is the median of six runs' p99s, so that
/// stalls of the shared machine during one or two runs cannot own it.
struct Plan {
  double rate;
  size_t runs;
  double share;
};
Plan Nominal(bool smoke) {
  return smoke ? Plan{200, 2, 0.45} : Plan{250, 6, 1.0 / 6};
}

/// Every run at the offered rate, merged: each run has a fresh index
/// and server (README.md).
struct Rung {
  double rate = 0;
  Latencies latency;  ///< answer time − scheduled send, every run
  /// Each run's p99 of that and of actual send − scheduled send. The
  /// rate's p99 is their median: pooling the runs' samples let one slow
  /// run own the tail (pooled p99 spread 1.5 over ten seeds).
  std::vector<double> run_p99_us, run_late_p99_us;
  size_t within_slo = 0;
  double wall_s = 0;      ///< summed: first scheduled send to last answer
  double backlog_us = 0;  ///< worst: last answer after the schedule's end
  uint64_t submitted = 0, answered = 0, read_epoch = 0, degraded = 0,
           shed = 0;
  obs::LocalHistogram epoch_size;
  obs::LocalHistogram queue_wait_ns;
  /// Each run's queries and answers, checked after the timed region.
  std::vector<std::pair<std::vector<RangeQuery>, std::vector<QueryResult>>>
      runs;

  double P99Us() const { return Median(run_p99_us); }
  double LateP99Us() const { return Median(run_late_p99_us); }
  bool MeetsSlo() const {
    return P99Us() <= kSloUs && LateP99Us() <= kLateLimitUs &&
           backlog_us <= kSloUs;
  }
};

/// One run at `rung->rate`: a fresh column, index and server, and
/// `queries` offered from kGenerators threads. Each request is due at
/// i / rate after the start and timed from that due time, so a stall
/// is charged to every request it delays.
void RunRung(size_t n, uint64_t seed, std::vector<RangeQuery> queries,
             const MachineConstants& machine, Rung* rung) {
  const double rate = rung->rate;
  std::vector<QueryResult> answers(queries.size());
  const Column column = MakeColumn(n, seed);  // fresh memory, as per pass
  auto index = MakeBenchIndex("pq", column, machine, kDashboardDelta);
  const obs::LocalHistogram epoch0 = RegistryHistogram("serve.epoch_size");
  const obs::LocalHistogram wait0 = RegistryHistogram("serve.queue_wait_ns");
  {
    serve::Server server(index.get(), column);
    std::atomic<size_t> next{0};
    std::vector<Latencies> latency(kGenerators), late(kGenerators);
    std::vector<size_t> within(kGenerators, 0);
    std::vector<Clock::time_point> last_done(kGenerators);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    auto due = [&](size_t i) {
      return start + std::chrono::nanoseconds(static_cast<int64_t>(
                         1e9 * static_cast<double>(i) / rate));
    };
    auto ns = [](Clock::duration d) {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    std::vector<std::thread> threads;
    for (size_t g = 0; g < kGenerators; g++) {
      threads.emplace_back([&, g] {
        last_done[g] = start;
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= queries.size()) return;
          const Clock::time_point scheduled = due(i);
          // Sleep to just short of the due time, then spin: a woken
          // thread would otherwise send late by the wake-up latency.
          std::this_thread::sleep_until(scheduled - kSpin);
          while (Clock::now() < scheduled) {
          }
          const Clock::time_point sent = Clock::now();
          answers[i] = server.Submit(queries[i]).result;
          const Clock::time_point done = Clock::now();
          latency[g].AddNs(ns(done - scheduled));
          late[g].AddNs(ns(sent - scheduled));
          if (static_cast<double>(ns(done - scheduled)) <= kSloUs * 1e3) {
            within[g]++;
          }
          last_done[g] = std::max(last_done[g], done);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Clock::time_point end = start;
    Latencies run_latency, run_late;
    for (size_t g = 0; g < kGenerators; g++) {
      run_latency.MergeFrom(latency[g]);
      run_late.MergeFrom(late[g]);
      rung->within_slo += within[g];
      end = std::max(end, last_done[g]);
    }
    rung->run_p99_us.push_back(run_latency.PercentileUs(0.99));
    rung->run_late_p99_us.push_back(run_late.PercentileUs(0.99));
    rung->latency.MergeFrom(run_latency);
    rung->wall_s += std::chrono::duration<double>(end - start).count();
    const Clock::time_point schedule_end = due(queries.size() - 1);
    if (end > schedule_end) {
      rung->backlog_us = std::max(
          rung->backlog_us,
          std::chrono::duration<double, std::micro>(end - schedule_end)
              .count());
    }
    const serve::ServeStats st = server.stats();
    rung->submitted += st.submitted;
    rung->answered += st.served + st.degraded + st.read_epoch;
    rung->read_epoch += st.read_epoch;
    rung->degraded += st.degraded;
    rung->shed += st.shed;
  }
  rung->epoch_size.MergeFrom(
      HistogramDelta(epoch0, RegistryHistogram("serve.epoch_size")));
  rung->queue_wait_ns.MergeFrom(
      HistogramDelta(wait0, RegistryHistogram("serve.queue_wait_ns")));
  rung->runs.emplace_back(std::move(queries), std::move(answers));
}

}  // namespace

void RunDashboard(const Options& opt, bool traced, Report* r) {
  const size_t n = opt.smoke ? (size_t{1} << 14) : (size_t{1} << 22);
  const size_t session_queries = opt.smoke ? 300 : 1000;
  const Plan plan = Nominal(opt.smoke);
  r->Meta("n", std::to_string(n));
  r->Meta("client_threads", std::to_string(kGenerators));
  r->Meta("delta", std::to_string(kDashboardDelta));
  r->Meta("durability", "off");
  r->Meta("offered_qps", std::to_string(static_cast<int>(plan.rate)) + "x" +
                             std::to_string(plan.runs));

  const MachineConstants& machine = PinnedMachineConstants();
  SetupTimer setup(n, opt.seed, [](const Column& c, const MachineConstants& mc) {
    auto index = MakeBenchIndex("pq", c, mc, kDashboardDelta);
    serve::Server server(index.get(), c);
  });

  const Column column = MakeColumn(n, opt.seed);
  const std::vector<RangeQuery> session_q =
      RandomRanges(n, session_queries, opt.seed + 1);
  // Four fifths of the measured time go to serving, the rest to a pass
  // of the four-index session after every second serving run, so both
  // sample the whole run. Nothing is persisted, so recover_s is what a
  // restart must rebuild: pq from scratch to convergence, as the
  // session measures it.
  SessionRunner sessions(n, opt.seed, session_q, machine, kDashboardDelta,
                         /*first_probes=*/2);
  const size_t count = std::max<size_t>(
      1, static_cast<size_t>(plan.rate * plan.share * opt.seconds * 0.8));
  Rung rung;
  rung.rate = plan.rate;
  for (size_t i = 0; i < plan.runs; i++) {
    setup.Rep();
    RunRung(n, opt.seed, RandomRanges(n, count, opt.seed + 100 + i), machine,
            &rung);
    if (i % 2 == 1 || i + 1 == plan.runs) sessions.RunPass();
  }
  const SessionSummary s = sessions.Summarize(traced);

  const double rss = PeakRssMb();
  const PrefixOracle oracle(column);
  CheckSessions(s, session_q, oracle, r);
  size_t sent = 0;
  for (const auto& [queries, answers] : rung.runs) {
    for (size_t j = 0; j < queries.size(); j++) {
      r->attempted++;
      if (!(answers[j] == oracle.Answer(queries[j]))) r->failed++;
    }
    sent += queries.size();
  }
  // Shed or never-answered requests count as failed.
  if (rung.answered < sent) r->failed += sent - rung.answered;
  std::printf(
      "rate %6.0f q/s x%zu: p50 %9.1f us  p99 %9.1f us  late_p99 %8.1f us  "
      "backlog %9.1f us  read_epoch %5.1f%%  epochs %llu  %s\n",
      rung.rate, rung.runs.size(), rung.latency.PercentileUs(0.5),
      rung.P99Us(), rung.LateP99Us(), rung.backlog_us,
      100.0 * static_cast<double>(rung.read_epoch) /
          static_cast<double>(std::max<uint64_t>(1, rung.submitted)),
      static_cast<unsigned long long>(rung.epoch_size.total()),
      rung.MeetsSlo() ? "meets SLO" : "misses SLO");
  // slo_qps: answers within the SLO per second at the offered rate. It
  // is reported whether or not the rate meets the SLO (the run line
  // and meets_slo say which), so a slow machine lowers the metric
  // instead of zeroing it; a generator that ran late never counts as
  // meeting it.
  const double slo_qps = static_cast<double>(rung.within_slo) / rung.wall_s;
  r->Meta("meets_slo", rung.MeetsSlo() ? "1" : "0");
  ReportSession(s, traced, r);
  ReportCommon(r, setup.median_s(), rung.latency.PercentileUs(0.50), rung.P99Us(),
               rung.latency, slo_qps,
               static_cast<double>(rung.latency.count()) / rung.wall_s,
               s.converge_each_s[0], rss);
  r->headline = rung.P99Us();
  r->headline_lower_better = true;
  if (traced) {
    const double submitted =
        static_cast<double>(std::max<uint64_t>(1, rung.submitted));
    r->Layer("storage.column_build_s", setup.column_median_s(), "s");
    ReportKernels(column, r);
    r->Layer("serve.epoch_size_mean", rung.epoch_size.Mean(), "count");
    r->Layer("serve.queue_wait_p99_us",
             static_cast<double>(rung.queue_wait_ns.ValueAtQuantile(0.99)) /
                 1e3,
             "us");
    r->Layer("serve.read_epoch_frac",
             static_cast<double>(rung.read_epoch) / submitted, "frac");
    r->Layer("serve.degraded_frac",
             static_cast<double>(rung.degraded) / submitted, "frac");
    r->Layer("serve.shed_frac",
             static_cast<double>(rung.shed) / submitted, "frac");
    r->Layer("gen.late_p99_us", rung.LateP99Us(), "us");
  }
}

}  // namespace perfbench
}  // namespace progidx
