// ingest: writers that await each durable acknowledgement, so a closed
// loop of kClients clients against an updatable index behind a durable
// serve::Server, followed by a cold restart (README.md).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/updatable_index.h"
#include "obs/trace.h"
#include "persist/calibration_store.h"
#include "perfbench/perfbench.h"
#include "serve/recovery.h"
#include "serve/server.h"

namespace progidx {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kClients = 4;

/// Serving slices per run; a set-up and session passes run between
/// them.
constexpr size_t kSlices = 9;

/// Cold restarts timed per run; recover_s is their median.
constexpr int kRestartReps = 15;

/// Delta share of the base that starts a merge: low enough that a run
/// completes several merges (README.md).
constexpr double kMergeThreshold = 0.001;

/// Merges a measured run must complete; with fewer, the updates layer
/// did not do the work the workload is there to measure, so the run
/// fails its checks.
constexpr size_t kMinMerges = 3;

/// Forwards every call to the served UpdatableIndex and, on the
/// scheduler thread — the only caller of Query/QueryBatch, and the
/// only thread that mutates the delta — samples the delta size after
/// each batch for updates.delta_peak.
class DeltaProbe : public IndexBase {
 public:
  explicit DeltaProbe(IndexBase* inner)
      : inner_(inner), updatable_(inner->AsUpdatable()) {}
  DeltaProbe(const DeltaProbe&) = delete;
  DeltaProbe& operator=(const DeltaProbe&) = delete;
  QueryResult Query(const RangeQuery& q) override {
    const QueryResult r = inner_->Query(q);
    Sample();
    return r;
  }
  void QueryBatch(const RangeQuery* qs, size_t count,
                  QueryResult* out) override {
    inner_->QueryBatch(qs, count, out);
    Sample();
  }
  bool converged() const override { return inner_->converged(); }
  double ConvergenceFraction() const override {
    return inner_->ConvergenceFraction();
  }
  bool TryReadOnlyQuery(const RangeQuery& q, QueryResult* out) const override {
    return inner_->TryReadOnlyQuery(q, out);
  }
  bool SupportsPersistence() const override {
    return inner_->SupportsPersistence();
  }
  const MachineConstants* machine_constants() const override {
    return inner_->machine_constants();
  }
  void SaveState(persist::Writer* w) const override { inner_->SaveState(w); }
  bool LoadState(persist::Reader* r) override { return inner_->LoadState(r); }
  std::string name() const override { return inner_->name(); }
  double last_predicted_cost() const override {
    return inner_->last_predicted_cost();
  }
  UpdatableIndex* AsUpdatable() override { return updatable_; }
  size_t delta_peak() const { return delta_peak_; }

 private:
  void Sample() {
    delta_peak_ = std::max(delta_peak_, updatable_->pending_count() +
                                            updatable_->tombstone_count());
  }
  IndexBase* const inner_;
  UpdatableIndex* const updatable_;
  size_t delta_peak_ = 0;
};

/// What one client saw.
struct ClientLog {
  std::vector<std::pair<RangeQuery, QueryResult>> reads;
  std::vector<uint64_t> latency_ns;
  size_t ops = 0;
  size_t updates = 0;
  size_t rejected = 0;
};

/// One closed-loop client: 80% reads of 1% ranges, 10% appends of
/// values in [0, n), 10% deletes of values it owns. A client owns the
/// base values congruent to it mod kClients plus its own acknowledged
/// appends, so no two clients ever delete the same occurrence and every
/// delete targets a present value (a served delete of an absent value
/// aborts the process; README.md). Read ranges start at distinct
/// offsets (again congruent to the client), so each read can be found
/// in the admitted log. Its state carries over from one serving slice
/// to the next.
class Client {
 public:
  Client(const Column& column, size_t c, uint64_t seed)
      : n_(column.size()),
        c_(c),
        width_(std::max<size_t>(1, n_ / 100)),
        starts_((n_ - width_ - c) / kClients + 1),
        used_(starts_, false),
        rng_(seed * 0x9e3779b97f4a7c15ull + c + 1) {
    for (const value_t v : column.values()) {
      if (static_cast<size_t>(v) % kClients == c) owned_.push_back(v);
    }
  }

  /// Sends requests, each after the previous one's answer, until
  /// `deadline`.
  void Run(serve::Server* server, Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      const uint64_t roll = rng_.NextBounded(10);
      ServeRequest req;
      size_t victim = 0;
      if (roll == 0) {
        req = ServeRequest::Append(static_cast<value_t>(rng_.NextBounded(n_)));
      } else if (roll == 1 && !owned_.empty()) {
        victim = rng_.NextBounded(owned_.size());
        req = ServeRequest::Delete(owned_[victim]);
      } else {
        size_t k = rng_.NextBounded(starts_);
        for (size_t tries = 0; used_[k] && tries < starts_; tries++) {
          k = (k + 1) % starts_;
        }
        if (used_[k]) return;  // every distinct read issued
        used_[k] = true;
        const value_t low = static_cast<value_t>(c_ + kClients * k);
        req = RangeQuery{low, low + static_cast<value_t>(width_) - 1};
      }
      const Clock::time_point t0 = Clock::now();
      const serve::Response resp = server->Submit(req);
      log_.latency_ns.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count()));
      log_.ops++;
      if (req.is_query()) {
        log_.reads.emplace_back(req.query, resp.result);
        continue;
      }
      log_.updates++;
      if (resp.rejected) {
        log_.rejected++;
      } else if (req.op == OpKind::kAppend) {
        owned_.push_back(req.value);
      } else {
        owned_[victim] = owned_.back();
        owned_.pop_back();
      }
    }
  }

  const ClientLog& log() const { return log_; }

 private:
  size_t n_, c_, width_, starts_;
  std::vector<value_t> owned_;
  std::vector<bool> used_;
  Rng rng_;
  ClientLog log_;
};

/// A plain multiset over the value domain [0, n): the oracle the
/// admitted log is replayed against.
class Multiset {
 public:
  explicit Multiset(const Column& column) : counts_(column.size(), 0) {
    for (const value_t v : column.values()) counts_[static_cast<size_t>(v)]++;
  }
  void Add(value_t v) { counts_[static_cast<size_t>(v)]++; }
  bool Remove(value_t v) {
    if (counts_[static_cast<size_t>(v)] == 0) return false;
    counts_[static_cast<size_t>(v)]--;
    return true;
  }
  QueryResult Answer(const RangeQuery& q) const {
    QueryResult r;
    const value_t top = static_cast<value_t>(counts_.size()) - 1;
    for (value_t v = std::max<value_t>(0, q.low); v <= std::min(q.high, top);
         v++) {
      r.count += counts_[static_cast<size_t>(v)];
      r.sum += v * counts_[static_cast<size_t>(v)];
    }
    return r;
  }

 private:
  std::vector<int64_t> counts_;
};

std::function<std::unique_ptr<IndexBase>(const MachineConstants&)> Factory(
    const Column& column) {
  return [&column](const MachineConstants& mc) {
    // The inner factory re-fires after every merge, so it owns a copy
    // of the pinned constants.
    auto pinned = std::make_shared<MachineConstants>(mc);
    UpdatableIndex::IndexFactory inner = [pinned](const Column& c) {
      return MakeBenchIndex("pq", c, *pinned, kDelta);
    };
    return std::unique_ptr<IndexBase>(new UpdatableIndex(
        std::vector<value_t>(column.values()), std::move(inner),
        kMergeThreshold));
  };
}

}  // namespace

void RunIngest(const Options& opt, bool traced, Report* r) {
  const size_t n = opt.smoke ? (size_t{1} << 14) : (size_t{1} << 18);
  const size_t session_queries = opt.smoke ? 300 : 1000;
  const std::string dir = opt.workdir + "/ingest-" + std::to_string(::getpid());
  r->Meta("n", std::to_string(n));
  r->Meta("client_threads", std::to_string(kClients));
  r->Meta("delta", std::to_string(kDelta));
  r->Meta("durability", "wal per epoch, snapshot every " +
                            std::to_string(serve::ServerConfig{}.checkpoint_every) +
                            " epochs");
  r->Meta("merge_threshold", std::to_string(kMergeThreshold));

  const MachineConstants& machine = PinnedMachineConstants();
  int setup_rep = 0;
  SetupTimer setup(n, opt.seed, [&](const Column& c, const MachineConstants& mc) {
    const std::string d = dir + "-setup" + std::to_string(setup_rep++);
    MachineConstants pin = mc;
    persist::PinOrLoadCalibration(d, &pin);
    serve::RecoveryStats rs;
    auto index = serve::RecoverIndex(d, c, Factory(c), &rs);
    serve::ServerConfig cfg;
    cfg.persist_dir = d;
    serve::Server server(index.get(), c, cfg);
  });

  const Column column = MakeColumn(n, opt.seed);
  const std::vector<RangeQuery> session_q =
      RandomRanges(n, session_queries, opt.seed + 1);
  SessionRunner sessions(n, opt.seed, session_q, machine, kDelta,
                         /*first_probes=*/8);

  // The serving run.
  // The directory is pinned to the run's constants before the first
  // open, so the served index and every recovery are priced by them.
  std::filesystem::remove_all(dir);
  MachineConstants pin = machine;
  persist::PinOrLoadCalibration(dir, &pin);
  serve::RecoveryStats fresh_stats;
  std::unique_ptr<IndexBase> index =
      serve::RecoverIndex(dir, column, Factory(column), &fresh_stats);
  DeltaProbe probe(index.get());
  if (traced) {
    // Start the serving run with empty span buffers, and with rings
    // (created by the server's and clients' threads) large enough to
    // keep every checkpoint and wal_fsync span.
    obs::FlushTrace();
    obs::SetRingCapacityForTesting(size_t{1} << 17);
  }
  const uint64_t wal0 = RegistryCounter("persist.wal_bytes");
  const obs::LocalHistogram epoch0 = RegistryHistogram("serve.epoch_size");
  const obs::LocalHistogram wait0 = RegistryHistogram("serve.queue_wait_ns");
  const uint64_t pub0 = RegistryCounter("persist.published_bytes");
  std::vector<Client> clients;
  for (size_t c = 0; c < kClients; c++) clients.emplace_back(column, c, opt.seed);
  std::vector<ServeRequest> admitted;
  std::vector<size_t> epoch_sizes;
  serve::ServeStats stats;
  double wall_s = 0;
  // Each slice's per-op latency quantiles. Their medians go to the run
  // metadata, not to p50_us/p99_us: a served op waits for a WAL fsync
  // on the shared disk, and in the host's I/O spells, which lasted
  // whole runs, they rose 1.5-1.8x (README.md).
  std::vector<double> slice_p50_us, slice_p99_us;
  {
    serve::ServerConfig cfg;
    cfg.persist_dir = dir;
    serve::Server server(&probe, column, cfg);
    // Serving in kSlices slices of 0.8 / kSlices of the measured time.
    // Before each slice a set-up is timed; after it the clients pause,
    // the server idles, and the four-index session runs passes for
    // 0.1 / kSlices of it, so set-ups and session samples span the run;
    // wall_s counts the slices only.
    const auto slice = std::chrono::nanoseconds(static_cast<int64_t>(
        opt.seconds * 0.8e9 / static_cast<double>(kSlices)));
    const double session_s = opt.seconds * 0.1 / static_cast<double>(kSlices);
    for (size_t i = 0; i < kSlices; i++) {
      setup.Rep();
      std::vector<size_t> mark;
      for (const Client& client : clients) {
        mark.push_back(client.log().latency_ns.size());
      }
      const Clock::time_point start = Clock::now();
      std::vector<std::thread> threads;
      for (Client& client : clients) {
        threads.emplace_back(
            [&server, &client, deadline = start + slice] {
              client.Run(&server, deadline);
            });
      }
      for (std::thread& t : threads) t.join();
      wall_s += std::chrono::duration<double>(Clock::now() - start).count();
      Latencies slice_latency;
      for (size_t c = 0; c < kClients; c++) {
        const std::vector<uint64_t>& ns = clients[c].log().latency_ns;
        for (size_t j = mark[c]; j < ns.size(); j++) slice_latency.AddNs(ns[j]);
      }
      slice_p50_us.push_back(slice_latency.PercentileUs(0.50));
      slice_p99_us.push_back(slice_latency.PercentileUs(0.99));
      const Clock::time_point pause = Clock::now();
      double pass_s = 0;
      do {
        pass_s = sessions.RunPass();
      } while (std::chrono::duration<double>(Clock::now() - pause).count() +
                   pass_s <=
               session_s);
    }
    stats = server.stats();
    admitted = server.admitted_log();
    epoch_sizes = server.epoch_sizes();
  }
  const SessionSummary s = sessions.Summarize(traced);
  const obs::LocalHistogram epoch_size =
      HistogramDelta(epoch0, RegistryHistogram("serve.epoch_size"));
  const obs::LocalHistogram queue_wait_ns =
      HistogramDelta(wait0, RegistryHistogram("serve.queue_wait_ns"));
  const double bytes =
      static_cast<double>(RegistryCounter("persist.wal_bytes") - wal0 +
                          RegistryCounter("persist.published_bytes") - pub0);
  std::vector<uint64_t> checkpoint_ns, fsync_ns;
  uint64_t dropped_spans = 0;
  if (traced) {
    dropped_spans = obs::DroppedSpans();
    obs::FlushTrace();
    checkpoint_ns = SpanDurationsNs(obs::TracePath(), "checkpoint");
    fsync_ns = SpanDurationsNs(obs::TracePath(), "wal_fsync");
    obs::SetRingCapacityForTesting(0);
  }
  const size_t merges = index->AsUpdatable()->merge_count();

  // Cold restart over the directory, to the first exact answer.
  std::vector<double> recover_s;
  std::unique_ptr<IndexBase> recovered;
  std::vector<QueryResult> first_answers;
  serve::RecoveryStats rec_stats;
  for (int i = 0; i < kRestartReps; i++) {
    recovered.reset();  // not timed: tearing down the previous restart
    const Clock::time_point t0 = Clock::now();
    recovered = serve::RecoverIndex(dir, column, Factory(column), &rec_stats);
    first_answers.push_back(recovered->Query(session_q[0]));
    recover_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const double rss = PeakRssMb();

  // Checks. Every op a client finished is attempted; a wrong or
  // unlocatable answer, a rejected update, or a delete of an absent
  // value in the log fails it.
  std::unordered_map<value_t, QueryResult> seen;
  size_t ops = 0, within_slo = 0;
  for (const Client& client : clients) {
    const ClientLog& log = client.log();
    for (const auto& [q, a] : log.reads) seen.emplace(q.low, a);
    for (const uint64_t ns : log.latency_ns) {
      if (static_cast<double>(ns) <= kSloUs * 1e3) within_slo++;
    }
    ops += log.ops;
    r->attempted += log.ops;
    r->failed += log.rejected;
  }
  Multiset truth(column);
  size_t logged = 0;
  for (const size_t size : epoch_sizes) logged += size;
  if (logged != admitted.size()) r->failed++;
  for (const ServeRequest& op : admitted) {
    if (op.op == OpKind::kAppend) {
      truth.Add(op.value);
    } else if (op.op == OpKind::kDelete) {
      if (!truth.Remove(op.value)) r->failed++;
    } else {
      auto it = seen.find(op.query.low);
      if (it == seen.end() || !(it->second == truth.Answer(op.query))) {
        r->failed++;
      }
      if (it != seen.end()) seen.erase(it);
    }
  }
  r->failed += seen.size();  // answered, but not in the admitted log
  // Probe the recovered index against the final multiset.
  std::vector<RangeQuery> probes = RandomRanges(n, 64, opt.seed + 7);
  probes.push_back(RangeQuery{0, static_cast<value_t>(n) - 1});
  for (const QueryResult& a : first_answers) {
    r->attempted++;
    if (!(a == truth.Answer(session_q[0]))) r->failed++;
  }
  for (const RangeQuery& q : probes) {
    r->attempted++;
    if (!(recovered->Query(q) == truth.Answer(q))) r->failed++;
  }
  if (rec_stats.log_queries != admitted.size()) r->failed++;
  if (!opt.smoke) {
    r->attempted++;
    if (merges < kMinMerges) {
      std::printf("ingest: FAIL %zu merges, fewer than %zu\n", merges,
                  kMinMerges);
      r->failed++;
    }
  }
  recovered.reset();
  index.reset();
  std::filesystem::remove_all(dir);
  for (int i = 0; i < setup_rep; i++) {
    std::filesystem::remove_all(dir + "-setup" + std::to_string(i));
  }

  const PrefixOracle oracle(column);
  CheckSessions(s, session_q, oracle, r);

  const double ops_per_s = static_cast<double>(ops) / wall_s;
  ReportSession(s, traced, r);
  ReportCommon(r, setup.median_s(), s.p50_us, s.p99_us, s.latency,
               static_cast<double>(within_slo) / wall_s, ops_per_s,
               Median(recover_s), rss);
  r->Meta("merges", std::to_string(merges));
  r->Meta("served_p50_p99_us", std::to_string(Median(slice_p50_us)) + " " +
                                   std::to_string(Median(slice_p99_us)));
  r->Meta("checkpoints", std::to_string(stats.checkpoints));
  r->headline = ops_per_s;
  r->headline_lower_better = false;
  std::printf("ingest: %zu ops in %.2f s, %llu epochs, %llu checkpoints, "
              "%zu merges, recovery replayed %llu of %llu ops\n",
              ops, wall_s, static_cast<unsigned long long>(epoch_sizes.size()),
              static_cast<unsigned long long>(stats.checkpoints), merges,
              static_cast<unsigned long long>(rec_stats.replayed_queries),
              static_cast<unsigned long long>(rec_stats.log_queries));
  if (!traced) return;
  size_t updates = 0, rejected = 0;
  for (const Client& client : clients) {
    updates += client.log().updates;
    rejected += client.log().rejected;
  }
  double stall_ns = 0;
  Latencies checkpoint, fsync;
  for (const uint64_t ns : checkpoint_ns) {
    stall_ns += static_cast<double>(ns);
    checkpoint.AddNs(ns);
  }
  for (const uint64_t ns : fsync_ns) {
    stall_ns += static_cast<double>(ns);
    fsync.AddNs(ns);
  }
  if (dropped_spans > 0) {
    std::printf("ingest: %llu trace spans dropped; persist spans incomplete\n",
                static_cast<unsigned long long>(dropped_spans));
  }
  std::printf("ingest: %.1f%% of wall time in checkpoint + wal_fsync spans\n",
              100 * stall_ns / (wall_s * 1e9));
  const double submitted =
      static_cast<double>(std::max<uint64_t>(1, stats.submitted));
  r->Layer("storage.column_build_s", setup.column_median_s(), "s");
  ReportKernels(column, r);
  r->Layer("serve.epoch_size_mean", epoch_size.Mean(), "count");
  r->Layer("serve.queue_wait_p99_us",
           static_cast<double>(queue_wait_ns.ValueAtQuantile(0.99)) / 1e3, "us");
  r->Layer("serve.read_epoch_frac",
           static_cast<double>(stats.read_epoch) / submitted, "frac");
  r->Layer("serve.degraded_frac",
           static_cast<double>(stats.degraded) / submitted, "frac");
  r->Layer("serve.shed_frac", static_cast<double>(stats.shed) / submitted,
           "frac");
  r->Layer("persist.checkpoints", static_cast<double>(stats.checkpoints),
           "count");
  r->Layer("persist.checkpoint_ms_p50", checkpoint.PercentileUs(0.5) / 1e3,
           "ms");
  r->Layer("persist.checkpoint_ms_max", checkpoint.PercentileUs(1.0) / 1e3,
           "ms");
  r->Layer("persist.wal_fsync_us_p50", fsync.PercentileUs(0.5), "us");
  r->Layer("persist.stall_frac", stall_ns / (wall_s * 1e9), "frac");
  r->Layer("persist.bytes_per_op", bytes / static_cast<double>(ops), "B");
  r->Layer("updates.merges", static_cast<double>(merges), "count");
  r->Layer("updates.delta_peak", static_cast<double>(probe.delta_peak()),
           "count");
  r->Layer("updates.rejected_frac",
           updates ? static_cast<double>(rejected) / static_cast<double>(updates)
                   : 0,
           "frac");
}

}  // namespace perfbench
}  // namespace progidx
