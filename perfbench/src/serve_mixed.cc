// serve-mixed: the only workload where requests share the engine pool, the
// caches, the result store and the locks. One DiscoveryService, two client
// threads, each a closed loop over a fixed script:
//  - short: kTane requests on a small relation, each after a one-row
//    kAppend, so every timed request has a fresh store key; every
//    kRepeatEvery-th round instead resends the previous request unchanged,
//    a store hit that is counted but not timed.
//  - long: kHybridFd requests on a large relation, each with a fresh store
//    key (max_results differs, the answer does not).
// The clients run in lockstep rounds. In round k the short client first
// sends its append alone; then both submit at once and the round ends when
// both answers are back. So every short request starts together with a
// long one: which part of the long request it overlaps is fixed by the
// script, not by where two free-running loops happen to meet.
// The workload's op is the short request, timed from Submit to Wait.

#include <atomic>
#include <barrier>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "harness.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using famtree::DiscoveryService;
using famtree::Relation;
using famtree::ServeAlgorithm;
using famtree::ServeOutcome;
using famtree::ServeRequest;
using famtree::Value;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kEnginePool = 2;
constexpr int kMaxLhs = 3;
constexpr int kRepeatEvery = 8;
/// Append + kTane pairs setup runs alone; all but the first (cold) one
/// measure the solo short run time.
constexpr int kSoloOps = 9;
constexpr int kColumns = 6;
/// max_results far above any cover size: varying it varies only the key.
constexpr int kMaxResults = 100000;

/// Row r: a chain c0 -> c1 -> c2 plus three noise columns, all functions of
/// r; the seed shifts each column by an offset.
std::vector<Value> RowAt(uint64_t r, const int64_t* offset) {
  int64_t c0 = static_cast<int64_t>(Mix(r, 11) % 2000);
  int64_t cells[kColumns] = {c0,
                             c0 % 97,
                             c0 % 97 % 11,
                             static_cast<int64_t>(Mix(r, 13) % 500),
                             static_cast<int64_t>(Mix(r, 14) % 50),
                             static_cast<int64_t>(Mix(r, 15) % 5)};
  std::vector<Value> row;
  for (int c = 0; c < kColumns; ++c) row.emplace_back(cells[c] + offset[c]);
  return row;
}

Relation MakeRelation(int rows, uint64_t salt, const int64_t* offset) {
  famtree::RelationBuilder b({"c0", "c1", "c2", "c3", "c4", "c5"});
  for (int r = 0; r < rows; ++r) {
    b.AddRow(RowAt(static_cast<uint64_t>(r) * 2 + salt, offset));
  }
  return std::move(b.Build()).value();
}

struct Sizes {
  int small_rows;
  int large_rows;
};

struct State {
  Sizes sizes;
  int64_t offset[kColumns];
  std::unique_ptr<DiscoveryService> service;
  double solo_run_ms = 0.0;
  int64_t appended = 0;  // rows appended to "small" so far
};

ServeRequest ShortQuery() {
  ServeRequest q;
  q.client = "short";
  q.relation = "small";
  q.algorithm = ServeAlgorithm::kTane;
  q.params.max_lhs_size = kMaxLhs;
  q.params.max_results = kMaxResults;
  return q;
}

ServeRequest LongQuery(int64_t j) {
  ServeRequest q;
  q.client = "long";
  q.relation = "large";
  q.algorithm = ServeAlgorithm::kHybridFd;
  q.params.max_lhs_size = kMaxLhs;
  q.params.max_results = kMaxResults + static_cast<int>(j);
  return q;
}

/// The next append of the short client's script: it continues the small
/// relation's even structural rows.
ServeRequest NextAppend(State& s) {
  ServeRequest a;
  a.client = "short";
  a.relation = "small";
  a.algorithm = ServeAlgorithm::kAppend;
  uint64_t r = static_cast<uint64_t>(s.sizes.small_rows + s.appended++);
  a.append_rows.push_back(RowAt(r * 2, s.offset));
  return a;
}

/// Submit + Wait; "" when the outcome is OK and complete.
std::string Call(DiscoveryService& service, ServeRequest request,
                 ServeOutcome* out, double* seconds) {
  double t0 = Now();
  auto id = service.Submit(std::move(request));
  if (!id.ok()) return "Submit: " + id.status().message();
  auto outcome = service.Wait(*id);
  *seconds = Now() - t0;
  if (!outcome.ok()) return "Wait: " + outcome.status().message();
  *out = std::move(outcome).value();
  if (!out->status.ok()) return "outcome: " + out->status.message();
  if (out->degraded) return "outcome degraded";
  return "";
}

/// What one client thread saw.
struct ClientLog {
  explicit ClientLog(std::string name) : client(std::move(name)) {}
  std::string client;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> total_ms, queue_ms, run_ms, append_ms;
  /// Short client only: requests per second of each round, both clients'
  /// requests counted, and the calibration kernel's time after each round.
  std::vector<double> round_per_s, ref_ms;
  double peak_rss_mb = 0.0;  // after kRssOps rounds
  int64_t repeats = 0;  // store-hit repeats, counted but not timed
  ServeOutcome last;  // the last completed discovery answer

  void Record(int64_t op, const std::string& err) {
    ++attempted;
    if (err.empty()) return;
    ++failed;
    if (failures.size() < 4) {
      failures.push_back(client + " op " + std::to_string(op) + ": " + err);
    }
  }
};

/// What the two clients share: the round barrier and the stop flag the
/// short client sets before the start of a round.
struct Rounds {
  std::barrier<> sync{kClients};
  std::atomic<bool> stop{false};
};

void ShortClient(State& s, double deadline, Tracer& tracer, Rounds& rounds,
                 ClientLog* log) {
  ServeOutcome out;
  double seconds = 0.0;
  for (int64_t k = 0;; ++k) {
    double round_start = Now();
    bool go = round_start < deadline;
    bool repeat = k % kRepeatEvery == kRepeatEvery - 1;
    std::string err;
    if (go && !repeat) {
      {
        Span a(tracer, "serve.append", k);
        err = Call(*s.service, NextAppend(s), &out, &seconds);
      }
      log->Record(k, err);
      log->append_ms.push_back(seconds * 1e3);
    }
    rounds.stop.store(!go);
    rounds.sync.arrive_and_wait();  // round k starts
    if (!go) return;
    if (err.empty()) {
      Span span(tracer, "op", k);
      {
        Span q(tracer, "serve.short", k);
        err = Call(*s.service, ShortQuery(), &out, &seconds);
      }
      if (err.empty() && repeat && !out.store_hit) err = "repeat missed store";
      log->Record(k, err);
    }
    if (err.empty()) {
      if (repeat) {
        ++log->repeats;
      } else {
        log->total_ms.push_back(seconds * 1e3);
        log->queue_ms.push_back(out.queue_seconds * 1e3);
        log->run_ms.push_back(out.run_seconds * 1e3);
      }
      log->last = out;
    }
    rounds.sync.arrive_and_wait();  // round k ends
    if (err.empty()) {
      // The append (unless a repeat round), the short and the long request.
      double requests = repeat ? 2.0 : 3.0;
      log->round_per_s.push_back(requests / (Now() - round_start));
    }
    if (k + 1 == kRssOps) log->peak_rss_mb = PeakRssMb();
    // Untimed, while the long client waits for the next round.
    log->ref_ms.push_back(RefKernelMs());
  }
}

void LongClient(State& s, Tracer& tracer, Rounds& rounds, ClientLog* log) {
  ServeOutcome out;
  double seconds = 0.0;
  for (int64_t j = 0;; ++j) {
    rounds.sync.arrive_and_wait();
    if (rounds.stop.load()) return;
    std::string err;
    {
      Span q(tracer, "serve.long", j);
      err = Call(*s.service, LongQuery(j), &out, &seconds);
    }
    log->Record(j, err);
    if (err.empty()) {
      log->total_ms.push_back(seconds * 1e3);
      log->queue_ms.push_back(out.queue_seconds * 1e3);
      log->run_ms.push_back(out.run_seconds * 1e3);
      log->last = out;
    }
    rounds.sync.arrive_and_wait();
  }
}

}  // namespace

void RunServeMixed(const Args& args, Report* report, Tracer& tracer) {
  const Sizes sizes = args.tiny ? Sizes{2000, 8000} : Sizes{150000, 500000};
  report->threads = {kClients, kEnginePool, kWorkers};

  auto setup = [&]() -> std::unique_ptr<State> {
    auto s = std::make_unique<State>();
    s->sizes = sizes;
    Rng rng(args.seed);
    for (int64_t& o : s->offset) o = static_cast<int64_t>(rng.Below(1000000));
    famtree::ServiceOptions options;
    options.num_workers = kWorkers;
    options.engine_threads = kEnginePool;
    // The budget is accounting only; size it so that no attempt degrades.
    options.total_budget_bytes = 8ull << 30;
    options.default_slice_bytes = 2ull << 30;
    s->service = std::make_unique<DiscoveryService>(options);
    // "small" holds the even structural rows below 2 * small_rows (the
    // appends continue them), "large" odd ones.
    famtree::Status added = s->service->AddRelation(
        "small", MakeRelation(sizes.small_rows, 0, s->offset));
    if (added.ok()) {
      added = s->service->AddRelation(
          "large", MakeRelation(sizes.large_rows, 1, s->offset));
    }
    if (!added.ok()) {
      report->Fail(-1, "setup: " + added.message());
      return nullptr;
    }
    // Warm-up: the short client's first kSoloOps ops, alone (their median
    // run time is the solo base of serve.short_run_inflation), then one
    // long request.
    ServeOutcome out;
    double seconds;
    std::vector<double> solo;
    for (int i = 0; i < kSoloOps; ++i) {
      std::string err = Call(*s->service, NextAppend(*s), &out, &seconds);
      if (err.empty()) err = Call(*s->service, ShortQuery(), &out, &seconds);
      if (!err.empty()) {
        report->Fail(-1, "setup: " + err);
        return nullptr;
      }
      if (i > 0) solo.push_back(out.run_seconds * 1e3);
    }
    s->solo_run_ms = Quantile(solo, 0.5);
    std::string err = Call(*s->service, LongQuery(-1), &out, &seconds);
    if (!err.empty()) {
      report->Fail(-1, "setup: " + err);
      return nullptr;
    }
    return s;
  };

  std::vector<double> setup_s;
  std::unique_ptr<State> s = RepeatSetup<State>(setup, &setup_s);
  if (s == nullptr) return;

  DiscoveryService& service = *s->service;
  DiscoveryService::Stats before = service.stats();
  famtree::PliCache::Stats pli_before = service.engine().CacheStats();
  famtree::EvidenceCache::Stats evidence_before =
      service.engine().EvidenceStats();
  ClientLog short_log("short"), long_log("long");
  ResetPeakRss();
  double start = Now();
  double deadline = start + args.seconds;
  Rounds rounds;
  std::thread long_thread([&] { LongClient(*s, tracer, rounds, &long_log); });
  ShortClient(*s, deadline, tracer, rounds, &short_log);
  long_thread.join();
  DiscoveryService::Stats after = service.stats();

  for (const ClientLog* log : {&short_log, &long_log}) {
    report->attempted += log->attempted;
    report->failed += log->failed;
    report->failures.insert(report->failures.end(), log->failures.begin(),
                            log->failures.end());
  }
  if (report->failed > 0) report->correct = false;
  int64_t discovery_requests = static_cast<int64_t>(
      short_log.total_ms.size() + short_log.repeats + long_log.total_ms.size());
  SetEndToEnd(report, short_log.total_ms, short_log.round_per_s,
              short_log.ref_ms, setup_s, short_log.peak_rss_mb);

  LayerCounters counters;
  counters.AddEngine(service.engine().CacheStats(),
                     service.engine().EvidenceStats(), pli_before,
                     evidence_before);
  counters.Publish(report, std::max<int64_t>(1, discovery_requests));
  report->Set("serve.short_queue_ms", Quantile(short_log.queue_ms, 0.5));
  report->Set("serve.short_run_ms", Quantile(short_log.run_ms, 0.5));
  report->Set("serve.long_queue_ms", Quantile(long_log.queue_ms, 0.5));
  report->Set("serve.long_run_ms", Quantile(long_log.run_ms, 0.5));
  report->Set("serve.long_p50_ms", Quantile(long_log.total_ms, 0.5));
  report->Set("serve.append_ms", Quantile(short_log.append_ms, 0.5));
  report->Set("serve.solo_run_ms", s->solo_run_ms);
  if (s->solo_run_ms > 0) {
    report->Set("serve.short_run_inflation",
                Quantile(short_log.run_ms, 0.5) / s->solo_run_ms);
  }
  uint64_t hits = after.store_hits - before.store_hits;
  report->Set("serve.store_hit_base", static_cast<double>(discovery_requests));
  report->Set("serve.store_hit_ratio",
              discovery_requests > 0
                  ? static_cast<double>(hits) / discovery_requests
                  : 0.0);
  report->Set("serve.shared_flights",
              static_cast<double>(after.shared_flights - before.shared_flights));
  report->Set("serve.retries", static_cast<double>(after.retries - before.retries));
  report->Set("serve.rejected",
              static_cast<double>(after.rejected - before.rejected));
  report->Set("serve.degraded",
              static_cast<double>(after.degraded - before.degraded));

  // End of run, untimed. No task is lost, and the last short and long
  // answers equal direct engine calls on the same relation versions.
  if (after.submitted != after.completed) {
    report->FailFinal("submitted " + std::to_string(after.submitted) +
                      " != completed " + std::to_string(after.completed));
  }
  if (short_log.total_ms.empty() || long_log.total_ms.empty()) {
    report->FailFinal("a client completed no timed request");
    return;
  }
  auto small = service.SnapshotRelation("small");
  auto small_version = service.GetRelationVersion("small");
  auto large = service.SnapshotRelation("large");
  if (!small.ok() || !large.ok() || !small_version.ok() ||
      *small_version != short_log.last.relation_version) {
    report->FailFinal("last short answer is not on the final relation");
    return;
  }
  famtree::EngineOptions options;
  options.num_threads = kEnginePool;
  famtree::DiscoveryEngine direct(options);
  famtree::TaneOptions tane;
  tane.max_lhs_size = kMaxLhs;
  tane.max_results = kMaxResults;
  famtree::HybridFdOptions hybrid;
  hybrid.max_lhs_size = kMaxLhs;
  auto want_short = direct.Tane(*small, tane);
  auto want_long = direct.HybridFds(*large, hybrid);
  std::vector<CanonFd> got_short = Canonical(short_log.last.fds);
  if (args.sabotage && !got_short.empty()) got_short.pop_back();
  if (!want_short.ok() || Canonical(*want_short) != got_short) {
    report->FailFinal("last short answer != direct Tane");
  }
  if (!want_long.ok() ||
      Canonical(*want_long) != Canonical(long_log.last.fds)) {
    report->FailFinal("last long answer != direct HybridFds");
  }
  report->Set("discovery.cover_fds", static_cast<double>(got_short.size()));
}

}  // namespace perfbench
