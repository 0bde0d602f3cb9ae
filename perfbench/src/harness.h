// Shared plumbing of the famtree benchmark: arguments, the seeded input
// generator, latency summaries, the in-memory span tracer, and the metric
// report that ends every run with one JSON line.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "discovery/hybrid/hybrid_fd.h"
#include "discovery/tane.h"
#include "engine/evidence_cache.h"
#include "engine/pli_cache.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the self-test: every workload finishes in a second.
  bool tiny = false;
  /// Self-test of the checks: corrupt the setup reference so that every
  /// check must fail.
  bool sabotage = false;
  /// Source revision, passed in by run.py (the binary cannot see git).
  std::string rev = "unknown";
};

/// splitmix64: the only source of randomness, so a seed fixes every input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Fixed structural hash of a row index: the "noise" columns are a function
/// of the row, not of the seed, so every seed yields an isomorphic input.
uint64_t Mix(uint64_t row, uint64_t salt);

/// A seeded permutation of [0, n).
std::vector<int> Permutation(int n, Rng& rng);

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
double Quantile(std::vector<double> values, double q);

/// Share of the samples TrimmedMean drops at each end.
inline constexpr double kTrim = 0.1;
/// Mean of the samples left after dropping the lowest and the highest
/// floor(n * kTrim) of them.
double TrimmedMean(std::vector<double> values);

/// The host's speed varies by up to 1.7x over seconds and minutes (see
/// perfbench/NOTES.md, "The host"), so every op is followed, untimed, by a
/// fixed calibration kernel: sorting, hashing, string and allocation work
/// of the same kind as famtree's, independent of famtree's code. Returns
/// the kernel's wall time in ms; the work is the same on every call.
double RefKernelMs();
/// A round figure near the kernel's time on the 4-vCPU guest the benchmark
/// was tuned on. It sets the scale of the normalized metrics only.
inline constexpr double kRefKernelMs = 5.0;

/// Starts a new peak-RSS window: returns freed memory to the OS and resets
/// the kernel's high-water mark, so that the peak covers the timed ops and
/// not setup or how the allocator kept freed setup memory.
void ResetPeakRss();
/// Peak RSS (VmHWM) since the last ResetPeakRss, or since process start.
double PeakRssMb();
/// peak_rss_mb is read after this many timed ops (rounds on serve-mixed),
/// not at the end of the run: the heap's high-water mark can creep up from
/// op to op, and a peak read at the end would then depend on how many ops
/// the host's speed let the run fit in.
inline constexpr int64_t kRssOps = 32;

/// Canonical, order-independent form of an FD cover.
using CanonFd = std::tuple<int, famtree::AttrSet, int>;
std::vector<CanonFd> Canonical(const std::vector<famtree::DiscoveredFd>& fds);

/// Thread counts every workload pins (never the hardware default).
struct Threads {
  int clients = 1;
  int engine_pool = 2;
  int serve_workers = 0;
};

// ----------------------------------------------------------------- tracing

/// In-memory span recorder. Spans are opened and closed around the
/// benchmark's own calls into each layer's public API; each span knows its
/// parent (the innermost open span on the same thread) and the op it
/// belongs to. Disabled tracers record nothing.
class Tracer {
 public:
  struct Record {
    const char* name;
    double start;
    double end;
    int parent;  // index into records, -1 at the root
    int64_t op;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, int64_t op);
  void End(int index);

  /// Per-name summary: calls, total and self time (duration minus the union
  /// of its children's intervals), median call duration.
  struct Summary {
    int64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    double p50_ms = 0.0;
  };
  std::map<std::string, Summary> Summarize() const;
  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int64_t op)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.Begin(name, op) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// ----------------------------------------------------------------- report

/// What a workload hands back: op counts, end-to-end metrics (untraced
/// run), per-layer metrics (traced run), and the configuration it ran.
/// Metrics are values by name; their units are declared once, in
/// BENCHMARK.json, and attached by run.py.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  Threads threads;
  std::vector<std::string> failures;  // first few, for the log

  void Fail(int64_t op, const std::string& what);
  /// A failed end-of-run check: it fails the run's last op.
  void FailFinal(const std::string& what) {
    Fail(attempted, "end of run: " + what);
    if (failed < attempted) ++failed;
  }
  void Set(const std::string& name, double value) { per_layer[name] = value; }
};

/// Engine and hybrid-miner counters summed over a run's timed ops, read
/// from the public stats of the engine (CacheStats / EvidenceStats) and
/// from HybridFdOptions::stats.
struct LayerCounters {
  famtree::PliCache::Stats pli;
  famtree::EvidenceCache::Stats evidence;
  famtree::HybridFdStats hybrid;

  /// Adds `after - before` of cumulative engine counters; the byte
  /// footprints are levels, so the latest one is kept.
  void AddEngine(const famtree::PliCache::Stats& after,
                 const famtree::EvidenceCache::Stats& evidence_after,
                 const famtree::PliCache::Stats& before = {},
                 const famtree::EvidenceCache::Stats& evidence_before = {});
  void AddHybrid(const famtree::HybridFdStats& stats);
  /// Publishes per-op averages and hit/valid ratios as per-layer metrics.
  void Publish(Report* report, int64_t ops) const;
};

/// Fills the end-to-end metrics every workload reports from its op
/// latencies (ms), its throughput samples (completed ops per second of one
/// closed-loop iteration, untimed work included), the calibration kernel's
/// times (ms, one after each op), its setup times (s) and the peak RSS of
/// the timed ops. Latency and throughput are trimmed means, because the
/// host switches between a fast and a slow speed every few seconds: a
/// trimmed mean moves in proportion to the share of a run spent slow,
/// where a median jumps from one speed to the other. Both are then
/// normalized to the reference host speed, kRefKernelMs over the kernel's
/// trimmed mean, because the share drifts over minutes. The raw values are
/// per-layer metrics. setup_s is the median of the setups, not normalized.
/// Called as soon as the timed ops end, so that the end-of-run checks do
/// not count towards the peak. `peak_rss_mb` is the peak after kRssOps
/// ops, or 0 when the run ended sooner, in which case the peak so far is
/// read here.
void SetEndToEnd(Report* report, const std::vector<double>& op_ms,
                 const std::vector<double>& ops_per_s,
                 const std::vector<double>& ref_ms,
                 const std::vector<double>& setup_s, double peak_rss_mb);

/// Times a standalone span-record cost and turns it into the tracing
/// overhead share of the traced run's op time.
double TracingOverheadPct(size_t spans, double traced_op_seconds);

/// Prints the span table and config lines, then the final JSON line, whose
/// metrics are the end-to-end ones (untraced) or the per-layer ones the
/// workload set (traced). Returns the process exit code.
int Emit(const Args& args, Report& report, const Tracer& tracer);

// ----------------------------------------------------------------- workloads

/// How many times each run repeats its setup; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Outcome of one timed op: the seconds its timed region took (input
/// generation and answer checks stay outside it) and whether every check
/// on its answers passed.
struct OpResult {
  double seconds = 0.0;
  bool ok = true;
};

/// Runs `setup` kSetupRepeats times from scratch, each after the previous
/// state is freed, and keeps the last state; `*setup_s` gets each time.
/// Returns null as soon as one setup fails.
template <typename State, typename SetupFn>
std::unique_ptr<State> RepeatSetup(SetupFn setup,
                                   std::vector<double>* setup_s) {
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    double t0 = Now();
    state = setup();
    setup_s->push_back(Now() - t0);
    if (state == nullptr) return nullptr;
  }
  return state;
}

/// Closed-loop runner shared by the one-client workloads: RepeatSetup,
/// then op 0, 1, 2, ... until `args.seconds` have passed, then the
/// end-to-end metrics. Op k depends only on the state's seed and k.
/// Returns the state for the workload's end-of-run checks, or null if
/// setup failed.
template <typename State, typename SetupFn, typename OpFn>
std::unique_ptr<State> RunClosedLoop(const Args& args, Report* report,
                                     SetupFn setup, OpFn op) {
  std::vector<double> setup_s;
  std::unique_ptr<State> state = RepeatSetup<State>(setup, &setup_s);
  if (state == nullptr) return nullptr;
  std::vector<double> op_ms, ops_per_s, ref_ms;
  double peak_rss_mb = 0.0;
  ResetPeakRss();
  double start = Now();
  for (int64_t k = 0; Now() - start < args.seconds; ++k) {
    double t0 = Now();
    OpResult r = op(*state, k);
    ++report->attempted;
    if (!r.ok) {
      ++report->failed;
      report->correct = false;
    }
    op_ms.push_back(r.seconds * 1e3);
    if (r.ok) ops_per_s.push_back(1.0 / (Now() - t0));
    if (k + 1 == kRssOps) peak_rss_mb = PeakRssMb();
    ref_ms.push_back(RefKernelMs());
  }
  SetEndToEnd(report, op_ms, ops_per_s, ref_ms, setup_s, peak_rss_mb);
  return state;
}

void RunCsvToCover(const Args& args, Report* report, Tracer& tracer);
void RunPairwiseRules(const Args& args, Report* report, Tracer& tracer);
void RunAppendRepair(const Args& args, Report* report, Tracer& tracer);
void RunServeMixed(const Args& args, Report* report, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
