// Engine scaling bench on the synthetic 36k-row hotel workload: every
// miner and quality application runs serially and at 1/2/8 threads with a
// shared PLI cache, the pairwise consumers rerun cold vs served from the
// engine-wide evidence store, and further sections sweep deadlines and
// compare the hybrid engine with the lattice. Exits nonzero if any run
// deviates from its row's 1-thread result — speedups are
// hardware-dependent, byte-identity is not. Correctness against
// brute-force oracles lives in tests/miner_oracle_test.cc. Writes
// BENCH_engine.json with every timing so EXPERIMENTS.md tables regenerate
// from one artifact.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/cfd_discovery.h"
#include "discovery/cords.h"
#include "discovery/dd_discovery.h"
#include "discovery/fastdc.h"
#include "discovery/fastfd.h"
#include "discovery/hybrid/hybrid_fd.h"
#include "discovery/hybrid/hybrid_md.h"
#include "discovery/md_discovery.h"
#include "discovery/metric_discovery.h"
#include "discovery/mvd_discovery.h"
#include "discovery/ned_discovery.h"
#include "discovery/od_discovery.h"
#include "discovery/pfd_discovery.h"
#include "discovery/tane.h"
#include "engine/evidence_cache.h"
#include "engine/pli_cache.h"
#include "gen/generators.h"
#include "metric/metric.h"
#include "quality/dedup.h"
#include "quality/repair.h"
#include "relation/csv.h"

namespace famtree {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool SameFds(const std::vector<DiscoveredFd>& a,
             const std::vector<DiscoveredFd>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lhs != b[i].lhs || a[i].rhs != b[i].rhs ||
        a[i].error != b[i].error) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::string name;
  double serial_ms = 0;  // no pool, no cache
  double one_thread_ms = 0;
  double two_thread_ms = 0;
  double eight_thread_ms = 0;
  bool identical = true;
};

void PrintRow(const Row& row) {
  std::printf("| %-22s | %9.1f | %8.1f | %8.1f | %8.1f | %-9s |\n",
              row.name.c_str(), row.serial_ms, row.one_thread_ms,
              row.two_thread_ms, row.eight_thread_ms,
              row.identical ? "identical" : "MISMATCH");
}

/// One row of the evidence-store grid: a pairwise consumer run serially
/// with a cold kernel build (no store) vs served from the shared evidence
/// store (hit).
struct PairwiseRow {
  std::string name;
  double kernel_ms = 0;  // evidence kernel, no store (cold build)
  double cached_ms = 0;  // evidence kernel, shared-store hit
  bool identical = true;
};

void PrintPairwiseRow(const PairwiseRow& row) {
  std::printf("| %-22s | %9.1f | %8.1f | %-9s |\n", row.name.c_str(),
              row.kernel_ms, row.cached_ms,
              row.identical ? "identical" : "MISMATCH");
}

/// Runs one pairwise consumer through the evidence-store grid. `options`
/// carries the workload knobs; the pool is off so the store is the only
/// variable. The store run executes twice — the first populates
/// `evidence`, the second times the hit.
template <typename Options, typename Runner, typename Same>
bool BenchPairwise(const std::string& name, Options options, Runner run,
                   Same same, EvidenceCache* evidence,
                   std::vector<PairwiseRow>* rows, bool* all_identical) {
  PairwiseRow row{name};
  Options cold = options;
  cold.pool = nullptr;
  cold.evidence = nullptr;
  auto start = std::chrono::steady_clock::now();
  auto kernel = run(cold);
  row.kernel_ms = MillisSince(start);
  if (!kernel.ok()) return false;
  Options stored = cold;
  stored.evidence = evidence;
  auto warm = run(stored);
  if (!warm.ok()) return false;
  start = std::chrono::steady_clock::now();
  auto hit = run(stored);
  row.cached_ms = MillisSince(start);
  if (!hit.ok()) return false;
  row.identical = same(*kernel, *warm) && same(*kernel, *hit);
  *all_identical = *all_identical && row.identical;
  PrintPairwiseRow(row);
  rows->push_back(row);
  return true;
}

/// One row of the anytime sweep: the same 8-thread run re-executed under
/// deadlines of 25/50/100% of its own full-run time, recording the
/// fraction of the full result list each budget delivers, plus the
/// latency from flipping a cancel token to the driver returning.
struct DeadlineRow {
  std::string name;
  double full_ms = 0;
  int64_t full_count = 0;
  double completeness_25 = 0;
  double completeness_50 = 0;
  double completeness_100 = 0;
  double cancel_latency_ms = 0;
};

void PrintDeadlineRow(const DeadlineRow& row) {
  std::printf("| %-22s | %8.1f | %6lld | %6.2f | %6.2f | %6.2f | %9.2f |\n",
              row.name.c_str(), row.full_ms,
              static_cast<long long>(row.full_count), row.completeness_25,
              row.completeness_50, row.completeness_100,
              row.cancel_latency_ms);
}

/// One row of the hybrid-vs-lattice scaling grid: the hybrid sampling +
/// induction FD engine (src/discovery/hybrid/) against the TANE lattice
/// oracle on the same planted-FD relation, both serial on the encoded
/// path. Identity of the minimal cover is the hard check; the speedup
/// column is what the frontier validation saves against a full lattice
/// sweep.
struct HybridFdRow {
  std::string name;
  int rows = 0;
  double lattice_ms = 0;  // serial TANE, exact FDs
  double hybrid_ms = 0;   // serial DiscoverFdsHybrid
  HybridFdStats stats;
  bool identical = true;
  double speedup() const {
    return hybrid_ms > 0 ? lattice_ms / hybrid_ms : 0.0;
  }
};

/// One row of the MD consumer grid: DiscoverMdsHybrid (the second cover-
/// tree consumer) against DiscoverMds at full confidence. Sizes past the
/// O(n^2) evidence wall run both sides on the same row sample.
struct HybridMdRow {
  std::string name;
  int rows = 0;
  int sample_rows = 0;  // 0 = full evidence
  double oracle_ms = 0;
  double hybrid_ms = 0;
  HybridMdStats stats;
  bool identical = true;
  double speedup() const {
    return hybrid_ms > 0 ? oracle_ms / hybrid_ms : 0.0;
  }
};

void PrintHybridRow(const std::string& name, int rows, double oracle_ms,
                    double hybrid_ms, double speedup, const char* counters,
                    bool identical) {
  std::printf("| %-7s | %7d | %9.1f | %9.1f | %7.2fx | %-26s | %-9s |\n",
              name.c_str(), rows, oracle_ms, hybrid_ms, speedup, counters,
              identical ? "identical" : "MISMATCH");
}

/// FD covers compare as sets: TANE emits in lattice-walk order, the hybrid
/// in canonical (|lhs|, lhs.mask, rhs) order, and both orders are
/// deterministic — so sort both sides by the canonical key and require
/// exact equality, errors included.
bool SameFdCover(std::vector<DiscoveredFd> a, std::vector<DiscoveredFd> b) {
  auto less = [](const DiscoveredFd& x, const DiscoveredFd& y) {
    if (x.lhs.size() != y.lhs.size()) return x.lhs.size() < y.lhs.size();
    if (x.lhs != y.lhs) return x.lhs < y.lhs;
    if (x.rhs != y.rhs) return x.rhs < y.rhs;
    return x.error < y.error;
  };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lhs != b[i].lhs || a[i].rhs != b[i].rhs ||
        a[i].error != b[i].error) {
      return false;
    }
  }
  return true;
}

/// MD lists compare in order — the hybrid mirrors the oracle's candidate
/// enumeration, so output order, supports, and confidences must all match.
bool SameMdList(const std::vector<DiscoveredMd>& a,
                const std::vector<DiscoveredMd>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].md.ToString() != b[i].md.ToString() ||
        a[i].support != b[i].support || a[i].confidence != b[i].confidence) {
      return false;
    }
  }
  return true;
}

/// Planted-FD integer relation at a parameterized row count — the shape of
/// tests/hybrid_scale_test.cc widened to 8 attributes so the lattice has
/// real work at max_lhs_size 3: c1 -> c2, {c1, c3} -> c0, and
/// {c4, c5} -> c6 hold by construction, c7 is noise, and no column is a
/// key at scale (domains are small), so TANE gets little pruning help.
Relation MakePlantedRelation(int rows) {
  Rng rng(20260809);
  RelationBuilder b({"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"});
  for (int r = 0; r < rows; ++r) {
    int64_t c1 = rng.Uniform(0, 999);
    int64_t c3 = rng.Uniform(0, 7);
    int64_t c4 = rng.Uniform(0, 49);
    int64_t c5 = rng.Uniform(0, 19);
    int64_t c7 = rng.Uniform(0, 99);
    int64_t c2 = (c1 * 7 + 3) % 911;
    int64_t c0 = c1 * 100 + c3 * 13;
    int64_t c6 = (c4 * 3 + c5 * 11) % 23;
    b.AddRow({Value(c0), Value(c1), Value(c2), Value(c3), Value(c4),
              Value(c5), Value(c6), Value(c7)});
  }
  return std::move(b.Build()).value();
}

/// 100-column planted relation for the wide-schema row: impossible before
/// AttrSet widened past 63 attributes. c0 -> c70 is the planted FD (its
/// attribute pair straddles the 64-bit word seam); the 98 noise columns
/// are high-domain so sampled tuple pairs rarely agree anywhere — the
/// hybrid's negative cover stays small, as on real wide tables. (Low-
/// domain noise across ~100 columns makes nearly every pair produce a
/// fresh distinct agree set, which blows the cover up combinatorially.)
Relation MakeWideRelation(int rows) {
  Rng rng(20260810);
  std::vector<std::string> names;
  names.reserve(100);
  for (int c = 0; c < 100; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.reserve(100);
    for (int c = 0; c < 100; ++c) row.push_back(Value(rng.Uniform(0, 99'999)));
    int64_t c0 = rng.Uniform(0, 999);
    row[0] = Value(c0);
    row[70] = Value((c0 * 7 + 3) % 911);
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

/// Runs `run` (which must honor options-borne RunContext limits and return
/// its result count) through the deadline sweep and the cancellation-
/// latency probe, always on an 8-thread pool.
bool BenchDeadline(const std::string& name,
                   const std::function<Result<int64_t>(ThreadPool*,
                                                       RunContext*)>& run,
                   std::vector<DeadlineRow>* rows) {
  DeadlineRow row{name};
  ThreadPool pool(8);
  auto start = std::chrono::steady_clock::now();
  auto full = run(&pool, nullptr);
  row.full_ms = MillisSince(start);
  if (!full.ok()) return false;
  row.full_count = *full;
  for (double frac : {0.25, 0.5, 1.0}) {
    RunContext ctx;
    ctx.set_timeout(std::chrono::nanoseconds(
        static_cast<int64_t>(frac * row.full_ms * 1e6)));
    auto partial = run(&pool, &ctx);
    if (!partial.ok()) return false;
    double completeness =
        row.full_count > 0
            ? static_cast<double>(*partial) / row.full_count
            : 1.0;
    (frac == 0.25   ? row.completeness_25
     : frac == 0.5  ? row.completeness_50
                    : row.completeness_100) = completeness;
  }
  {
    // Cancel from another thread ~30% into the run; the latency is the
    // gap between the token flipping and the driver returning.
    CancelToken token;
    RunContext ctx;
    ctx.set_cancel_token(&token);
    std::chrono::steady_clock::time_point cancel_at;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::max(0.5, row.full_ms * 0.3)));
      cancel_at = std::chrono::steady_clock::now();
      token.Cancel();
    });
    auto result = run(&pool, &ctx);
    auto returned = std::chrono::steady_clock::now();
    canceller.join();
    if (!result.ok()) return false;
    row.cancel_latency_ms = std::max(
        0.0, std::chrono::duration<double, std::milli>(returned - cancel_at)
                 .count());
  }
  PrintDeadlineRow(row);
  rows->push_back(row);
  return true;
}

void WriteJson(const std::vector<Row>& rows,
               const std::vector<PairwiseRow>& pairwise,
               const std::vector<DeadlineRow>& deadlines,
               const std::vector<HybridFdRow>& hybrid_fd,
               const std::vector<HybridMdRow>& hybrid_md, int num_rows,
               int num_columns, const PliCache::Stats& cache_stats,
               const EvidenceCache::Stats& evidence_stats) {
  std::FILE* f = std::fopen("BENCH_engine.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"workload\": {\"rows\": %d, \"columns\": %d},\n",
               num_rows, num_columns);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"serial_ms\": %.3f, "
                 "\"parallel_ms\": {\"1\": %.3f, \"2\": %.3f, "
                 "\"8\": %.3f}, \"identical\": %s}%s\n",
                 r.name.c_str(), r.serial_ms, r.one_thread_ms,
                 r.two_thread_ms, r.eight_thread_ms,
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"pairwise\": [\n");
  for (size_t i = 0; i < pairwise.size(); ++i) {
    const PairwiseRow& r = pairwise[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"kernel_ms\": %.3f, "
                 "\"cache_hit_ms\": %.3f, \"identical\": %s}%s\n",
                 r.name.c_str(), r.kernel_ms, r.cached_ms,
                 r.identical ? "true" : "false",
                 i + 1 < pairwise.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"deadline_sweep\": [\n");
  for (size_t i = 0; i < deadlines.size(); ++i) {
    const DeadlineRow& r = deadlines[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"full_ms\": %.3f, "
                 "\"full_results\": %lld, \"completeness\": {\"25\": %.4f, "
                 "\"50\": %.4f, \"100\": %.4f}, "
                 "\"cancel_latency_ms\": %.3f}%s\n",
                 r.name.c_str(), r.full_ms,
                 static_cast<long long>(r.full_count), r.completeness_25,
                 r.completeness_50, r.completeness_100, r.cancel_latency_ms,
                 i + 1 < deadlines.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hybrid_fd\": [\n");
  for (size_t i = 0; i < hybrid_fd.size(); ++i) {
    const HybridFdRow& r = hybrid_fd[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"rows\": %d, \"lattice_ms\": %.3f, "
                 "\"hybrid_ms\": %.3f, \"speedup\": %.3f, "
                 "\"sampling_passes\": %lld, \"sampled_pairs\": %lld, "
                 "\"sampled_agree_sets\": %lld, \"feedback_agree_sets\": "
                 "%lld, \"frontier_checks\": %lld, \"frontier_violations\": "
                 "%lld, \"identical\": %s}%s\n",
                 r.name.c_str(), r.rows, r.lattice_ms, r.hybrid_ms,
                 r.speedup(), static_cast<long long>(r.stats.sampling_passes),
                 static_cast<long long>(r.stats.sampled_pairs),
                 static_cast<long long>(r.stats.sampled_agree_sets),
                 static_cast<long long>(r.stats.feedback_agree_sets),
                 static_cast<long long>(r.stats.frontier_checks),
                 static_cast<long long>(r.stats.frontier_violations),
                 r.identical ? "true" : "false",
                 i + 1 < hybrid_fd.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hybrid_md\": [\n");
  for (size_t i = 0; i < hybrid_md.size(); ++i) {
    const HybridMdRow& r = hybrid_md[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"rows\": %d, \"sample_rows\": %d, "
                 "\"oracle_ms\": %.3f, \"hybrid_ms\": %.3f, "
                 "\"speedup\": %.3f, \"predicate_bits\": %lld, "
                 "\"evidence_words\": %lld, \"violating_words\": %lld, "
                 "\"negative_cover\": %lld, \"positive_cover\": %lld, "
                 "\"candidates\": %lld, \"valid_candidates\": %lld, "
                 "\"identical\": %s}%s\n",
                 r.name.c_str(), r.rows, r.sample_rows, r.oracle_ms,
                 r.hybrid_ms, r.speedup(),
                 static_cast<long long>(r.stats.predicate_bits),
                 static_cast<long long>(r.stats.evidence_words),
                 static_cast<long long>(r.stats.violating_words),
                 static_cast<long long>(r.stats.negative_cover_size),
                 static_cast<long long>(r.stats.positive_cover_size),
                 static_cast<long long>(r.stats.candidates),
                 static_cast<long long>(r.stats.valid_candidates),
                 r.identical ? "true" : "false",
                 i + 1 < hybrid_md.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"evidence_cache\": {\"hits\": %lld, \"misses\": %lld, "
               "\"evictions\": %lld, \"builds\": %lld, \"bytes\": %zu},\n",
               static_cast<long long>(evidence_stats.hits),
               static_cast<long long>(evidence_stats.misses),
               static_cast<long long>(evidence_stats.evictions),
               static_cast<long long>(evidence_stats.builds),
               evidence_stats.bytes);
  std::fprintf(f,
               "  \"pli_cache_8_thread_tane\": {\"hits\": %lld, "
               "\"misses\": %lld, \"evictions\": %lld, \"builds\": %lld, "
               "\"bytes\": %zu}\n}\n",
               static_cast<long long>(cache_stats.hits),
               static_cast<long long>(cache_stats.misses),
               static_cast<long long>(cache_stats.evictions),
               static_cast<long long>(cache_stats.builds), cache_stats.bytes);
  std::fclose(f);
}

/// Runs one algorithm through the standard grid — 1-thread with a fresh
/// PLI cache (the row's reference), serial without pool or cache, and
/// 2/8 threads with a fresh cache — and records the row. `run` invokes the
/// algorithm with the given options; `same` compares an output against
/// the 1-thread one. Options without a `cache` hook run pool-only.
/// `eight_thread_cache` (optional) receives the 8-thread cache counters.
/// Returns false on an algorithm error.
template <typename Options, typename Runner, typename Same>
bool BenchPorted(const std::string& name, const Relation& relation,
                 Options options, Runner run, Same same,
                 std::vector<Row>* rows, bool* all_identical,
                 PliCache::Stats* eight_thread_cache = nullptr) {
  Row row{name};
  auto timed = [&](int threads, double* ms) {
    ThreadPool pool(std::max(threads, 1));
    PliCache cache(relation);
    Options o = options;
    o.pool = threads > 0 ? &pool : nullptr;
    if constexpr (requires { o.cache; }) {
      o.cache = threads > 0 ? &cache : nullptr;
    }
    auto start = std::chrono::steady_clock::now();
    auto result = run(o);
    *ms = MillisSince(start);
    if (threads == 8 && eight_thread_cache != nullptr) {
      *eight_thread_cache = cache.stats();
    }
    return result;
  };
  auto reference = timed(1, &row.one_thread_ms);
  if (!reference.ok()) return false;
  for (auto [threads, ms] : {std::pair{0, &row.serial_ms},
                             std::pair{2, &row.two_thread_ms},
                             std::pair{8, &row.eight_thread_ms}}) {
    auto result = timed(threads, ms);
    if (!result.ok()) return false;
    row.identical = row.identical && same(*reference, *result);
  }
  *all_identical = *all_identical && row.identical;
  PrintRow(row);
  rows->push_back(row);
  return true;
}

}  // namespace

int Run() {
  HotelConfig config;
  config.num_hotels = 12000;
  config.rows_per_hotel = 3;
  config.variation_rate = 0.3;
  config.error_rate = 0.02;
  GeneratedData data = GenerateHotels(config);
  const Relation& hotels = data.relation;
  std::printf("hotel relation: %d rows x %d columns\n\n", hotels.num_rows(),
              hotels.num_columns());
  std::printf(
      "| %-22s | serial ms | 1-thr ms | 2-thr ms | 8-thr ms | result    |\n",
      "benchmark");
  std::printf(
      "|------------------------|-----------|----------|----------|----------"
      "|-----------|\n");

  bool all_identical = true;
  std::vector<Row> rows;
  PliCache::Stats tane_cache_stats;
  auto same_fds = [](const std::vector<DiscoveredFd>& a,
                     const std::vector<DiscoveredFd>& b) {
    return SameFds(a, b);
  };

  // TANE in AFD mode: the g3 validity tests dominate.
  TaneOptions tane_options;
  tane_options.max_error = 0.05;
  tane_options.max_lhs_size = 3;
  if (!BenchPorted(
          "tane g3<=0.05", hotels, tane_options,
          [&](const TaneOptions& o) { return DiscoverFdsTane(hotels, o); },
          same_fds, &rows, &all_identical, &tane_cache_stats)) {
    return 2;
  }

  // FastFDs on a slice (difference sets are quadratic in rows).
  std::vector<int> slice500;
  for (int i = 0; i < 500 && i < hotels.num_rows(); ++i) {
    slice500.push_back(i);
  }
  Relation ff_slice = hotels.Select(slice500);
  if (!BenchPorted(
          "fastfd 500-row slice", ff_slice, FastFdOptions{},
          [&](const FastFdOptions& o) {
            return DiscoverFdsFastFd(ff_slice, o);
          },
          same_fds, &rows, &all_identical)) {
    return 2;
  }

  // FASTDC evidence sets on a slice of the hotel table.
  std::vector<int> slice300;
  for (int i = 0; i < 300 && i < hotels.num_rows(); ++i) {
    slice300.push_back(i);
  }
  Relation dc_slice = hotels.Select(slice300);
  FastDcOptions dc_options;
  dc_options.max_predicates = 3;
  auto same_dcs = [](const std::vector<DiscoveredDc>& a,
                     const std::vector<DiscoveredDc>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].dc.ToString() != b[i].dc.ToString() ||
          a[i].violation_fraction != b[i].violation_fraction) {
        return false;
      }
    }
    return true;
  };
  if (!BenchPorted(
          "fastdc 300-row slice", dc_slice, dc_options,
          [&](const FastDcOptions& o) { return DiscoverDcs(dc_slice, o); },
          same_dcs, &rows, &all_identical)) {
    return 2;
  }

  // CORDS column-pair sweep over the full relation.
  if (!BenchPorted(
          "cords full sweep", hotels, CordsOptions{},
          [&](const CordsOptions& o) { return DiscoverSfdsCords(hotels, o); },
          [](const std::vector<DiscoveredSfd>& a,
             const std::vector<DiscoveredSfd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].lhs != b[i].lhs || a[i].rhs != b[i].rhs ||
                  a[i].strength != b[i].strength || a[i].chi2 != b[i].chi2 ||
                  a[i].cramers_v != b[i].cramers_v) {
                return false;
              }
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  // ------------------------------------------ miners and quality apps
  // Quadratic algorithms run on row slices.
  std::vector<int> slice400;
  for (int i = 0; i < 400 && i < hotels.num_rows(); ++i) {
    slice400.push_back(i);
  }
  Relation slice = hotels.Select(slice400);
  std::vector<int> slice2000;
  for (int i = 0; i < 2000 && i < hotels.num_rows(); ++i) {
    slice2000.push_back(i);
  }
  Relation slice2k = hotels.Select(slice2000);
  std::vector<int> slice4k;
  for (int i = 0; i < 4000 && i < hotels.num_rows(); ++i) {
    slice4k.push_back(i);
  }
  Relation medium = hotels.Select(slice4k);

  auto same_cfds = [](const std::vector<DiscoveredCfd>& a,
                      const std::vector<DiscoveredCfd>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].cfd.ToString() != b[i].cfd.ToString() ||
          a[i].support != b[i].support) {
        return false;
      }
    }
    return true;
  };
  CfdDiscoveryOptions cfd_options;
  cfd_options.max_lhs_size = 2;
  if (!BenchPorted(
          "constant cfds 4k slice", medium, cfd_options,
          [&](const CfdDiscoveryOptions& o) {
            return DiscoverConstantCfds(medium, o);
          },
          same_cfds, &rows, &all_identical)) {
    return 2;
  }
  if (!BenchPorted(
          "general cfds", hotels, cfd_options,
          [&](const CfdDiscoveryOptions& o) {
            return DiscoverGeneralCfds(hotels, o);
          },
          same_cfds, &rows, &all_identical)) {
    return 2;
  }

  PfdDiscoveryOptions pfd_options;
  pfd_options.min_probability = 0.8;
  pfd_options.max_lhs_size = 2;
  if (!BenchPorted(
          "pfds lhs<=2", hotels, pfd_options,
          [&](const PfdDiscoveryOptions& o) { return DiscoverPfds(hotels, o); },
          [](const std::vector<DiscoveredPfd>& a,
             const std::vector<DiscoveredPfd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].lhs != b[i].lhs || a[i].rhs != b[i].rhs ||
                  a[i].probability != b[i].probability) {
                return false;
              }
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  MvdDiscoveryOptions mvd_options;
  mvd_options.max_spurious_ratio = 0.05;
  if (!BenchPorted(
          "mvds 4k slice", medium, mvd_options,
          [&](const MvdDiscoveryOptions& o) { return DiscoverMvds(medium, o); },
          [](const std::vector<DiscoveredMvd>& a,
             const std::vector<DiscoveredMvd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].lhs != b[i].lhs || a[i].rhs != b[i].rhs ||
                  a[i].spurious_ratio != b[i].spurious_ratio) {
                return false;
              }
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  if (!BenchPorted(
          "unary ods", hotels, OdDiscoveryOptions{},
          [&](const OdDiscoveryOptions& o) {
            return DiscoverUnaryOds(hotels, o);
          },
          [](const std::vector<DiscoveredOd>& a,
             const std::vector<DiscoveredOd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].od.ToString() != b[i].od.ToString()) return false;
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  DdDiscoveryOptions dd_options;
  dd_options.max_lhs_attrs = 1;
  if (!BenchPorted(
          "dds 2k slice", slice2k, dd_options,
          [&](const DdDiscoveryOptions& o) { return DiscoverDds(slice2k, o); },
          [](const std::vector<DiscoveredDd>& a,
             const std::vector<DiscoveredDd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].dd.ToString() != b[i].dd.ToString() ||
                  a[i].support != b[i].support) {
                return false;
              }
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  MdDiscoveryOptions md_options;
  md_options.max_lhs_attrs = 1;
  if (!BenchPorted(
          "mds 2k slice", slice2k, md_options,
          [&](const MdDiscoveryOptions& o) {
            return DiscoverMds(slice2k, AttrSet::Single(2), o);
          },
          [](const std::vector<DiscoveredMd>& a,
             const std::vector<DiscoveredMd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].md.ToString() != b[i].md.ToString() ||
                  a[i].support != b[i].support ||
                  a[i].confidence != b[i].confidence) {
                return false;
              }
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  NedDiscoveryOptions ned_options;
  ned_options.min_confidence = 0.9;
  if (!BenchPorted(
          "neds 2k slice", slice2k, ned_options,
          [&](const NedDiscoveryOptions& o) {
            return DiscoverNeds(
                slice2k, Ned::Predicate{2, GetEditDistanceMetric(), 0.0}, o);
          },
          [](const std::vector<DiscoveredNed>& a,
             const std::vector<DiscoveredNed>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].ned.ToString() != b[i].ned.ToString() ||
                  a[i].support != b[i].support ||
                  a[i].confidence != b[i].confidence) {
                return false;
              }
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  MfdDiscoveryOptions mfd_options;
  mfd_options.max_delta_ratio = 0.5;
  if (!BenchPorted(
          "mfds 2k slice", slice2k, mfd_options,
          [&](const MfdDiscoveryOptions& o) {
            return DiscoverMfds(slice2k, o);
          },
          [](const std::vector<DiscoveredMfd>& a,
             const std::vector<DiscoveredMfd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].mfd.ToString() != b[i].mfd.ToString() ||
                  a[i].delta != b[i].delta) {
                return false;
              }
            }
            return true;
          },
          &rows, &all_identical)) {
    return 2;
  }

  // Quality applications on the same workload.
  std::vector<Fd> repair_fds = {Fd(AttrSet::Single(1), AttrSet::Single(2)),
                                Fd(AttrSet::Single(0), AttrSet::Single(4))};
  auto same_repair = [](const RepairResult& a, const RepairResult& b) {
    return a.changes.size() == b.changes.size() &&
           a.remaining_violations == b.remaining_violations &&
           WriteCsvString(a.repaired) == WriteCsvString(b.repaired);
  };
  if (!BenchPorted(
          "fd repair", hotels, QualityOptions{},
          [&](const QualityOptions& o) {
            return RepairWithFds(hotels, repair_fds, 4, o);
          },
          same_repair, &rows, &all_identical)) {
    return 2;
  }

  MdMatcher matcher({Md({SimilarityPredicate{0, GetEditDistanceMetric(), 2},
                         SimilarityPredicate{1, GetEditDistanceMetric(), 2}},
                        AttrSet::Single(2))});
  if (!BenchPorted(
          "dedup 400-row slice", slice, QualityOptions{},
          [&](const QualityOptions& o) { return matcher.Match(slice, o); },
          [](const MatchResult& a, const MatchResult& b) {
            return a.cluster_ids == b.cluster_ids &&
                   a.num_clusters == b.num_clusters &&
                   a.matched_pairs == b.matched_pairs;
          },
          &rows, &all_identical)) {
    return 2;
  }

  // ------------------------------------------------- evidence store
  // The pairwise consumers rerun serially with a cold evidence-kernel
  // build vs served from the engine-wide evidence store; identity against
  // the cold run is the hard check.
  std::printf("\nevidence store (serial)\n\n");
  std::printf("| %-22s | kernel ms | hit ms   | result    |\n",
              "pairwise consumer");
  std::printf(
      "|------------------------|-----------|----------|-----------|\n");

  EvidenceCache evidence;
  std::vector<PairwiseRow> pairwise;
  if (!BenchPairwise(
          "fastdc 300-row slice", dc_options,
          [&](const FastDcOptions& o) { return DiscoverDcs(dc_slice, o); },
          same_dcs, &evidence, &pairwise, &all_identical)) {
    return 2;
  }
  if (!BenchPairwise(
          "dds 2k slice", dd_options,
          [&](const DdDiscoveryOptions& o) { return DiscoverDds(slice2k, o); },
          [](const std::vector<DiscoveredDd>& a,
             const std::vector<DiscoveredDd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].dd.ToString() != b[i].dd.ToString() ||
                  a[i].support != b[i].support) {
                return false;
              }
            }
            return true;
          },
          &evidence, &pairwise, &all_identical)) {
    return 2;
  }
  if (!BenchPairwise(
          "mds 2k slice", md_options,
          [&](const MdDiscoveryOptions& o) {
            return DiscoverMds(slice2k, AttrSet::Single(2), o);
          },
          [](const std::vector<DiscoveredMd>& a,
             const std::vector<DiscoveredMd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].md.ToString() != b[i].md.ToString() ||
                  a[i].support != b[i].support ||
                  a[i].confidence != b[i].confidence) {
                return false;
              }
            }
            return true;
          },
          &evidence, &pairwise, &all_identical)) {
    return 2;
  }
  if (!BenchPairwise(
          "neds 2k slice", ned_options,
          [&](const NedDiscoveryOptions& o) {
            return DiscoverNeds(
                slice2k, Ned::Predicate{2, GetEditDistanceMetric(), 0.0}, o);
          },
          [](const std::vector<DiscoveredNed>& a,
             const std::vector<DiscoveredNed>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].ned.ToString() != b[i].ned.ToString() ||
                  a[i].support != b[i].support ||
                  a[i].confidence != b[i].confidence) {
                return false;
              }
            }
            return true;
          },
          &evidence, &pairwise, &all_identical)) {
    return 2;
  }
  if (!BenchPairwise(
          "mfds 2k slice", mfd_options,
          [&](const MfdDiscoveryOptions& o) {
            return DiscoverMfds(slice2k, o);
          },
          [](const std::vector<DiscoveredMfd>& a,
             const std::vector<DiscoveredMfd>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
              if (a[i].mfd.ToString() != b[i].mfd.ToString() ||
                  a[i].delta != b[i].delta) {
                return false;
              }
            }
            return true;
          },
          &evidence, &pairwise, &all_identical)) {
    return 2;
  }
  if (!BenchPairwise(
          "dedup 400-row slice", QualityOptions{},
          [&](const QualityOptions& o) { return matcher.Match(slice, o); },
          [](const MatchResult& a, const MatchResult& b) {
            return a.cluster_ids == b.cluster_ids &&
                   a.num_clusters == b.num_clusters &&
                   a.matched_pairs == b.matched_pairs;
          },
          &evidence, &pairwise, &all_identical)) {
    return 2;
  }
  EvidenceCache::Stats evidence_stats = evidence.stats();

  std::printf(
      "evidence store: hits=%lld misses=%lld evictions=%lld builds=%lld "
      "bytes=%zu\n",
      static_cast<long long>(evidence_stats.hits),
      static_cast<long long>(evidence_stats.misses),
      static_cast<long long>(evidence_stats.evictions),
      static_cast<long long>(evidence_stats.builds), evidence_stats.bytes);

  // ------------------------------------------------- anytime deadline sweep
  // Each algorithm reruns at 8 threads under deadlines of 25/50/100% of
  // its own full-run time; the completeness columns are the fraction of
  // the full result list delivered within the budget, and the last column
  // is the latency from a mid-flight cancel to the driver returning.
  std::printf("\nanytime deadline sweep (8 threads)\n\n");
  std::printf(
      "| %-22s | full ms  | n full | c@25%% | c@50%% | c@100%% | cancel ms "
      "|\n",
      "algorithm");
  std::printf(
      "|------------------------|----------|--------|--------|--------|----"
      "----|-----------|\n");
  std::vector<DeadlineRow> deadlines;
  {
    TaneOptions options;
    options.max_error = 0.05;
    options.max_lhs_size = 3;
    bool ok = BenchDeadline(
        "tane g3<=0.05",
        [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
          TaneOptions o = options;
          o.pool = pool;
          o.context = ctx;
          FAMTREE_ASSIGN_OR_RETURN(auto fds, DiscoverFdsTane(hotels, o));
          return static_cast<int64_t>(fds.size());
        },
        &deadlines);
    if (!ok) return 2;
  }
  if (!BenchDeadline(
          "fastfd 500-row slice",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            FastFdOptions o;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto fds,
                                     DiscoverFdsFastFd(ff_slice, o));
            return static_cast<int64_t>(fds.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "cords full sweep",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            CordsOptions o;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto sfds, DiscoverSfdsCords(hotels, o));
            return static_cast<int64_t>(sfds.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "constant cfds 4k slice",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            CfdDiscoveryOptions o = cfd_options;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto cfds,
                                     DiscoverConstantCfds(medium, o));
            return static_cast<int64_t>(cfds.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "general cfds",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            CfdDiscoveryOptions o = cfd_options;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto cfds,
                                     DiscoverGeneralCfds(hotels, o));
            return static_cast<int64_t>(cfds.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "pfds lhs<=2",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            PfdDiscoveryOptions o = pfd_options;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto pfds, DiscoverPfds(hotels, o));
            return static_cast<int64_t>(pfds.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "mvds 4k slice",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            MvdDiscoveryOptions o = mvd_options;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto mvds, DiscoverMvds(medium, o));
            return static_cast<int64_t>(mvds.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "unary ods",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            OdDiscoveryOptions o;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto ods, DiscoverUnaryOds(hotels, o));
            return static_cast<int64_t>(ods.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "dds 2k slice",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            DdDiscoveryOptions o = dd_options;
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(auto dds, DiscoverDds(slice2k, o));
            return static_cast<int64_t>(dds.size());
          },
          &deadlines)) {
    return 2;
  }
  if (!BenchDeadline(
          "mds 2k slice",
          [&](ThreadPool* pool, RunContext* ctx) -> Result<int64_t> {
            MdDiscoveryOptions o = md_options;
            o.min_confidence = 0.5;  // the 0.9 grid row finds no MDs here
            o.pool = pool;
            o.context = ctx;
            FAMTREE_ASSIGN_OR_RETURN(
                auto mds, DiscoverMds(slice2k, AttrSet::Single(2), o));
            return static_cast<int64_t>(mds.size());
          },
          &deadlines)) {
    return 2;
  }
  double worst_cancel = 0;
  for (const DeadlineRow& r : deadlines) {
    worst_cancel = std::max(worst_cancel, r.cancel_latency_ms);
  }
  std::printf("\nworst cancellation latency: %.2f ms (target <=250 ms)\n",
              worst_cancel);
  if (worst_cancel > 250.0) {
    std::printf("WARN: cancellation latency above the 250 ms budget\n");
  }

  // ------------------------------------- hybrid-vs-lattice scaling grid
  // The hybrid sampling + induction engine against its lattice oracle on
  // planted-FD integer relations from 1k to 1M rows, plus the MD cover-
  // tree consumer against DiscoverMds at full confidence. Both sides run
  // serial on the encoded path; a bit-identical minimal cover is the hard
  // check, the speedup column is the claim. MD evidence is O(rows^2), so
  // sizes past 4k run both sides on the same 4k-row sample.
  std::printf("\nhybrid sampling+induction vs lattice oracle (serial)\n\n");
  std::printf(
      "| %-7s | rows    | oracle ms | hybrid ms | speedup | %-26s | "
      "result    |\n",
      "driver", "counters");
  std::printf(
      "|---------|---------|-----------|-----------|---------|--------------"
      "--------------|-----------|\n");
  std::vector<HybridFdRow> hybrid_fd_rows;
  std::vector<HybridMdRow> hybrid_md_rows;
  for (int planted_rows : {1'000, 10'000, 100'000, 1'000'000}) {
    std::string size_tag = planted_rows >= 1'000'000
                               ? "1M"
                               : std::to_string(planted_rows / 1000) + "k";
    Relation planted = MakePlantedRelation(planted_rows);
    {
      HybridFdRow row;
      row.name = "fd " + size_tag;
      row.rows = planted_rows;
      TaneOptions lattice_options;
      lattice_options.max_lhs_size = 3;
      auto start = std::chrono::steady_clock::now();
      auto lattice = DiscoverFdsTane(planted, lattice_options);
      row.lattice_ms = MillisSince(start);
      if (!lattice.ok()) return 2;
      HybridFdOptions hybrid_options;
      hybrid_options.max_lhs_size = 3;
      hybrid_options.stats = &row.stats;
      start = std::chrono::steady_clock::now();
      auto hybrid = DiscoverFdsHybrid(planted, hybrid_options);
      row.hybrid_ms = MillisSince(start);
      if (!hybrid.ok()) return 2;
      row.identical = !hybrid->empty() && SameFdCover(*lattice, *hybrid);
      all_identical = all_identical && row.identical;
      char counters[64];
      std::snprintf(counters, sizeof(counters), "pairs=%lld frontier=%lld",
                    static_cast<long long>(row.stats.sampled_pairs),
                    static_cast<long long>(row.stats.frontier_checks));
      PrintHybridRow(row.name, row.rows, row.lattice_ms, row.hybrid_ms,
                     row.speedup(), counters, row.identical);
      hybrid_fd_rows.push_back(row);
    }
    {
      HybridMdRow row;
      row.name = "md " + size_tag;
      row.rows = planted_rows;
      row.sample_rows = planted_rows > 4000 ? 4000 : 0;
      MdDiscoveryOptions md_grid_options;
      md_grid_options.min_support = 0.0;
      md_grid_options.min_confidence = 1.0;  // the cover-tree regime
      md_grid_options.sample_rows = row.sample_rows;
      AttrSet md_rhs = AttrSet::Single(0);
      auto start = std::chrono::steady_clock::now();
      auto oracle = DiscoverMds(planted, md_rhs, md_grid_options);
      row.oracle_ms = MillisSince(start);
      if (!oracle.ok()) return 2;
      start = std::chrono::steady_clock::now();
      auto hybrid =
          DiscoverMdsHybrid(planted, md_rhs, md_grid_options, &row.stats);
      row.hybrid_ms = MillisSince(start);
      if (!hybrid.ok()) return 2;
      row.identical = row.stats.used_cover_tree && SameMdList(*oracle, *hybrid);
      all_identical = all_identical && row.identical;
      char counters[64];
      std::snprintf(counters, sizeof(counters), "words=%lld cover=%lld",
                    static_cast<long long>(row.stats.evidence_words),
                    static_cast<long long>(row.stats.positive_cover_size));
      PrintHybridRow(row.name, row.rows, row.oracle_ms, row.hybrid_ms,
                     row.speedup(), counters, row.identical);
      hybrid_md_rows.push_back(row);
    }
  }
  if (!hybrid_fd_rows.empty()) {
    const HybridFdRow& top = hybrid_fd_rows.back();
    double efficiency =
        top.stats.sampled_pairs > 0
            ? static_cast<double>(top.stats.sampled_agree_sets) /
                  top.stats.sampled_pairs
            : 0.0;
    std::printf(
        "\nhybrid fd at 1M rows: %.2fx vs the lattice; sampling efficiency "
        "%.2e agree sets/pair, %lld frontier checks (%lld violations fed "
        "back)\n",
        top.speedup(), efficiency,
        static_cast<long long>(top.stats.frontier_checks),
        static_cast<long long>(top.stats.frontier_violations));
    if (top.speedup() < 1.0) {
      std::printf("WARN: hybrid fd slower than the lattice at 1M rows\n");
    }
  }

  {
    // Wide-schema row: 100 columns (rejected outright before AttrSet grew
    // past 63 attributes), unary lattice level only — the point is the
    // multi-word AttrSet path end to end, not lattice depth.
    HybridFdRow row;
    row.name = "fd w100";
    row.rows = 20'000;
    Relation wide = MakeWideRelation(row.rows);
    TaneOptions lattice_options;
    lattice_options.max_lhs_size = 1;
    auto start = std::chrono::steady_clock::now();
    auto lattice = DiscoverFdsTane(wide, lattice_options);
    row.lattice_ms = MillisSince(start);
    if (!lattice.ok()) return 2;
    HybridFdOptions hybrid_options;
    hybrid_options.max_lhs_size = 1;
    hybrid_options.stats = &row.stats;
    start = std::chrono::steady_clock::now();
    auto hybrid = DiscoverFdsHybrid(wide, hybrid_options);
    row.hybrid_ms = MillisSince(start);
    if (!hybrid.ok()) return 2;
    bool planted_found = false;
    for (const DiscoveredFd& fd : *hybrid) {
      if (fd.lhs == AttrSet::Single(0) && fd.rhs == 70) planted_found = true;
    }
    row.identical = planted_found && SameFdCover(*lattice, *hybrid);
    all_identical = all_identical && row.identical;
    char counters[64];
    std::snprintf(counters, sizeof(counters), "cols=100 pairs=%lld",
                  static_cast<long long>(row.stats.sampled_pairs));
    PrintHybridRow(row.name, row.rows, row.lattice_ms, row.hybrid_ms,
                   row.speedup(), counters, row.identical);
    hybrid_fd_rows.push_back(row);
  }

  std::printf(
      "\npli cache (8-thread tane): hits=%lld misses=%lld evictions=%lld "
      "builds=%lld bytes=%zu\n",
      static_cast<long long>(tane_cache_stats.hits),
      static_cast<long long>(tane_cache_stats.misses),
      static_cast<long long>(tane_cache_stats.evictions),
      static_cast<long long>(tane_cache_stats.builds),
      tane_cache_stats.bytes);
  std::printf("speedups are hardware dependent; byte-identity is the hard "
              "check\n");
  WriteJson(rows, pairwise, deadlines, hybrid_fd_rows, hybrid_md_rows,
            hotels.num_rows(), hotels.num_columns(), tane_cache_stats,
            evidence_stats);
  std::printf("wrote BENCH_engine.json\n");
  if (!all_identical) {
    std::printf("FAIL: a run deviated from its row's 1-thread result\n");
    return 1;
  }
  return 0;
}

}  // namespace famtree

int main() { return famtree::Run(); }
