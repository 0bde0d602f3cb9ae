// Spill determinism: discovery over the out-of-core backend must be
// bit-identical to the in-memory path on any input that fits — same PLI
// CSR arrays, same FD covers — at every budget (including spill-everything)
// and every thread count, and a failed spill must back out without
// publishing partial cache state.

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/attr_set.h"
#include "common/run_context.h"
#include "engine/engine.h"
#include "engine/pli_cache.h"
#include "relation/csv.h"
#include "relation/ooc/sharded_relation.h"
#include "relation/relation.h"

namespace famtree {
namespace {

using Canon = std::vector<std::tuple<int, uint64_t, int, double>>;

Canon Canonical(const std::vector<DiscoveredFd>& fds) {
  Canon out;
  out.reserve(fds.size());
  for (const DiscoveredFd& fd : fds) {
    out.emplace_back(fd.lhs.size(), fd.lhs.mask(), fd.rhs, fd.error);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// 3 columns of r mod {59, 61, 67}: pairwise products exceed the row count,
// so every column pair is a key and the exact cover is {ci, cj} -> ck plus
// nothing smaller — dense enough to exercise products, small enough for a
// tight budget.
std::string MakeCsv(int rows) {
  std::string csv = "a,b,c\n";
  for (int r = 0; r < rows; ++r) {
    csv += std::to_string(r % 59) + "," + std::to_string(r % 61) + "," +
           std::to_string(r % 67) + "\n";
  }
  return csv;
}

Relation MustRead(const std::string& text) {
  Result<Relation> r = ReadCsvString(text);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

std::shared_ptr<ShardedEncodedRelation> MustIngest(const std::string& text,
                                                   IngestOptions options = {}) {
  auto r = ShardedEncodedRelation::IngestCsvString(text, std::move(options));
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

// PLIs served by an out-of-core cache are the same CSR arrays, byte for
// byte, as the in-memory cache's — for singles (spill-merged runs) and for
// products built on top of them.
TEST(OocDeterminismTest, CachedPlisBitIdenticalToInMemory) {
  std::string csv = MakeCsv(1500);
  Relation rel = MustRead(csv);
  PliCache memory_cache(rel);
  std::mt19937 rng(7);
  for (bool force_spill : {false, true}) {
    IngestOptions options;
    options.force_spill = force_spill;
    options.shard_rows = 100 + static_cast<int>(rng() % 400);
    options.io_chunk_bytes = 1 + rng() % 4096;
    auto sharded = MustIngest(csv, options);
    PliCache ooc_cache(*sharded);
    EXPECT_EQ(memory_cache.fingerprint(), ooc_cache.fingerprint());
    std::vector<AttrSet> probes = {
        AttrSet::Single(0), AttrSet::Single(1), AttrSet::Single(2),
        AttrSet::Single(0).With(1), AttrSet::Single(1).With(2),
        AttrSet::Single(0).With(1).With(2)};
    for (AttrSet attrs : probes) {
      auto expected = memory_cache.Get(attrs);
      auto got = ooc_cache.Get(attrs);
      ASSERT_NE(expected, nullptr);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(expected->row_indices(), got->row_indices())
          << "attrs " << attrs.mask() << " force_spill " << force_spill;
      EXPECT_EQ(expected->class_offsets(), got->class_offsets());
    }
    if (force_spill) EXPECT_GT(ooc_cache.stats().ooc_spill_bytes, 0);
  }
}

// The acceptance matrix: every budget (none, roomy, tight-with-spilling,
// spill-everything) x thread counts {1, 2, 8}, TANE and hybrid, all equal
// to the in-memory engine's cover.
TEST(OocDeterminismTest, CoversBitIdenticalAcrossBudgetsAndThreads) {
  std::string csv = MakeCsv(2000);
  Relation rel = MustRead(csv);
  DiscoveryEngine reference;
  Result<std::vector<DiscoveredFd>> expected_tane = reference.Tane(rel);
  ASSERT_TRUE(expected_tane.ok()) << expected_tane.status().message();
  Canon want = Canonical(*expected_tane);
  ASSERT_FALSE(want.empty());
  Result<std::vector<DiscoveredFd>> expected_hybrid = reference.HybridFds(rel);
  ASSERT_TRUE(expected_hybrid.ok());
  ASSERT_EQ(want, Canonical(*expected_hybrid));

  std::mt19937 rng(20230718);
  // Budget 0 = unlimited (no context); 192 KB forces spilling: codes are
  // 2000 * 3 * 4 = 24 KB per materialization plus PLI accrual.
  for (size_t budget_bytes : {size_t{0}, size_t{8} << 20, size_t{192} << 10}) {
    for (bool force_spill : {false, true}) {
      IngestOptions options;
      options.force_spill = force_spill;
      options.shard_rows = 64 + static_cast<int>(rng() % 512);
      options.io_chunk_bytes = 512 + rng() % 8192;
      MemoryBudget budget(budget_bytes);
      RunContext ctx;
      if (budget_bytes > 0) {
        ctx.set_memory_budget(&budget);
        options.context = &ctx;
      }
      auto sharded = MustIngest(csv, options);
      for (int threads : {1, 2, 8}) {
        EngineOptions eng_options;
        eng_options.num_threads = threads;
        DiscoveryEngine engine(eng_options);
        TaneOptions tane;
        if (budget_bytes > 0) tane.context = &ctx;
        Result<std::vector<DiscoveredFd>> got =
            engine.TaneOutOfCore(*sharded, tane);
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(want, Canonical(*got))
            << "tane budget " << budget_bytes << " force_spill " << force_spill
            << " threads " << threads;
        HybridFdOptions hybrid;
        if (budget_bytes > 0) hybrid.context = &ctx;
        Result<std::vector<DiscoveredFd>> got_hybrid =
            engine.HybridFdsOutOfCore(*sharded, hybrid);
        ASSERT_TRUE(got_hybrid.ok()) << got_hybrid.status().message();
        EXPECT_EQ(want, Canonical(*got_hybrid))
            << "hybrid budget " << budget_bytes << " force_spill "
            << force_spill << " threads " << threads;
      }
      if (budget_bytes > 0) {
        EXPECT_LE(budget.used(), budget.limit());
      }
    }
  }
}

// Sharing one budget end to end: ingest leaves shards resident on the
// books; discovery pressure must reclaim them by spilling rather than
// latching kResourceExhausted.
TEST(OocDeterminismTest, DiscoveryPressureSpillsIngestResidentShards) {
  std::string csv = MakeCsv(2000);
  DiscoveryEngine reference;
  Relation rel = MustRead(csv);
  Result<std::vector<DiscoveredFd>> expected = reference.Tane(rel);
  ASSERT_TRUE(expected.ok());
  // 48 KB: the 24 KB of encoded shards fit, but PLI accrual (~40 KB for the
  // singles alone) cannot fit alongside them.
  MemoryBudget budget(48 << 10);
  RunContext ctx;
  ctx.set_memory_budget(&budget);
  IngestOptions options;
  options.context = &ctx;
  options.shard_rows = 256;
  options.io_chunk_bytes = 4096;
  auto sharded = MustIngest(csv, options);
  ASSERT_EQ(sharded->stats().shards_spilled, 0) << "shards should fit";
  DiscoveryEngine engine;
  TaneOptions tane;
  tane.context = &ctx;
  Result<std::vector<DiscoveredFd>> got = engine.TaneOutOfCore(*sharded, tane);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(Canonical(*expected), Canonical(*got));
  EXPECT_GT(sharded->stats().shards_spilled, 0)
      << "PLI accrual should have evicted resident shards";
  EXPECT_LE(budget.used(), budget.limit());
}

// Concurrent ChargeWithSpill calls under a budget that fits them only once
// every resident shard is spilled: a spill frees headroom that another
// thread may take before the spiller's own charge, so each call must keep
// spilling and retrying instead of latching kResourceExhausted while
// resident shards remain. Every charge succeeds, in every round.
TEST(OocDeterminismTest, ConcurrentChargesSpillUntilTheyFit) {
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 4;
  for (int round = 0; round < 25; ++round) {
    MemoryBudget budget(48 << 10);
    RunContext ctx;
    ctx.set_memory_budget(&budget);
    IngestOptions options;
    options.context = &ctx;
    options.shard_rows = 256;
    auto sharded = MustIngest(MakeCsv(2000), options);
    ASSERT_EQ(sharded->stats().shards_spilled, 0) << "shards should fit";
    // 2000 rows x 3 columns of 4-byte codes are resident; the rest of the
    // accrual (dictionaries) stays. The charges take all the headroom a
    // full spill leaves, so they fit only after every shard is spilled.
    const size_t resident = 2000 * 3 * sizeof(uint32_t);
    const size_t kept = budget.used() - resident;
    const size_t chunk =
        (budget.limit() - kept) / (kThreads * kChargesPerThread);
    ASSERT_GT(chunk * kThreads * kChargesPerThread, budget.remaining());
    std::vector<Status> results(kThreads * kChargesPerThread);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (int k = 0; k < kChargesPerThread; ++k) {
          results[t * kChargesPerThread + k] =
              sharded->ChargeWithSpill(&ctx, chunk, "pli_build");
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Status& st : results) {
      EXPECT_TRUE(st.ok()) << "round " << round << ": " << st.message();
    }
    EXPECT_TRUE(RunContext::StopStatus(&ctx).ok()) << "round " << round;
    EXPECT_EQ(sharded->stats().shards_spilled, sharded->num_shards());
    EXPECT_LE(budget.used(), budget.limit());
  }
}

// Fault injection at the spill write: ingest fails with the injected stop,
// nothing half-written survives (the spill file is unlinked on creation).
TEST(OocDeterminismTest, InjectedSpillFaultDuringIngest) {
  FaultInjector faults({.fail_at_alloc = 1, .alloc_site = "ooc_spill"});
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  IngestOptions options;
  options.force_spill = true;
  options.shard_rows = 8;
  options.context = &ctx;
  auto r = ShardedEncodedRelation::IngestCsvString(MakeCsv(100), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// Fault injection at a PLI-run spill: Get returns nullptr with the reason
// latched, the cache publishes nothing, and a fresh context succeeds —
// the exact charge-before-publish contract of the in-memory cache.
TEST(OocDeterminismTest, InjectedSpillFaultDuringPliBuildPublishesNothing) {
  IngestOptions options;
  options.force_spill = true;  // every PLI run must spill
  options.shard_rows = 64;
  auto sharded = MustIngest(MakeCsv(500), options);
  PliCache cache(*sharded);
  FaultInjector faults({.fail_at_alloc = 1, .alloc_site = "ooc_spill"});
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  auto pli = cache.Get(AttrSet::Single(0), &ctx);
  EXPECT_EQ(pli, nullptr);
  EXPECT_EQ(RunContext::StopStatus(&ctx).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().bytes, 0u) << "partial state published";
  auto retry = cache.Get(AttrSet::Single(0));
  ASSERT_NE(retry, nullptr);
  EXPECT_GT(cache.stats().bytes, 0u);
}

// A PliCache built over an out-of-core backend rejects mixed use by the
// relation-keyed paths, and its relation_or_null contract holds.
TEST(OocDeterminismTest, OocCacheHasNoRelation) {
  auto sharded = MustIngest(MakeCsv(50));
  PliCache cache(*sharded);
  EXPECT_EQ(cache.relation_or_null(), nullptr);
  EXPECT_EQ(cache.sharded_or_null(), sharded.get());
  EXPECT_FALSE(cache.has_encoded());
  ASSERT_TRUE(cache.EnsureEncoded(nullptr).ok());
  EXPECT_TRUE(cache.has_encoded());
  EXPECT_EQ(cache.num_rows(), 50);
  EXPECT_EQ(cache.num_columns(), 3);
}

// Exact TANE over the out-of-core cache is PLI-only: it must not
// materialize the flat encoding as a side effect.
TEST(OocDeterminismTest, ExactTaneIsPliOnly) {
  auto sharded = MustIngest(MakeCsv(400));
  DiscoveryEngine engine;
  Result<std::vector<DiscoveredFd>> got = engine.TaneOutOfCore(*sharded);
  ASSERT_TRUE(got.ok()) << got.status().message();
  Result<PliCache*> cache = engine.OocCacheFor(*sharded);
  ASSERT_TRUE(cache.ok());
  EXPECT_FALSE((*cache)->has_encoded());
}

}  // namespace
}  // namespace famtree
