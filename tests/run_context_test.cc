// RunContext robustness suite: primitive semantics (cancel token, memory
// budget, fault injector, deadline, AnytimeParallelFor), differential
// cutoff tests replaying an injected stop across thread counts {1, 2, 8}
// for every converted driver, OOM fault-injection at each coarse
// allocation site, the dangling-relation regression, and the cancellation
// latency bound.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "deps/fd.h"
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
#include "discovery/sd_discovery.h"
#include "discovery/tane.h"
#include "engine/engine.h"
#include "engine/evidence.h"
#include "engine/pli_cache.h"
#include "gen/generators.h"
#include "metric/metric.h"
#include "quality/detector.h"
#include "quality/repair.h"
#include "relation/csv.h"
#include "relation/encoded_relation.h"

namespace famtree {
namespace {

Relation MakeRandomRelation(uint64_t seed, int rows, int cols, int domain) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value(rng.Uniform(0, domain - 1)));
    }
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

Relation MakeMixedRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"cat", "grp", "num", "price"});
  for (int r = 0; r < rows; ++r) {
    int grp = static_cast<int>(rng.Uniform(0, 3));
    b.AddRow({Value("c" + std::to_string(rng.Uniform(0, 4))), Value(grp),
              Value(rng.Uniform(0, 20)),
              Value(100.0 + 10.0 * grp + rng.Uniform(0, 5))});
  }
  return std::move(b.Build()).value();
}

// ----------------------------------------------------------- primitives

TEST(CancelTokenTest, LatchesAtFirstProbeAndRearmsPerRun) {
  CancelToken token;
  RunContext ctx;
  ctx.set_cancel_token(&token);
  RunContext::BeginRun(&ctx, "t");
  EXPECT_TRUE(RunContext::Checkpoint(&ctx).ok());
  EXPECT_TRUE(RunContext::Poll(&ctx).ok());
  token.Cancel();
  Status st = RunContext::Poll(&ctx);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_TRUE(RunContext::IsStop(st));
  // Latched: every later probe returns the same stop.
  EXPECT_EQ(RunContext::Checkpoint(&ctx).code(), StatusCode::kCancelled);
  EXPECT_EQ(RunContext::StopStatus(&ctx).code(), StatusCode::kCancelled);
  // A new run with the token still set re-latches at the first probe.
  RunContext::BeginRun(&ctx, "t2");
  EXPECT_EQ(RunContext::Checkpoint(&ctx).code(), StatusCode::kCancelled);
  token.Reset();
  RunContext::BeginRun(&ctx, "t3");
  EXPECT_TRUE(RunContext::Checkpoint(&ctx).ok());
}

TEST(MemoryBudgetTest, ChargesAccrueAndFailCleanly) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.TryCharge(600));
  EXPECT_EQ(budget.used(), 600u);
  EXPECT_FALSE(budget.TryCharge(600));  // would cross the limit
  EXPECT_EQ(budget.used(), 600u);       // failed charge not recorded
  EXPECT_TRUE(budget.TryCharge(400));
  EXPECT_EQ(budget.used(), 1000u);
  budget.Release(400);
  EXPECT_EQ(budget.used(), 600u);
}

TEST(MemoryBudgetTest, ChargeAllocLatchesResourceExhausted) {
  MemoryBudget budget(100);
  RunContext ctx;
  ctx.set_memory_budget(&budget);
  RunContext::BeginRun(&ctx, "t");
  EXPECT_TRUE(RunContext::ChargeAlloc(&ctx, 60, "scratch").ok());
  Status st = RunContext::ChargeAlloc(&ctx, 60, "scratch");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // The stop is latched for every probe, not just ChargeAlloc.
  EXPECT_EQ(RunContext::Poll(&ctx).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RunContext::Checkpoint(&ctx).code(),
            StatusCode::kResourceExhausted);
}

TEST(DeadlineTest, ExpiredDeadlineStopsAtProbes) {
  RunContext ctx;
  ctx.set_timeout(std::chrono::nanoseconds(0));
  RunContext::BeginRun(&ctx, "t");
  EXPECT_EQ(RunContext::Checkpoint(&ctx).code(),
            StatusCode::kDeadlineExceeded);
  ctx.clear_deadline();
  RunContext::BeginRun(&ctx, "t2");
  EXPECT_TRUE(RunContext::Checkpoint(&ctx).ok());
}

TEST(FaultInjectorTest, FailsExactlyTheConfiguredCheckpoint) {
  FaultInjector::Options fopts;
  fopts.fail_at_checkpoint = 3;
  fopts.checkpoint_code = StatusCode::kDeadlineExceeded;
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  RunContext::BeginRun(&ctx, "t");
  EXPECT_TRUE(RunContext::Checkpoint(&ctx).ok());
  EXPECT_TRUE(RunContext::Checkpoint(&ctx).ok());
  EXPECT_EQ(RunContext::Checkpoint(&ctx).code(),
            StatusCode::kDeadlineExceeded);
  // Polls never consult the injector; the latched stop is what they see.
  EXPECT_EQ(RunContext::Poll(&ctx).code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(faults.checkpoints_seen(), 3);
}

TEST(FaultInjectorTest, AllocSiteFilterMatchesOnlyThatSite) {
  FaultInjector::Options fopts;
  fopts.fail_at_alloc = 2;
  fopts.alloc_site = "pli_build";
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  RunContext::BeginRun(&ctx, "t");
  EXPECT_TRUE(RunContext::ChargeAlloc(&ctx, 8, "evidence_set").ok());
  EXPECT_TRUE(RunContext::ChargeAlloc(&ctx, 8, "pli_build").ok());
  EXPECT_EQ(RunContext::ChargeAlloc(&ctx, 8, "pli_build").code(),
            StatusCode::kResourceExhausted);
}

TEST(AnytimeParallelForTest, NullContextDegeneratesToPlainParallelFor) {
  ThreadPool pool(4);
  std::atomic<int64_t> hits{0};
  auto done = AnytimeParallelFor(nullptr, &pool, 100, [&](int64_t) {
    hits.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(*done, 100);
  EXPECT_EQ(hits.load(), 100);
}

TEST(AnytimeParallelForTest, StopCutsAtABatchBoundary) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    FaultInjector::Options fopts;
    fopts.fail_at_checkpoint = 3;  // two full batches complete
    FaultInjector faults(fopts);
    RunContext ctx;
    ctx.set_unit_batch(5);
    ctx.set_fault_injector(&faults);
    RunContext::BeginRun(&ctx, "t");
    std::atomic<int64_t> hits{0};
    auto done = AnytimeParallelFor(&ctx, &pool, 23, [&](int64_t) {
      hits.fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(*done, 10) << threads << " threads";
    EXPECT_EQ(hits.load(), 10) << threads << " threads";
  }
}

TEST(AnytimeParallelForTest, OrdinaryErrorsPropagateUnchanged) {
  ThreadPool pool(4);
  RunContext ctx;
  RunContext::BeginRun(&ctx, "t");
  auto done = AnytimeParallelFor(&ctx, &pool, 100, [&](int64_t i) {
    if (i == 37) return Status::Invalid("boom");
    return Status::OK();
  });
  ASSERT_FALSE(done.ok());
  EXPECT_EQ(done.status().code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, StopCodeShortCircuitsLaterIndices) {
  // A latched run-control failure drains the fan-out: indices claimed
  // after the stop is observed are skipped, not executed.
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    CancelToken token;
    RunContext ctx;
    ctx.set_cancel_token(&token);
    RunContext::BeginRun(&ctx, "t");
    std::atomic<int64_t> ran{0};
    const int64_t n = 100000;
    Status st = pool.ParallelFor(n, [&](int64_t i) {
      FAMTREE_RETURN_NOT_OK(RunContext::Poll(&ctx));
      if (i == 0) token.Cancel();
      ran.fetch_add(1);
      return Status::OK();
    });
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << threads << " threads";
    // Far from all iterations may run: each worker drops out at its next
    // claim once the stop is latched.
    EXPECT_LT(ran.load(), n / 2) << threads << " threads";
  }
}

TEST(ThreadPoolTest, OrdinaryErrorReportsLowestFailingIndex) {
  ThreadPool pool(8);
  for (int round = 0; round < 5; ++round) {
    Status st = pool.ParallelFor(1000, [&](int64_t i) {
      if (i % 211 == 7) {
        return Status::Invalid("fail at " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "fail at 7") << "round " << round;
  }
}

// ------------------------------------------- differential cutoff harness

/// One converted driver under test: `run` executes it with the given pool
/// and context and returns the results as string keys in emission order.
struct CutoffCase {
  std::string name;
  std::function<Result<std::vector<std::string>>(ThreadPool*, RunContext*)>
      run;
};

/// Locks down the anytime contract for one driver:
///  - a context with no limits leaves the output bit-identical;
///  - an injected cutoff yields a partial that is a prefix of the full
///    output, identical at thread counts {1, 2, 8}, with the report
///    marked exhausted.
void ExpectDeterministicCutoffs(const CutoffCase& c) {
  SCOPED_TRACE(c.name);
  auto full = c.run(nullptr, nullptr);
  ASSERT_TRUE(full.ok()) << full.status().message();

  {
    ThreadPool pool(2);
    RunContext ctx;
    auto again = c.run(&pool, &ctx);
    ASSERT_TRUE(again.ok()) << again.status().message();
    EXPECT_EQ(*full, *again) << "limit-free context changed the output";
    RunReport report = ctx.report();
    EXPECT_FALSE(report.exhausted);
    EXPECT_EQ(report.stop_code, StatusCode::kOk);
  }

  for (int64_t fail_at : {1, 2, 4}) {
    std::optional<std::vector<std::string>> first_partial;
    std::optional<RunReport> first_report;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("fail_at " + std::to_string(fail_at) + " threads " +
                   std::to_string(threads));
      ThreadPool pool(threads);
      FaultInjector::Options fopts;
      fopts.fail_at_checkpoint = fail_at;
      FaultInjector faults(fopts);
      RunContext ctx;
      ctx.set_unit_batch(2);  // small batches → many deterministic barriers
      ctx.set_fault_injector(&faults);
      auto partial = c.run(&pool, &ctx);
      ASSERT_TRUE(partial.ok()) << partial.status().message();
      RunReport report = ctx.report();

      // Prefix of the full run's serial order.
      ASSERT_LE(partial->size(), full->size());
      for (size_t i = 0; i < partial->size(); ++i) {
        ASSERT_EQ((*full)[i], (*partial)[i]) << "diverges at result " << i;
      }
      if (report.exhausted) {
        EXPECT_TRUE(RunContext::IsStopCode(report.stop_code));
        if (report.total_units > 0) {
          EXPECT_LT(report.completed_units, report.total_units);
        }
      } else {
        // The injected check-point was never reached: the run completed.
        EXPECT_EQ(*full, *partial);
      }

      // Identical partial (and verdict) at every thread count.
      if (!first_partial.has_value()) {
        first_partial = *partial;
        first_report = report;
      } else {
        EXPECT_EQ(*first_partial, *partial) << "thread-dependent partial";
        EXPECT_EQ(first_report->exhausted, report.exhausted);
        EXPECT_EQ(first_report->completed_units, report.completed_units);
      }
    }
  }
}

std::string FdKey(const DiscoveredFd& fd) {
  return std::to_string(fd.lhs.mask()) + ">" + std::to_string(fd.rhs) + "@" +
         FormatDouble(fd.error);
}

TEST(CutoffDifferentialTest, Tane) {
  Relation r = MakeRandomRelation(11, 60, 5, 3);
  ExpectDeterministicCutoffs(
      {"tane", [r](ThreadPool* pool, RunContext* ctx)
                   -> Result<std::vector<std::string>> {
         TaneOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredFd> fds,
                                  DiscoverFdsTane(r, options));
         std::vector<std::string> keys;
         for (const auto& fd : fds) keys.push_back(FdKey(fd));
         return keys;
       }});
}

TEST(CutoffDifferentialTest, FastFd) {
  Relation r = MakeRandomRelation(12, 40, 5, 3);
  ExpectDeterministicCutoffs(
      {"fastfd", [r](ThreadPool* pool, RunContext* ctx)
                     -> Result<std::vector<std::string>> {
         FastFdOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredFd> fds,
                                  DiscoverFdsFastFd(r, options));
         std::vector<std::string> keys;
         for (const auto& fd : fds) keys.push_back(FdKey(fd));
         return keys;
       }});
}

TEST(CutoffDifferentialTest, Cords) {
  Relation r = MakeRandomRelation(13, 120, 6, 4);
  ExpectDeterministicCutoffs(
      {"cords", [r](ThreadPool* pool, RunContext* ctx)
                    -> Result<std::vector<std::string>> {
         CordsOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredSfd> sfds,
                                  DiscoverSfdsCords(r, options));
         std::vector<std::string> keys;
         for (const auto& s : sfds) {
           keys.push_back(std::to_string(s.lhs) + ">" + std::to_string(s.rhs) +
                          "@" + FormatDouble(s.strength) + "/" +
                          FormatDouble(s.chi2));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, UnaryOds) {
  Relation r = MakeRandomRelation(14, 50, 6, 8);
  ExpectDeterministicCutoffs(
      {"unary_ods", [r](ThreadPool* pool, RunContext* ctx)
                        -> Result<std::vector<std::string>> {
         OdDiscoveryOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredOd> ods,
                                  DiscoverUnaryOds(r, options));
         std::vector<std::string> keys;
         for (const auto& od : ods) keys.push_back(od.od.ToString());
         return keys;
       }});
}

TEST(CutoffDifferentialTest, Mvds) {
  Relation r = MakeRandomRelation(15, 30, 4, 2);
  ExpectDeterministicCutoffs(
      {"mvds", [r](ThreadPool* pool, RunContext* ctx)
                   -> Result<std::vector<std::string>> {
         MvdDiscoveryOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredMvd> mvds,
                                  DiscoverMvds(r, options));
         std::vector<std::string> keys;
         for (const auto& m : mvds) {
           keys.push_back(std::to_string(m.lhs.mask()) + ">" +
                          std::to_string(m.rhs.mask()) + "@" +
                          FormatDouble(m.spurious_ratio));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, Pfds) {
  Relation r = MakeRandomRelation(16, 60, 5, 3);
  ExpectDeterministicCutoffs(
      {"pfds", [r](ThreadPool* pool, RunContext* ctx)
                   -> Result<std::vector<std::string>> {
         PfdDiscoveryOptions options;
         options.min_probability = 0.5;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredPfd> pfds,
                                  DiscoverPfds(r, options));
         std::vector<std::string> keys;
         for (const auto& p : pfds) {
           keys.push_back(std::to_string(p.lhs.mask()) + ">" +
                          std::to_string(p.rhs) + "@" +
                          FormatDouble(p.probability));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, Dds) {
  HeterogeneousConfig config;
  config.num_entities = 25;
  config.seed = 5;
  GeneratedData data = GenerateHeterogeneous(config);
  Relation r = data.relation;
  ExpectDeterministicCutoffs(
      {"dds", [r](ThreadPool* pool, RunContext* ctx)
                  -> Result<std::vector<std::string>> {
         DdDiscoveryOptions options;
         options.min_support = 3;
         options.max_lhs_attrs = 1;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredDd> dds,
                                  DiscoverDds(r, options));
         std::vector<std::string> keys;
         for (const auto& d : dds) {
           keys.push_back(d.dd.ToString() + "@" + std::to_string(d.support));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, Mds) {
  HeterogeneousConfig config;
  config.num_entities = 20;
  config.seed = 7;
  GeneratedData data = GenerateHeterogeneous(config);
  Relation r = data.relation;
  ExpectDeterministicCutoffs(
      {"mds", [r](ThreadPool* pool, RunContext* ctx)
                  -> Result<std::vector<std::string>> {
         MdDiscoveryOptions options;
         options.max_lhs_attrs = 1;
         options.min_confidence = 0.5;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredMd> mds,
                                  DiscoverMds(r, AttrSet::Single(4), options));
         std::vector<std::string> keys;
         for (const auto& m : mds) {
           keys.push_back(m.md.ToString() + "@" + FormatDouble(m.support) +
                          "/" + FormatDouble(m.confidence));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, Neds) {
  HeterogeneousConfig config;
  config.num_entities = 20;
  config.variation_rate = 0.0;
  config.typo_rate = 0.0;
  config.seed = 21;
  GeneratedData data = GenerateHeterogeneous(config);
  Relation r = data.relation;
  ExpectDeterministicCutoffs(
      {"neds", [r](ThreadPool* pool, RunContext* ctx)
                   -> Result<std::vector<std::string>> {
         Ned::Predicate target{4, GetAbsDiffMetric(), 0.0};
         NedDiscoveryOptions options;
         options.thresholds = {0};
         options.min_support = 2;
         options.min_confidence = 0.5;
         options.max_lhs_attrs = 1;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredNed> neds,
                                  DiscoverNeds(r, target, options));
         std::vector<std::string> keys;
         for (const auto& n : neds) {
           keys.push_back(n.ned.ToString() + "@" + std::to_string(n.support) +
                          "/" + FormatDouble(n.confidence));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, Mfds) {
  Relation r = MakeMixedRelation(3, 40);
  ExpectDeterministicCutoffs(
      {"mfds", [r](ThreadPool* pool, RunContext* ctx)
                   -> Result<std::vector<std::string>> {
         MfdDiscoveryOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredMfd> mfds,
                                  DiscoverMfds(r, options));
         std::vector<std::string> keys;
         for (const auto& m : mfds) {
           keys.push_back(m.mfd.ToString() + "@" + FormatDouble(m.delta));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, ConstantCfds) {
  Relation r = MakeRandomRelation(17, 50, 4, 3);
  ExpectDeterministicCutoffs(
      {"constant_cfds", [r](ThreadPool* pool, RunContext* ctx)
                            -> Result<std::vector<std::string>> {
         CfdDiscoveryOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredCfd> cfds,
                                  DiscoverConstantCfds(r, options));
         std::vector<std::string> keys;
         for (const auto& c : cfds) {
           keys.push_back(c.cfd.ToString() + "@" + std::to_string(c.support));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, GeneralCfds) {
  Relation r = MakeRandomRelation(18, 40, 4, 3);
  ExpectDeterministicCutoffs(
      {"general_cfds", [r](ThreadPool* pool, RunContext* ctx)
                           -> Result<std::vector<std::string>> {
         CfdDiscoveryOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredCfd> cfds,
                                  DiscoverGeneralCfds(r, options));
         std::vector<std::string> keys;
         for (const auto& c : cfds) {
           keys.push_back(c.cfd.ToString() + "@" + std::to_string(c.support));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, FastDc) {
  Relation r = MakeMixedRelation(5, 30);
  ExpectDeterministicCutoffs(
      {"fastdc", [r](ThreadPool* pool, RunContext* ctx)
                     -> Result<std::vector<std::string>> {
         FastDcOptions options;
         options.max_predicates = 3;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredDc> dcs,
                                  DiscoverDcs(r, options));
         std::vector<std::string> keys;
         for (const auto& d : dcs) {
           keys.push_back(d.dc.ToString(nullptr) + "@" +
                          FormatDouble(d.violation_fraction));
         }
         return keys;
       }});
}

TEST(CutoffDifferentialTest, HybridFd) {
  // The hybrid driver check-points per sampling pass and per frontier
  // level; a cutoff returns the FDs of the fully validated levels — a
  // prefix of the canonical output — at any thread count.
  Relation r = MakeRandomRelation(19, 60, 5, 3);
  ExpectDeterministicCutoffs(
      {"hybrid_fd", [r](ThreadPool* pool, RunContext* ctx)
                        -> Result<std::vector<std::string>> {
         HybridFdOptions options;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(std::vector<DiscoveredFd> fds,
                                  DiscoverFdsHybrid(r, options));
         std::vector<std::string> keys;
         for (const auto& fd : fds) keys.push_back(FdKey(fd));
         return keys;
       }});
}

TEST(CutoffDifferentialTest, HybridMd) {
  // min_confidence 1.0 keeps the run on the cover-tree path (anything else
  // delegates to DiscoverMds, which has its own cutoff case above).
  HeterogeneousConfig config;
  config.num_entities = 20;
  config.seed = 7;
  GeneratedData data = GenerateHeterogeneous(config);
  Relation r = data.relation;
  ExpectDeterministicCutoffs(
      {"hybrid_md", [r](ThreadPool* pool, RunContext* ctx)
                        -> Result<std::vector<std::string>> {
         MdDiscoveryOptions options;
         options.max_lhs_attrs = 1;
         options.min_confidence = 1.0;
         options.pool = pool;
         options.context = ctx;
         FAMTREE_ASSIGN_OR_RETURN(
             std::vector<DiscoveredMd> mds,
             DiscoverMdsHybrid(r, AttrSet::Single(4), options));
         std::vector<std::string> keys;
         for (const auto& m : mds) {
           keys.push_back(m.md.ToString() + "@" + FormatDouble(m.support) +
                          "/" + FormatDouble(m.confidence));
         }
         return keys;
       }});
}

// ------------------------------------------------ OOM / allocation sites

TEST(OomFaultTest, CsvReaderFailsCleanlyAtCsvRowsSite) {
  std::string csv = "a,b\n";
  for (int i = 0; i < 2000; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i % 7) + "\n";
  }
  // Unlimited read parses fine.
  ASSERT_TRUE(ReadCsvString(csv).ok());
  FaultInjector::Options fopts;
  fopts.fail_at_alloc = 1;
  fopts.alloc_site = "csv_rows";
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  CsvOptions options;
  options.context = &ctx;
  auto read = ReadCsvString(csv, options);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kResourceExhausted);
  // A rearmed context reads the same text successfully.
  RunContext clean;
  CsvOptions options2;
  options2.context = &clean;
  EXPECT_TRUE(ReadCsvString(csv, options2).ok());
}

TEST(OomFaultTest, CsvReaderHonorsMemoryBudget) {
  std::string csv = "a,b\n";
  for (int i = 0; i < 2000; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i % 7) + "\n";
  }
  MemoryBudget tiny(64);  // far below the input size
  RunContext ctx;
  ctx.set_memory_budget(&tiny);
  CsvOptions options;
  options.context = &ctx;
  auto read = ReadCsvString(csv, options);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kResourceExhausted);
}

TEST(OomFaultTest, PliCacheFillFailsWithoutPublishingState) {
  Relation r = MakeRandomRelation(21, 80, 4, 3);
  PliCache cache(r);
  FaultInjector::Options fopts;
  fopts.fail_at_alloc = 1;
  fopts.alloc_site = "pli_build";
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  RunContext::BeginRun(&ctx, "test");
  AttrSet attrs = AttrSet::Of({0, 1});
  auto failed = cache.Get(attrs, &ctx);
  EXPECT_EQ(failed, nullptr);
  EXPECT_EQ(RunContext::StopStatus(&ctx).code(),
            StatusCode::kResourceExhausted);
  // No partial cache mutation: a later unlimited Get builds and returns
  // the partition as if the failed fill never happened.
  RunContext clean;
  RunContext::BeginRun(&clean, "test");
  auto ok = cache.Get(attrs, &clean);
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(RunContext::StopStatus(&clean).ok());
  // Reference content from a fresh cache without any injection.
  PliCache fresh(r);
  auto want = fresh.Get(attrs);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(ok->num_classes(), want->num_classes());
}

TEST(OomFaultTest, PliCacheFillHonorsMemoryBudget) {
  Relation r = MakeRandomRelation(22, 100, 4, 3);
  PliCache cache(r);
  MemoryBudget tiny(16);
  RunContext ctx;
  ctx.set_memory_budget(&tiny);
  RunContext::BeginRun(&ctx, "test");
  EXPECT_EQ(cache.Get(AttrSet::Of({0, 1}), &ctx), nullptr);
  EXPECT_EQ(RunContext::StopStatus(&ctx).code(),
            StatusCode::kResourceExhausted);
}

TEST(OomFaultTest, EvidenceBuildFailsAtEvidenceSetSite) {
  Relation r = MakeRandomRelation(23, 60, 4, 3);
  EncodedRelation encoded(r);
  std::vector<EvidenceColumn> config;
  for (int a = 0; a < r.num_columns(); ++a) {
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kEquality;
    config.push_back(std::move(col));
  }
  FaultInjector::Options fopts;
  fopts.fail_at_alloc = 1;
  fopts.alloc_site = "evidence_set";
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  RunContext::BeginRun(&ctx, "test");
  EvidenceOptions eopts;
  eopts.context = &ctx;
  auto failed = BuildEvidence(encoded, config, eopts);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // The same build with no limits succeeds.
  auto ok = BuildEvidence(encoded, config, EvidenceOptions{});
  ASSERT_TRUE(ok.ok());
}

TEST(OomFaultTest, EvidenceCacheNotMutatedByFailedBuild) {
  Relation r = MakeRandomRelation(24, 60, 4, 3);
  EncodedRelation encoded(r);
  std::vector<EvidenceColumn> config;
  for (int a = 0; a < r.num_columns(); ++a) {
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kEquality;
    config.push_back(std::move(col));
  }
  EvidenceCache cache;
  FaultInjector::Options fopts;
  fopts.fail_at_alloc = 1;
  fopts.alloc_site = "evidence_set";
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  RunContext::BeginRun(&ctx, "test");
  EvidenceOptions eopts;
  eopts.context = &ctx;
  auto failed = GetOrBuildEvidence(&cache, encoded, RelationFingerprint(r),
                                   config, eopts);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().bytes, 0u) << "failed build was published";
  // The next unlimited call builds and caches the multiset.
  auto ok = GetOrBuildEvidence(&cache, encoded, RelationFingerprint(r), config,
                               EvidenceOptions{});
  ASSERT_TRUE(ok.ok());
  EXPECT_GT(cache.stats().bytes, 0u);
}

TEST(OomFaultTest, HybridFdSampleSiteYieldsEmptyDeterministicPrefix) {
  Relation r = MakeRandomRelation(25, 60, 4, 3);
  FaultInjector::Options fopts;
  fopts.fail_at_alloc = 1;
  fopts.alloc_site = "hybrid_sample";
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  HybridFdOptions options;
  options.context = &ctx;
  auto partial = DiscoverFdsHybrid(r, options);
  ASSERT_TRUE(partial.ok()) << partial.status().message();
  EXPECT_TRUE(partial->empty()) << "sampling died before any level closed";
  RunReport report = ctx.report();
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.stop_code, StatusCode::kResourceExhausted);
  EXPECT_EQ(report.completed_units, 0);
  // A rearmed run discovers the full cover, equal to the lattice oracle.
  RunContext clean;
  HybridFdOptions unlimited;
  unlimited.context = &clean;
  auto full = DiscoverFdsHybrid(r, unlimited);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(clean.report().exhausted);
  auto tane = DiscoverFdsTane(r, TaneOptions{});
  ASSERT_TRUE(tane.ok());
  EXPECT_EQ(full->size(), tane->size());
}

TEST(OomFaultTest, HybridFdValidateSiteStopsAtTheSamplingBoundary) {
  Relation r = MakeRandomRelation(26, 60, 4, 3);
  FaultInjector::Options fopts;
  fopts.fail_at_alloc = 1;
  fopts.alloc_site = "hybrid_validate";
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  HybridFdOptions options;
  options.context = &ctx;
  auto partial = DiscoverFdsHybrid(r, options);
  ASSERT_TRUE(partial.ok()) << partial.status().message();
  EXPECT_TRUE(partial->empty()) << "level 0 never validated";
  RunReport report = ctx.report();
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.stop_code, StatusCode::kResourceExhausted);
  EXPECT_EQ(report.completed_units, 1);  // the sampling stage closed
  EXPECT_LT(report.completed_units, report.total_units);
}

TEST(OomFaultTest, HybridMdChargeSitesFailCleanlyAndRerunMatchesOracle) {
  HeterogeneousConfig config;
  config.num_entities = 20;
  config.seed = 9;
  GeneratedData data = GenerateHeterogeneous(config);
  Relation r = data.relation;
  MdDiscoveryOptions options;
  options.max_lhs_attrs = 1;
  options.min_confidence = 1.0;
  auto oracle = DiscoverMds(r, AttrSet::Single(4), options);
  ASSERT_TRUE(oracle.ok());
  for (const std::string& site : {"hybrid_sample", "hybrid_validate"}) {
    SCOPED_TRACE(site);
    FaultInjector::Options fopts;
    fopts.fail_at_alloc = 1;
    fopts.alloc_site = site;
    FaultInjector faults(fopts);
    RunContext ctx;
    ctx.set_fault_injector(&faults);
    MdDiscoveryOptions limited = options;
    limited.context = &ctx;
    HybridMdStats stats;
    auto partial = DiscoverMdsHybrid(r, AttrSet::Single(4), limited, &stats);
    ASSERT_TRUE(partial.ok()) << partial.status().message();
    EXPECT_TRUE(partial->empty());
    RunReport report = ctx.report();
    EXPECT_TRUE(report.exhausted);
    EXPECT_EQ(report.stop_code, StatusCode::kResourceExhausted);
    // A rearmed run is bit-identical to the oracle.
    auto full = DiscoverMdsHybrid(r, AttrSet::Single(4), options);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(full->size(), oracle->size());
    for (size_t i = 0; i < full->size(); ++i) {
      EXPECT_EQ((*full)[i].md.ToString(), (*oracle)[i].md.ToString());
      EXPECT_EQ((*full)[i].support, (*oracle)[i].support);
      EXPECT_EQ((*full)[i].confidence, (*oracle)[i].confidence);
    }
  }
}

// -------------------------------------------- dangling-relation regression

TEST(DanglingRelationTest, StaleAddressIsRejectedNotServed) {
  DiscoveryEngine engine;
  std::optional<Relation> slot;
  slot.emplace(MakeRandomRelation(31, 50, 4, 3));
  auto first = engine.Tane(*slot);
  ASSERT_TRUE(first.ok());
  // A different relation at the same address (destroy + construct in
  // place) must be rejected, not silently served the stale PLI store.
  slot.reset();
  slot.emplace(MakeRandomRelation(32, 50, 4, 3));
  auto cache = engine.CacheFor(*slot);
  if (!cache.ok()) {
    EXPECT_EQ(cache.status().code(), StatusCode::kInvalidArgument);
    auto stale = engine.Tane(*slot);
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);
    // ForgetRelation clears the stale entry; the engine serves the new
    // relation afterwards.
    engine.ForgetRelation(*slot);
    auto fresh = engine.Tane(*slot);
    ASSERT_TRUE(fresh.ok());
  } else {
    // The optional re-used different storage; nothing to assert beyond a
    // working run.
    EXPECT_TRUE(engine.Tane(*slot).ok());
  }
}

TEST(DanglingRelationTest, SameContentAtSameAddressStillServed) {
  DiscoveryEngine engine;
  Relation r = MakeRandomRelation(33, 40, 4, 3);
  auto first = engine.Tane(r);
  ASSERT_TRUE(first.ok());
  auto second = engine.Tane(r);  // warm store, same fingerprint
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
}

// ----------------------------------------------- engine-level plumbing

TEST(EngineContextTest, EngineWideContextReportsPerDriverRuns) {
  RunContext ctx;
  EngineOptions options;
  options.num_threads = 4;
  options.context = &ctx;
  DiscoveryEngine engine(options);
  Relation r = MakeRandomRelation(41, 50, 4, 3);
  ASSERT_TRUE(engine.Tane(r).ok());
  RunReport report = ctx.report();
  EXPECT_EQ(report.driver, "tane");
  EXPECT_FALSE(report.exhausted);
  EXPECT_GT(report.completed_units, 0);
  ASSERT_TRUE(engine.Cords(r).ok());
  EXPECT_EQ(ctx.report().driver, "cords");
}

TEST(EngineContextTest, ExpiredDeadlineYieldsEmptyPrefixAndReport) {
  RunContext ctx;
  ctx.set_timeout(std::chrono::nanoseconds(0));
  EngineOptions options;
  options.num_threads = 4;
  options.context = &ctx;
  DiscoveryEngine engine(options);
  Relation r = MakeRandomRelation(42, 60, 5, 3);
  auto fds = engine.Tane(r);
  ASSERT_TRUE(fds.ok());
  EXPECT_TRUE(fds->empty());
  RunReport report = ctx.report();
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.stop_code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.completed_units, 0);
}

TEST(EngineContextTest, DetectorHonorsRulePrefixUnderCutoff) {
  Relation r = MakeRandomRelation(43, 60, 4, 3);
  std::vector<DependencyPtr> rules;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) {
        rules.push_back(
            std::make_shared<Fd>(AttrSet::Single(a), AttrSet::Single(b)));
      }
    }
  }
  ViolationDetector detector(rules);
  auto full = detector.Detect(r);
  ASSERT_TRUE(full.ok());
  std::optional<size_t> first_size;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    FaultInjector::Options fopts;
    fopts.fail_at_checkpoint = 2;
    FaultInjector faults(fopts);
    RunContext ctx;
    ctx.set_unit_batch(2);
    ctx.set_fault_injector(&faults);
    auto partial = detector.Detect(r, 1000, &pool, nullptr, &ctx);
    ASSERT_TRUE(partial.ok());
    ASSERT_LE(partial->results.size(), full->results.size());
    for (size_t i = 0; i < partial->results.size(); ++i) {
      EXPECT_EQ(partial->results[i].report.violation_count,
                full->results[i].report.violation_count)
          << "rule " << i;
    }
    if (!first_size.has_value()) {
      first_size = partial->results.size();
    } else {
      EXPECT_EQ(*first_size, partial->results.size());
    }
  }
}

TEST(EngineContextTest, RepairStopsAtPassBoundaryWithPartialRepair) {
  Relation r = MakeRandomRelation(44, 60, 4, 2);
  std::vector<Fd> fds = {Fd(AttrSet::Single(0), AttrSet::Single(1)),
                         Fd(AttrSet::Single(2), AttrSet::Single(3))};
  QualityOptions unlimited;
  auto full = RepairWithFds(r, fds, 4, unlimited);
  ASSERT_TRUE(full.ok());
  FaultInjector::Options fopts;
  fopts.fail_at_checkpoint = 2;  // one (pass, fd) step completes
  FaultInjector faults(fopts);
  RunContext ctx;
  ctx.set_fault_injector(&faults);
  QualityOptions limited;
  limited.context = &ctx;
  auto partial = RepairWithFds(r, fds, 4, limited);
  ASSERT_TRUE(partial.ok());
  RunReport report = ctx.report();
  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.completed_units, 1);
  // The partial change list is a prefix of the full run's.
  ASSERT_LE(partial->changes.size(), full->changes.size());
  for (size_t i = 0; i < partial->changes.size(); ++i) {
    EXPECT_EQ(partial->changes[i].row, full->changes[i].row) << i;
    EXPECT_EQ(partial->changes[i].col, full->changes[i].col) << i;
  }
}

// ------------------------------------------------- cancellation latency

TEST(CancellationLatencyTest, TaneReturnsWithinTheBound) {
  // A deliberately wide lattice keeps the run going long enough for the
  // cancel to land mid-flight; the driver must return within 250 ms of
  // the token flipping (the ISSUE's latency bound).
  Relation r = MakeRandomRelation(51, 400, 8, 4);
  ThreadPool pool(8);
  CancelToken token;
  RunContext ctx;
  ctx.set_cancel_token(&token);
  TaneOptions options;
  options.max_lhs_size = 6;
  options.pool = &pool;
  options.context = &ctx;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    token.Cancel();
  });
  auto begin = std::chrono::steady_clock::now();
  auto fds = DiscoverFdsTane(r, options);
  auto end = std::chrono::steady_clock::now();
  canceller.join();
  ASSERT_TRUE(fds.ok());
  RunReport report = ctx.report();
  if (report.exhausted) {
    // Return latency measured from the cancel point: total runtime minus
    // the 5 ms the canceller slept is a safe upper bound on it.
    auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(end - begin);
    EXPECT_LE(elapsed.count() - 5, 250)
        << "cancellation took " << elapsed.count() << " ms end-to-end";
    EXPECT_EQ(report.stop_code, StatusCode::kCancelled);
  }
}

// --------------------------------------------------- BeginRun fast-fail

TEST(BeginRunFastFailTest, PreCancelledTokenLatchesBeforeAnyWork) {
  // A token cancelled before the run starts must stop it at BeginRun, not
  // at the first Checkpoint: the stop is latched immediately and the
  // PliCache pre-build check turns the first Get into a no-op.
  CancelToken token;
  token.Cancel();
  RunContext ctx;
  ctx.set_cancel_token(&token);
  RunContext::BeginRun(&ctx, "dead-on-arrival");
  Status st = RunContext::StopStatus(&ctx);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);

  Relation r = MakeRandomRelation(61, 40, 4, 3);
  PliCache cache(r);
  EXPECT_EQ(cache.Get(AttrSet::Of({0, 1}), &ctx), nullptr);
  PliCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.builds, 0);  // no partition was computed
  EXPECT_EQ(stats.misses, 0);  // not even a map lookup was burned
  EXPECT_EQ(stats.hits, 0);

  // The latched detail names the fast-fail, and stays latched for probes.
  EXPECT_NE(st.message().find("before it started"), std::string::npos);
  EXPECT_EQ(RunContext::Checkpoint(&ctx).code(), StatusCode::kCancelled);
  EXPECT_EQ(RunContext::Poll(&ctx).code(), StatusCode::kCancelled);
}

TEST(BeginRunFastFailTest, ExpiredDeadlineLatchesBeforeAnyWork) {
  RunContext ctx;
  ctx.set_deadline(RunContext::Clock::now() - std::chrono::milliseconds(1));
  RunContext::BeginRun(&ctx, "dead-on-arrival");
  EXPECT_EQ(RunContext::StopStatus(&ctx).code(),
            StatusCode::kDeadlineExceeded);

  Relation r = MakeRandomRelation(62, 40, 4, 3);
  PliCache cache(r);
  EXPECT_EQ(cache.Get(AttrSet::Single(0), &ctx), nullptr);
  EXPECT_EQ(cache.stats().builds, 0);
  EXPECT_EQ(cache.stats().misses, 0);

  // A whole driver run on the same context returns an empty prefix without
  // touching the relation.
  TaneOptions options;
  options.context = &ctx;
  auto fds = DiscoverFdsTane(r, options);
  ASSERT_TRUE(fds.ok());
  EXPECT_TRUE(fds->empty());
  EXPECT_TRUE(ctx.report().exhausted);
  EXPECT_EQ(ctx.report().stop_code, StatusCode::kDeadlineExceeded);
}

TEST(BeginRunFastFailTest, ClearedDeadlineRearmsCleanly) {
  // The fast-fail is per-run state: once the deadline is cleared (or the
  // token reset), the next BeginRun starts healthy.
  RunContext ctx;
  ctx.set_deadline(RunContext::Clock::now() - std::chrono::milliseconds(1));
  RunContext::BeginRun(&ctx, "first");
  EXPECT_FALSE(RunContext::StopStatus(&ctx).ok());
  ctx.clear_deadline();
  RunContext::BeginRun(&ctx, "second");
  EXPECT_TRUE(RunContext::StopStatus(&ctx).ok());
  EXPECT_TRUE(RunContext::Checkpoint(&ctx).ok());
}

}  // namespace
}  // namespace famtree
