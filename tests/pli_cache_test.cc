#include "engine/pli_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "discovery/tane.h"
#include "engine/engine.h"

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

/// Order-free view of a partition: classes with sorted rows, sorted.
std::vector<std::vector<int>> Canonical(const StrippedPartition& p) {
  std::vector<std::vector<int>> classes = p.classes();
  for (auto& c : classes) std::sort(c.begin(), c.end());
  std::sort(classes.begin(), classes.end());
  return classes;
}

TEST(PliCacheTest, ServesPartitionsMatchingGroundTruth) {
  Relation r = MakeRandomRelation(7, 80, 5, 3);
  PliCache cache(r);
  for (AttrSet attrs :
       {AttrSet::Single(0), AttrSet::Of({1, 3}), AttrSet::Of({0, 2, 4}),
        AttrSet::Full(5)}) {
    auto pli = cache.Get(attrs);
    ASSERT_NE(pli, nullptr);
    EXPECT_EQ(Canonical(*pli),
              Canonical(StrippedPartition::ForAttributeSet(r, attrs)));
  }
}

TEST(PliCacheTest, RejectsEmptyAndOutOfSchemaSets) {
  Relation r = MakeRandomRelation(1, 10, 3, 2);
  PliCache cache(r);
  EXPECT_EQ(cache.Get(AttrSet()), nullptr);
  EXPECT_EQ(cache.Get(AttrSet::Of({0, 5})), nullptr);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(PliCacheTest, HitsBumpCountersButNeverChangeResults) {
  Relation r = MakeRandomRelation(11, 60, 4, 3);
  PliCache cache(r);
  AttrSet attrs = AttrSet::Of({1, 2});
  auto first = cache.Get(attrs);
  PliCache::Stats after_miss = cache.stats();
  EXPECT_EQ(after_miss.hits, 0);
  // {1,2} itself plus the recursive halves {2} and {1} are misses.
  EXPECT_EQ(after_miss.misses, 3);
  EXPECT_GT(after_miss.bytes, 0u);

  auto second = cache.Get(attrs);
  PliCache::Stats after_hit = cache.stats();
  EXPECT_EQ(after_hit.hits, 1);
  EXPECT_EQ(after_hit.misses, after_miss.misses);
  EXPECT_EQ(after_hit.bytes, after_miss.bytes);
  // A hit serves the very same immutable partition object.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(Canonical(*first), Canonical(*second));
}

TEST(PliCacheTest, EvictedPartitionIsRebuiltIdentically) {
  Relation r = MakeRandomRelation(23, 120, 6, 2);
  // A tiny budget: multi-attribute partitions evict each other while the
  // pinned single-attribute leaves stay put.
  PliCache::Options options;
  options.max_bytes = 1;
  PliCache cache(r, options);

  std::vector<AttrSet> sets;
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) sets.push_back(AttrSet::Of({a, b}));
  }
  std::vector<std::vector<std::vector<int>>> first_pass;
  for (AttrSet s : sets) first_pass.push_back(Canonical(*cache.Get(s)));
  PliCache::Stats mid = cache.stats();
  EXPECT_GT(mid.evictions, 0) << "budget did not force eviction";

  // Every re-request is a rebuild (the budget holds at most one unpinned
  // entry) and must reproduce the evicted partition exactly.
  for (size_t i = 0; i < sets.size(); ++i) {
    auto rebuilt = cache.Get(sets[i]);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(Canonical(*rebuilt), first_pass[i]);
    EXPECT_EQ(Canonical(*rebuilt),
              Canonical(StrippedPartition::ForAttributeSet(r, sets[i])));
  }
  PliCache::Stats end = cache.stats();
  EXPECT_GT(end.evictions, mid.evictions);
  EXPECT_GT(end.misses, mid.misses);
}

TEST(PliCacheTest, PinnedSinglesSurviveEvictionPressure) {
  Relation r = MakeRandomRelation(31, 100, 5, 2);
  PliCache::Options options;
  options.max_bytes = 1;
  PliCache cache(r, options);
  std::vector<const StrippedPartition*> singles;
  for (int a = 0; a < 5; ++a) {
    singles.push_back(cache.Get(AttrSet::Single(a)).get());
  }
  // Pile on unpinned entries to trigger evictions...
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) cache.Get(AttrSet::Of({a, b}));
  }
  EXPECT_GT(cache.stats().evictions, 0);
  // ... then confirm the single-attribute leaves are still cache hits
  // served from the same objects.
  int64_t hits_before = cache.stats().hits;
  for (int a = 0; a < 5; ++a) {
    EXPECT_EQ(cache.Get(AttrSet::Single(a)).get(), singles[a]);
  }
  EXPECT_EQ(cache.stats().hits, hits_before + 5);
}

// TANE's tests read only the previous level's partitions, so a cached run
// with LHS cap k leaves no partition of more than k attributes behind
// (k >= 1; the level-1 leaves always serve the constant-column test). A
// probe Get of every (k + 1)-set must miss.
TEST(PliCacheTest, TaneCachesNoPartitionBeyondItsLevelCap) {
  Relation r = MakeRandomRelation(53, 80, 5, 3);
  for (int max_lhs : {1, 2, 3}) {
    PliCache cache(r);
    TaneOptions options;
    options.max_lhs_size = max_lhs;
    options.cache = &cache;
    auto cached = DiscoverFdsTane(r, options);
    ASSERT_TRUE(cached.ok());
    options.cache = nullptr;
    auto plain = DiscoverFdsTane(r, options);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(cached->size(), plain->size()) << "max_lhs " << max_lhs;
    int64_t hits = cache.stats().hits;
    int cached_at_cap = 0;
    for (AttrSet attrs : AllSubsetsOfSize(5, max_lhs)) {
      cache.Get(attrs);
      cached_at_cap += cache.stats().hits > hits;
      hits = cache.stats().hits;
    }
    EXPECT_GT(cached_at_cap, 0) << "the walk never reached level " << max_lhs;
    for (AttrSet attrs : AllSubsetsOfSize(5, max_lhs + 1)) {
      int64_t misses = cache.stats().misses;
      cache.Get(attrs);
      EXPECT_GT(cache.stats().misses, misses)
          << "max_lhs " << max_lhs << " cached " << attrs.ToString();
    }
  }
}

TEST(PliCacheTest, ConcurrentGetsAgreeWithGroundTruth) {
  Relation r = MakeRandomRelation(47, 90, 6, 3);
  PliCache cache(r);
  ThreadPool pool(8);
  std::vector<AttrSet> sets;
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a != b) sets.push_back(AttrSet::Of({a, b}));
    }
  }
  std::vector<std::shared_ptr<const StrippedPartition>> got(sets.size());
  Status st = pool.ParallelFor(static_cast<int64_t>(sets.size()),
                               [&](int64_t i) {
                                 got[i] = cache.Get(sets[i]);
                                 return Status::OK();
                               });
  ASSERT_TRUE(st.ok());
  for (size_t i = 0; i < sets.size(); ++i) {
    ASSERT_NE(got[i], nullptr);
    EXPECT_EQ(Canonical(*got[i]),
              Canonical(StrippedPartition::ForAttributeSet(r, sets[i])));
  }
  PliCache::Stats stats = cache.stats();
  // Every top-level Get plus the recursive half-lookups is either a hit or
  // a miss; racing threads may duplicate builds but never lookups.
  EXPECT_GE(stats.hits + stats.misses, static_cast<int64_t>(sets.size()));
  EXPECT_GT(stats.misses, 0);
  EXPECT_GE(stats.builds, stats.misses);
}

// Concurrent Get on overlapping attribute sets: racing threads may
// duplicate a build, but every returned partition is the same immutable
// object graph and matches ground truth (TSan config exercises the
// publication path).
TEST(PliCacheConcurrencyTest, OverlappingGetsRaceOnSharedHalves) {
  Relation r = MakeRandomRelation(53, 120, 6, 3);
  PliCache cache(r);
  // Every set contains attribute 0, so the recursive halves collide hard.
  std::vector<AttrSet> sets;
  for (int b = 1; b < 6; ++b) {
    sets.push_back(AttrSet::Of({0, b}));
    for (int c = b + 1; c < 6; ++c) sets.push_back(AttrSet::Of({0, b, c}));
  }
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const AttrSet& attrs = sets[(t + round) % sets.size()];
        auto pli = cache.Get(attrs);
        if (pli == nullptr) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  for (const AttrSet& attrs : sets) {
    auto pli = cache.Get(attrs);
    ASSERT_NE(pli, nullptr);
    EXPECT_EQ(Canonical(*pli),
              Canonical(StrippedPartition::ForAttributeSet(r, attrs)));
  }
}

// CacheFor/Get on relation A concurrent with ForgetRelation(B): dropping
// one relation's cache must never disturb a discovery in flight on
// another (the famtree-serve append path forgets caches while unrelated
// requests keep running).
TEST(PliCacheConcurrencyTest, ForgetOneRelationWhileAnotherIsServed) {
  Relation a = MakeRandomRelation(57, 100, 5, 3);
  Relation b = MakeRandomRelation(58, 100, 5, 3);
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  DiscoveryEngine engine(engine_options);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread churner([&] {
    // Re-register and forget B in a tight loop.
    while (!stop.load(std::memory_order_acquire)) {
      auto cache = engine.CacheFor(b);
      if (!cache.ok() || (*cache)->Get(AttrSet::Of({0, 1})) == nullptr) {
        failures.fetch_add(1);
      }
      engine.ForgetRelation(b);
    }
  });
  std::vector<DiscoveredFd> expected;
  {
    TaneOptions options;
    options.max_lhs_size = 3;
    auto fds = DiscoverFdsTane(a, options);
    ASSERT_TRUE(fds.ok());
    expected = *std::move(fds);
  }
  TaneOptions tane_options;
  tane_options.max_lhs_size = 3;
  for (int round = 0; round < 10; ++round) {
    auto fds = engine.Tane(a, tane_options);
    ASSERT_TRUE(fds.ok());
    EXPECT_EQ(fds->size(), expected.size()) << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  churner.join();
  EXPECT_EQ(failures.load(), 0);
}

// Readers racing a maintained append under the serve-layer locking
// pattern (shared_mutex: Get under a shared lock, AppendRows +
// MaintainAppend under an exclusive one). After the dust settles every
// partition equals a cold rebuild of the grown relation.
TEST(PliCacheConcurrencyTest, AppendMaintenanceSerializedAgainstGets) {
  Relation r = MakeRandomRelation(59, 80, 4, 3);
  PliCache cache(r);
  std::shared_mutex rw;
  constexpr int kReaders = 6;
  constexpr int kAppends = 8;
  // Bounded reader loops: a reader gated on the writer finishing can
  // starve a reader-preferring rwlock forever; bounded loops guarantee
  // the writer's unique_lock eventually wins while still overlapping
  // plenty of Gets with the maintenance batches.
  constexpr int kGetsPerReader = 60;
  std::atomic<int> reader_nulls{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < kGetsPerReader; ++i) {
        std::shared_lock<std::shared_mutex> lock(rw);
        AttrSet attrs = AttrSet::Of({t % 4, (t + 1 + i % 3) % 4});
        if (attrs.size() < 2) attrs = AttrSet::Of({0, 1});
        if (cache.Get(attrs) == nullptr) reader_nulls.fetch_add(1);
      }
    });
  }
  Rng rng(97);
  bool append_failed = false;
  std::thread writer([&] {
    for (int batch = 0; batch < kAppends; ++batch) {
      std::vector<std::vector<Value>> rows;
      for (int k = 0; k < 5; ++k) {
        std::vector<Value> row;
        for (int c = 0; c < 4; ++c) row.push_back(Value(rng.Uniform(0, 2)));
        rows.push_back(std::move(row));
      }
      std::unique_lock<std::shared_mutex> lock(rw);
      if (!r.AppendRows(std::move(rows)).ok() ||
          !cache.MaintainAppend().ok()) {
        append_failed = true;
        return;
      }
    }
  });
  for (auto& th : readers) th.join();
  writer.join();
  ASSERT_FALSE(append_failed);
  EXPECT_EQ(reader_nulls.load(), 0);
  EXPECT_EQ(cache.num_rows(), r.num_rows());
  EXPECT_EQ(cache.fingerprint(), RelationFingerprint(r));
  for (int x = 0; x < 4; ++x) {
    for (int y = x + 1; y < 4; ++y) {
      AttrSet attrs = AttrSet::Of({x, y});
      auto pli = cache.Get(attrs);
      ASSERT_NE(pli, nullptr);
      EXPECT_EQ(Canonical(*pli),
                Canonical(StrippedPartition::ForAttributeSet(r, attrs)));
    }
  }
}

}  // namespace
}  // namespace famtree
