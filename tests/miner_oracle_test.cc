// Brute-force oracle suite for the discovery miners. Every miner runs on
// one production path (the dictionary-encoded backend, evidence kernel
// where the input allows it); this suite checks that path against
// references built only from the deps/ validators and plain enumeration,
// on small random relations (at most ~8 columns and ~200 rows, fewer for
// DCs):
//
//   * Miners that promise every minimal dependency of a candidate space
//     (TANE/FastFD, constant and general CFDs, unary ODs, MVDs, PFDs, exact
//     DDs, NEDs, MDs, MFDs, exact FastDC) are checked for soundness (each
//     output holds and its reported measure equals the validator's),
//     completeness and minimality against enumeration of the space.
//   * Heuristic or sampled miners (greedy CFD tableau, sampled DDs, sampled
//     FastDC, SD/CSD tableau, CORDS, FHD assembly) are checked for
//     soundness and pinned to golden outputs on the seeded cases below.
//
// Every case runs at 1, 2 and 8 threads with a shared PliCache and must
// also reproduce the serial (no pool, no cache) output bit for bit. The
// pairwise miners (DDs, MDs, MFDs, FastDC) run on the evidence kernel for
// every input here — NaN order cells, cross-column predicates, and
// threshold grids or schemas whose comparison word takes several 64-bit
// lanes — and BuildsEvidence pins that. Only NED keeps pair scans, for a
// NaN cell or a non-built-in target metric, and is checked against the
// same oracle on both.
//
// Seeding convention: every generator seed derives from CaseSeed("<name>"),
// a stable FNV-1a hash, so seeds never depend on test order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "deps/afd.h"
#include "deps/cfd.h"
#include "deps/dc.h"
#include "deps/dd.h"
#include "deps/fd.h"
#include "deps/fhd.h"
#include "deps/md.h"
#include "deps/mfd.h"
#include "deps/mvd.h"
#include "deps/ned.h"
#include "deps/od.h"
#include "deps/pfd.h"
#include "deps/sd.h"
#include "deps/sfd.h"
#include "discovery/cfd_discovery.h"
#include "discovery/cords.h"
#include "discovery/dd_discovery.h"
#include "discovery/fastdc.h"
#include "discovery/fastfd.h"
#include "discovery/hybrid/hybrid_md.h"
#include "discovery/md_discovery.h"
#include "discovery/metric_discovery.h"
#include "discovery/mvd_discovery.h"
#include "discovery/ned_discovery.h"
#include "discovery/od_discovery.h"
#include "discovery/pfd_discovery.h"
#include "discovery/sd_discovery.h"
#include "discovery/tane.h"
#include "engine/evidence_cache.h"
#include "engine/pli_cache.h"
#include "metric/metric.h"
#include "relation/csv.h"
#include "relation/ooc/sharded_relation.h"

namespace famtree {
namespace {

const int kThreadCounts[] = {1, 2, 8};

constexpr uint64_t CaseSeed(const char* name) {
  uint64_t h = 14695981039346656037ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------ relations

/// Integer columns with planted structure: columns 0 and 1 are random over
/// `domain`; every later column is, by its index mod 3, random, a function
/// of the two previous columns, or a copy of the column two back — each
/// derived cell replaced by a random value with probability `noise`.
Relation RandomRelation(uint64_t seed, int rows, int cols, int domain,
                        double noise) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("c" + std::to_string(c));
  RelationBuilder b(names);
  for (int r = 0; r < rows; ++r) {
    std::vector<int64_t> v(cols);
    for (int c = 0; c < cols; ++c) {
      int64_t random = rng.Uniform(0, domain - 1);
      if (c < 2 || c % 3 == 0) {
        v[c] = random;
      } else if (c % 3 == 1) {
        v[c] = (v[c - 1] * 3 + v[c - 2]) % (domain + 1);
      } else {
        v[c] = v[c - 2];
      }
      if (c >= 2 && c % 3 != 0 && rng.Bernoulli(noise)) v[c] = random;
    }
    std::vector<Value> row;
    for (int64_t x : v) row.push_back(Value(x));
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

/// Mixed types for the metric miners: two edit-distance string columns
/// (short names with typo variants, a city), an integer, a double roughly
/// linear in the integer, and a group id. `nan_row` >= 0 puts a NaN in the
/// double column of that row.
Relation MixedRelation(uint64_t seed, int rows, int nan_row = -1) {
  Rng rng(seed);
  const char* names[] = {"anna", "anne", "bob", "bobby", "carl", "karl"};
  const char* cities[] = {"rome", "roma", "oslo", "lima"};
  RelationBuilder b({"name", "city", "num", "price", "grp"});
  for (int r = 0; r < rows; ++r) {
    int k = static_cast<int>(rng.Uniform(0, 5));
    int num = static_cast<int>(rng.Uniform(0, 12));
    double price = 10.0 * num + static_cast<double>(rng.Uniform(0, 4));
    if (r == nan_row) price = std::nan("");
    b.AddRow({Value(names[k]), Value(cities[k % 4]), Value(num),
              Value(price), Value(static_cast<int64_t>(k / 2))});
  }
  return std::move(b.Build()).value();
}

/// Ordered numeric columns for the OD/SD miners: a time stamp with ties, a
/// value that grows with it, one that falls with it, and noise.
Relation SeriesRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  RelationBuilder b({"t", "up", "down", "noise"});
  for (int r = 0; r < rows; ++r) {
    int t = r / 2;
    b.AddRow({Value(t), Value(2.0 * t),
              Value(static_cast<int64_t>(100 - t)),
              Value(static_cast<int64_t>(rng.Uniform(0, 9)))});
  }
  return std::move(b.Build()).value();
}

/// Continuous columns: column c of a row is (c + 1) x a per-row base plus
/// noise, so pairwise distances are distinct and the columns correlated.
/// `with_group` appends an integer column bucketing the base into fourths.
Relation WideDoubleRelation(uint64_t seed, int rows, int cols,
                            bool with_group) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("d" + std::to_string(c));
  if (with_group) names.push_back("grp");
  RelationBuilder b(names);
  for (int row = 0; row < rows; ++row) {
    std::vector<Value> values;
    double base = rng.NextDouble() * 100.0;
    for (int c = 0; c < cols; ++c) {
      values.push_back(Value(base * (c + 1) + rng.NextDouble()));
    }
    if (with_group) values.push_back(Value(static_cast<int64_t>(base / 25)));
    b.AddRow(std::move(values));
  }
  return std::move(b.Build()).value();
}

/// Per-key cross products: for each value of c0, every combination of two
/// (c1, c2) options with two (c3, c4) options, so c0 ->> c1 c2 holds;
/// `noise_rows` extra random rows then break it slightly.
Relation MvdRelation(uint64_t seed, int keys, int noise_rows) {
  Rng rng(seed);
  RelationBuilder b({"c0", "c1", "c2", "c3", "c4"});
  auto pick = [&] { return Value(rng.Uniform(0, 2)); };
  for (int k = 0; k < keys; ++k) {
    std::vector<std::pair<Value, Value>> ys = {{pick(), pick()},
                                               {pick(), pick()}};
    std::vector<std::pair<Value, Value>> zs = {{pick(), pick()},
                                               {pick(), pick()}};
    for (const auto& y : ys) {
      for (const auto& z : zs) {
        b.AddRow({Value(k), y.first, y.second, z.first, z.second});
      }
    }
  }
  for (int i = 0; i < noise_rows; ++i) {
    b.AddRow({Value(rng.Uniform(0, keys - 1)), pick(), pick(), pick(),
              pick()});
  }
  return std::move(b.Build()).value();
}

// -------------------------------------------------------------- goldens

// Outputs of the heuristic and sampled miners on the seeded cases below,
// recorded when each miner still carried its Value-based implementation
// and confirmed identical to it.
const std::vector<std::string> kGoldenTableau = {
    "#0, #1 -> #2, (#0='UK', #1=_, #2=_) #79",
};
const std::vector<std::string> kGoldenSampledDds = {
    "#0(<=0) -> #1(<=0) #95",
    "#0(<=0) -> #2(<=10) #95",
    "#0(<=0) -> #3(<=101) #95",
    "#0(<=0) -> #4(<=0) #95",
    "#0(<=1) -> #1(<=1) #182",
    "#0(<=1) -> #2(<=10) #182",
    "#0(<=1) -> #3(<=101) #182",
    "#0(<=1) -> #4(<=0) #182",
    "#1(<=0) -> #0(<=4) #188",
    "#1(<=0) -> #3(<=122) #188",
    "#1(<=1) -> #0(<=4) #364",
    "#2(<=1) -> #3(<=14) #150",
    "#2(<=3) -> #3(<=34) #321",
    "#3(<=8) -> #2(<=1) #64",
    "#3(<=14) -> #2(<=1) #150",
    "#3(<=31) -> #2(<=3) #300",
    "#4(<=0) -> #0(<=2) #197",
    "#4(<=0) -> #2(<=10) #197",
    "#4(<=0) -> #3(<=101) #197",
    "#4(<=1) -> #3(<=122) #413",
};
const std::vector<std::string> kGoldenSampledDcs = {
    "not(ta.#0 = tb.#0 /\\ ta.#2 < tb.#2 /\\ ta.#3 > tb.#3) v=0",
    "not(ta.#0 = tb.#0 /\\ ta.#2 < tb.#2 /\\ ta.#3 >= tb.#3) v=0",
    "not(ta.#0 = tb.#0 /\\ ta.#2 > tb.#2 /\\ ta.#3 < tb.#3) v=0",
    "not(ta.#0 = tb.#0 /\\ ta.#2 > tb.#2 /\\ ta.#3 <= tb.#3) v=0",
    "not(ta.#0 != tb.#0 /\\ ta.#3 = tb.#3) v=0",
    "not(ta.#0 != tb.#0 /\\ ta.#3 <= tb.#3 /\\ ta.#3 >= tb.#3) v=0",
    "not(ta.#1 = tb.#1 /\\ ta.#3 = tb.#3) v=0",
    "not(ta.#1 = tb.#1 /\\ ta.#3 <= tb.#3 /\\ ta.#3 >= tb.#3) v=0",
    "not(ta.#2 = tb.#2 /\\ ta.#2 < tb.#2) v=0",
    "not(ta.#2 = tb.#2 /\\ ta.#2 > tb.#2) v=0",
    "not(ta.#2 != tb.#2 /\\ ta.#2 <= tb.#2 /\\ ta.#2 >= tb.#2) v=0",
    "not(ta.#2 != tb.#2 /\\ ta.#3 = tb.#3) v=0",
    "not(ta.#2 != tb.#2 /\\ ta.#3 <= tb.#3 /\\ ta.#3 >= tb.#3) v=0",
    "not(ta.#2 < tb.#2 /\\ ta.#2 > tb.#2) v=0",
    "not(ta.#2 < tb.#2 /\\ ta.#3 = tb.#3) v=0",
    "not(ta.#2 < tb.#2 /\\ ta.#3 <= tb.#3 /\\ ta.#3 >= tb.#3) v=0",
    "not(ta.#2 > tb.#2 /\\ ta.#3 = tb.#3) v=0",
    "not(ta.#2 > tb.#2 /\\ ta.#3 <= tb.#3 /\\ ta.#3 >= tb.#3) v=0",
    "not(ta.#3 = tb.#3 /\\ ta.#3 < tb.#3) v=0",
    "not(ta.#3 = tb.#3 /\\ ta.#3 > tb.#3) v=0",
    "not(ta.#3 != tb.#3 /\\ ta.#3 <= tb.#3 /\\ ta.#3 >= tb.#3) v=0",
    "not(ta.#3 < tb.#3 /\\ ta.#3 > tb.#3) v=0",
};
const std::vector<std::string> kGoldenSdCsd = {
    "#0 ->_[-3,37] #1 c=0.68333333333333335",
    "#0 ->_tableau #1 {X in [-1,119]: gap [-10,10]} #120",
};
const std::vector<std::string> kGoldenCords = {
    "0->1 s=0.25 chi2=18.86035469906437 v=0.25073461866459773",
    "0->2 s=0.5714285714285714 chi2=271.16777089895368 v=0.95073264888883402 corr",
    "0->3 s=0.25 chi2=4.7046928579186655 v=0.12522902828975219",
    "0->4 s=0.21052631578947367 chi2=18.063141949505585 v=0.24537822471649479",
    "1->0 s=0.25 chi2=18.86035469906437 v=0.25073461866459773",
    "1->2 s=0.25 chi2=15.531608113241829 v=0.2275346721801744",
    "1->3 s=0.25 chi2=5.9780448606775352 v=0.14116237530680209",
    "1->4 s=0.20000000000000001 chi2=4.1077939816649502 v=0.11701558274670017",
    "2->0 s=0.5714285714285714 chi2=271.16777089895368 v=0.95073264888883402 corr",
    "2->1 s=0.25 chi2=15.531608113241825 v=0.22753467218017437",
    "2->3 s=0.25 chi2=8.003231587466761 v=0.16333229510690531",
    "2->4 s=0.22222222222222221 chi2=24.396119999345807 v=0.28516731930187822",
    "3->0 s=0.25 chi2=4.7046928579186647 v=0.12522902828975216",
    "3->1 s=0.25 chi2=5.9780448606775352 v=0.14116237530680209",
    "3->2 s=0.25 chi2=8.003231587466761 v=0.16333229510690531",
    "3->4 s=0.23529411764705882 chi2=31.34445087316055 v=0.3232359864101384 corr",
    "4->0 s=0.26315789473684209 chi2=18.063141949505585 v=0.24537822471649479",
    "4->1 s=0.25 chi2=4.1077939816649502 v=0.11701558274670017",
    "4->2 s=0.27777777777777779 chi2=24.396119999345803 v=0.28516731930187816",
    "4->3 s=0.29411764705882354 chi2=31.34445087316055 v=0.3232359864101384 corr",
};

// -------------------------------------------------------- run harness

/// Runs `mine(pool, cache, evidence)` serially (no pool, no caches) and at
/// every thread count with a fresh PliCache and one EvidenceCache shared
/// across the runs (so later runs are served from it); every run must
/// return the serial output. Returns the serial output.
template <typename T>
std::vector<T> RunEverywhere(
    const Relation& r,
    const std::function<Result<std::vector<T>>(ThreadPool*, PliCache*,
                                               EvidenceCache*)>& mine,
    const std::function<std::string(const T&)>& key) {
  auto serial = mine(nullptr, nullptr, nullptr);
  EXPECT_TRUE(serial.ok()) << serial.status().ToString();
  if (!serial.ok()) return {};
  EvidenceCache evidence;
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    PliCache cache(r);
    auto parallel = mine(&pool, &cache, &evidence);
    EXPECT_TRUE(parallel.ok()) << parallel.status().ToString();
    if (!parallel.ok()) continue;
    EXPECT_EQ(parallel->size(), serial->size()) << threads << " threads";
    for (size_t i = 0; i < std::min(parallel->size(), serial->size()); ++i) {
      EXPECT_EQ(key((*parallel)[i]), key((*serial)[i]))
          << threads << " threads, item " << i;
    }
  }
  return *serial;
}

template <typename T>
std::vector<std::string> Keys(const std::vector<T>& items,
                              const std::function<std::string(const T&)>& key) {
  std::vector<std::string> out;
  for (const T& t : items) out.push_back(key(t));
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Compares a miner's output to the oracle's, listing what is missing
/// (incompleteness) and what is extra (unsound or non-minimal) on failure.
::testing::AssertionResult SameItems(const std::vector<std::string>& got,
                                     const std::vector<std::string>& want) {
  if (got == want) return ::testing::AssertionSuccess();
  std::multiset<std::string> g(got.begin(), got.end());
  std::multiset<std::string> w(want.begin(), want.end());
  auto result = ::testing::AssertionFailure();
  if (g == w) return result << "same items, different order";
  for (const std::string& x : want) {
    if (g.count(x) < w.count(x)) result << "\n  missing: " << x;
  }
  for (const std::string& x : got) {
    if (w.count(x) < g.count(x)) result << "\n  extra:   " << x;
  }
  return result;
}

/// Whether one serial run builds an evidence multiset, i.e. takes the
/// evidence-kernel path rather than a pair scan.
bool BuildsEvidence(const std::function<void(EvidenceCache*)>& run) {
  EvidenceCache cache;
  run(&cache);
  return cache.stats().builds > 0;
}

/// Proper subsets of `s`, including the empty set.
std::vector<AttrSet> ProperSubsets(AttrSet s) {
  std::vector<AttrSet> out = ProperNonEmptySubsets(s);
  if (!s.empty()) out.push_back(AttrSet());
  return out;
}

// ------------------------------------------------------------ FDs / AFDs

std::string FdKey(const DiscoveredFd& fd) {
  return fd.lhs.ToString() + "->" + std::to_string(fd.rhs) + " e=" +
         Exact(fd.error);
}

/// Every minimal X -> a with |X| <= max_lhs and g3(X -> a) <= max_error,
/// measured by the Fd / Afd validators.
std::vector<std::string> FdOracle(const Relation& r, int max_lhs,
                                  double max_error) {
  int nc = r.num_columns();
  auto error = [&](AttrSet x, int a) {
    if (max_error == 0.0) {
      return Fd(x, AttrSet::Single(a)).Holds(r) ? 0.0 : 1.0;
    }
    return Afd::G3Error(r, x, AttrSet::Single(a));
  };
  std::vector<std::string> out;
  for (int size = 0; size <= max_lhs; ++size) {
    for (AttrSet x : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (x.Contains(a)) continue;
        double e = error(x, a);
        if (e > max_error) continue;
        bool minimal = true;
        for (AttrSet y : ProperSubsets(x)) {
          if (error(y, a) <= max_error) minimal = false;
        }
        if (minimal) out.push_back(FdKey(DiscoveredFd{x, a, e}));
      }
    }
  }
  return Sorted(out);
}

TEST(MinerOracleTest, TaneAndFastFdFindEveryMinimalFd) {
  for (uint64_t s = 0; s < 4; ++s) {
    uint64_t seed = CaseSeed("TaneAndFastFdFindEveryMinimalFd") + s;
    Relation r = RandomRelation(seed, 40 + 40 * static_cast<int>(s), 6, 3,
                                s % 2 == 0 ? 0.0 : 0.05);
    std::vector<std::string> want = FdOracle(r, 3, 0.0);
    EXPECT_FALSE(want.empty());
    std::function<std::string(const DiscoveredFd&)> key = FdKey;
    auto tane = RunEverywhere<DiscoveredFd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
          TaneOptions o;
          o.max_lhs_size = 3;
          o.pool = pool;
          o.cache = cache;
          return DiscoverFdsTane(r, o);
        },
        key);
    EXPECT_TRUE(SameItems(Sorted(Keys(tane, key)), want)) << "TANE seed " << s;
    auto fastfd = RunEverywhere<DiscoveredFd>(
        r,
        [&](ThreadPool* pool, PliCache*, EvidenceCache*) {
          FastFdOptions o;
          o.max_lhs_size = 3;
          o.pool = pool;
          return DiscoverFdsFastFd(r, o);
        },
        key);
    EXPECT_TRUE(SameItems(Sorted(Keys(fastfd, key)), want))
        << "FastFD seed " << s;
  }
}

TEST(MinerOracleTest, TaneFindsEveryMinimalAfd) {
  for (uint64_t s = 0; s < 3; ++s) {
    Relation r = RandomRelation(CaseSeed("TaneFindsEveryMinimalAfd") + s,
                                120, 5, 3, 0.1);
    std::function<std::string(const DiscoveredFd&)> key = FdKey;
    auto got = RunEverywhere<DiscoveredFd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
          TaneOptions o;
          o.max_error = 0.1;
          o.max_lhs_size = 2;
          o.pool = pool;
          o.cache = cache;
          return DiscoverFdsTane(r, o);
        },
        key);
    EXPECT_TRUE(SameItems(Sorted(Keys(got, key)), FdOracle(r, 2, 0.1)))
        << "seed " << s;
  }
}

// TANE reads only the previous level's partitions (the last level builds
// none) and keys its exact test by the RHS codes, or by the RHS leaf on an
// out-of-core cache without a flat encoding. Every level cap — including
// none, one, and caps at and beyond the column count — must still give the
// oracle's minimal (A)FDs on every backend: no cache, a shared cache, and
// the out-of-core cache, each at 1, 2 and 8 threads. The second relation's
// domain equals its row count, so many rows are alone in a leaf: the
// out-of-core exact test must not take two such rows for equal.
TEST(MinerOracleTest, TaneMatchesOracleAtEveryLevelCapOnEveryBackend) {
  for (uint64_t s = 0; s < 2; ++s) {
    const int nc = 5;
    const int rows = 90 + 30 * static_cast<int>(s);
    Relation r = RandomRelation(
        CaseSeed("TaneMatchesOracleAtEveryLevelCapOnEveryBackend") + s, rows,
        nc, s == 0 ? 3 : rows, 0.05);
    auto sharded = ShardedEncodedRelation::IngestCsvString(WriteCsvString(r));
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    std::function<std::string(const DiscoveredFd&)> key = FdKey;
    for (double max_error : {0.0, 0.1}) {
      for (int max_lhs : {0, 1, 2, nc - 1, nc, nc + 2}) {
        std::vector<std::string> want = FdOracle(r, max_lhs, max_error);
        auto options = [&](ThreadPool* pool, PliCache* cache) {
          TaneOptions o;
          o.max_error = max_error;
          o.max_lhs_size = max_lhs;
          o.pool = pool;
          o.cache = cache;
          return o;
        };
        auto got = RunEverywhere<DiscoveredFd>(
            r,
            [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
              return DiscoverFdsTane(r, options(pool, cache));
            },
            key);
        EXPECT_TRUE(SameItems(Sorted(Keys(got, key)), want))
            << "seed " << s << " max_error " << max_error << " max_lhs "
            << max_lhs;
        for (int threads : kThreadCounts) {
          ThreadPool pool(threads);
          PliCache ooc(**sharded);
          auto ooc_got = DiscoverFdsTane(&ooc, options(&pool, nullptr));
          ASSERT_TRUE(ooc_got.ok()) << ooc_got.status().ToString();
          EXPECT_EQ(Keys(*ooc_got, key), Keys(got, key))
              << "out of core, seed " << s << " max_error " << max_error
              << " max_lhs " << max_lhs << " threads " << threads;
          EXPECT_EQ(ooc.has_encoded(), max_error > 0.0)
              << "exact TANE must stay PLI-only out of core";
        }
      }
    }
  }
}

// ------------------------------------------------------------------ CFDs

std::string CfdKey(const DiscoveredCfd& c) {
  return c.cfd.ToString() + " #" + std::to_string(c.support);
}

/// Rows grouped by their values on `x`, in first-occurrence order.
std::vector<std::vector<int>> Groups(const Relation& r, AttrSet x) {
  std::map<std::vector<Value>, int> index;
  std::vector<std::vector<int>> groups;
  for (int row = 0; row < r.num_rows(); ++row) {
    auto [it, inserted] =
        index.emplace(r.Project(row, x), static_cast<int>(groups.size()));
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(row);
  }
  return groups;
}

/// The constant CFD (x = row's values -> a = row's value).
Cfd ConstantCfd(const Relation& r, AttrSet x, int a, int row) {
  std::vector<PatternItem> items;
  for (int b : x) items.push_back(PatternItem::Const(b, r.Get(row, b)));
  items.push_back(PatternItem::Const(a, r.Get(row, a)));
  return Cfd(x, AttrSet::Single(a), PatternTuple(std::move(items)));
}

/// Every minimal constant CFD with 1 <= |X| <= max_lhs and support >=
/// min_support: the pattern X = x pins a, and no proper non-empty
/// sub-pattern pins the same constant with enough support.
std::vector<std::string> ConstantCfdOracle(const Relation& r, int max_lhs,
                                           int min_support) {
  int nc = r.num_columns();
  auto valid = [&](const Cfd& cfd) {
    return cfd.Support(r) >= min_support && cfd.Holds(r);
  };
  std::vector<std::string> out;
  for (int size = 1; size <= max_lhs; ++size) {
    for (AttrSet x : AllSubsetsOfSize(nc, size)) {
      for (const std::vector<int>& group : Groups(r, x)) {
        for (int a = 0; a < nc; ++a) {
          if (x.Contains(a)) continue;
          Cfd cfd = ConstantCfd(r, x, a, group[0]);
          if (!valid(cfd)) continue;
          bool minimal = true;
          for (AttrSet y : ProperNonEmptySubsets(x)) {
            if (valid(ConstantCfd(r, y, a, group[0]))) minimal = false;
          }
          if (minimal) {
            out.push_back(CfdKey(DiscoveredCfd{cfd, cfd.Support(r)}));
          }
        }
      }
    }
  }
  return Sorted(out);
}

/// The general CFD (X -> a, cond = row's values, everything else '_').
Cfd ConditionedCfd(const Relation& r, AttrSet x, int a, AttrSet cond,
                   int row) {
  std::vector<PatternItem> items;
  for (int b : x) {
    items.push_back(cond.Contains(b) ? PatternItem::Const(b, r.Get(row, b))
                                     : PatternItem::Wildcard(b));
  }
  items.push_back(PatternItem::Wildcard(a));
  return Cfd(x, AttrSet::Single(a), PatternTuple(std::move(items)));
}

/// Every pattern-minimal general CFD: for each embedded FD X -> a
/// (2 <= |X| <= max_lhs) that fails globally, the conditions (up to
/// max_cond constants on X) under which it holds with enough support, with
/// no proper non-empty sub-condition already qualifying.
std::vector<std::string> GeneralCfdOracle(const Relation& r, int max_lhs,
                                          int max_cond, int min_support) {
  int nc = r.num_columns();
  auto valid = [&](const Cfd& cfd) {
    return cfd.Support(r) >= min_support && cfd.Holds(r);
  };
  std::vector<std::string> out;
  for (int size = 2; size <= max_lhs; ++size) {
    for (AttrSet x : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (x.Contains(a) || Fd(x, AttrSet::Single(a)).Holds(r)) continue;
        for (int k = 1; k <= std::min(max_cond, size); ++k) {
          for (AttrSet cond : AllSubsetsOfSize(nc, k)) {
            if (!x.ContainsAll(cond)) continue;
            for (const std::vector<int>& group : Groups(r, cond)) {
              Cfd cfd = ConditionedCfd(r, x, a, cond, group[0]);
              if (!valid(cfd)) continue;
              bool minimal = true;
              for (AttrSet sub : ProperNonEmptySubsets(cond)) {
                if (valid(ConditionedCfd(r, x, a, sub, group[0]))) {
                  minimal = false;
                }
              }
              if (minimal) {
                out.push_back(CfdKey(DiscoveredCfd{cfd, cfd.Support(r)}));
              }
            }
          }
        }
      }
    }
  }
  return Sorted(out);
}

TEST(MinerOracleTest, ConstantCfdsFindEveryMinimalPattern) {
  for (uint64_t s = 0; s < 3; ++s) {
    Relation r =
        RandomRelation(CaseSeed("ConstantCfdsFindEveryMinimalPattern") + s,
                       80 + 40 * static_cast<int>(s), 5, 3, 0.1);
    std::function<std::string(const DiscoveredCfd&)> key = CfdKey;
    auto got = RunEverywhere<DiscoveredCfd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
          CfdDiscoveryOptions o;
          o.min_support = 4;
          o.max_lhs_size = 3;
          o.pool = pool;
          o.cache = cache;
          return DiscoverConstantCfds(r, o);
        },
        key);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(SameItems(Sorted(Keys(got, key)), ConstantCfdOracle(r, 3, 4)))
        << "seed " << s;
  }
}

TEST(MinerOracleTest, GeneralCfdsFindEveryPatternMinimalCondition) {
  for (int max_cond = 1; max_cond <= 2; ++max_cond) {
    Relation r = RandomRelation(
        CaseSeed("GeneralCfdsFindEveryPatternMinimalCondition") + max_cond,
        60, 5, 3, 0.15);
    std::function<std::string(const DiscoveredCfd&)> key = CfdKey;
    auto got = RunEverywhere<DiscoveredCfd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
          CfdDiscoveryOptions o;
          o.min_support = 3;
          o.max_lhs_size = 3;
          o.max_condition_attrs = max_cond;
          o.pool = pool;
          o.cache = cache;
          return DiscoverGeneralCfds(r, o);
        },
        key);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(SameItems(Sorted(Keys(got, key)),
                          GeneralCfdOracle(r, 3, max_cond, 3)))
        << "max_cond " << max_cond;
  }
}

// ------------------------------------------------------------------ ODs

std::string OdKey(const DiscoveredOd& od) { return od.od.ToString(); }

TEST(MinerOracleTest, UnaryOdsFindEveryHoldingPair) {
  for (bool numeric_only : {true, false}) {
    Relation series = SeriesRelation(CaseSeed("UnaryOdsFindEveryHoldingPair"),
                                     60);
    Relation mixed = MixedRelation(CaseSeed("UnaryOdsFindEveryHoldingPair/m"),
                                   50);
    for (const Relation* r : {&series, &mixed}) {
      std::function<std::string(const DiscoveredOd&)> key = OdKey;
      auto got = RunEverywhere<DiscoveredOd>(
          *r,
          [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
            OdDiscoveryOptions o;
            o.numeric_only = numeric_only;
            o.pool = pool;
            o.cache = cache;
            return DiscoverUnaryOds(*r, o);
          },
          key);
      // For each ordered pair of eligible columns, A^<= -> B^<= if it
      // holds, else A^<= -> B^>= if that holds.
      std::vector<std::string> want;
      for (int a = 0; a < r->num_columns(); ++a) {
        for (int b = 0; b < r->num_columns(); ++b) {
          ValueType ta = r->schema().column(a).type;
          ValueType tb = r->schema().column(b).type;
          auto numeric = [](ValueType t) {
            return t == ValueType::kInt || t == ValueType::kDouble;
          };
          if (a == b || (numeric_only && !(numeric(ta) && numeric(tb)))) {
            continue;
          }
          for (OrderMark mark : {OrderMark::kLeq, OrderMark::kGeq}) {
            Od od({MarkedAttr{a, OrderMark::kLeq}}, {MarkedAttr{b, mark}});
            if (od.Holds(*r)) {
              want.push_back(od.ToString());
              break;
            }
          }
        }
      }
      EXPECT_TRUE(SameItems(Keys(got, key), want));
      if (r == &series) {
        EXPECT_FALSE(got.empty());
      }
    }
  }
}

// -------------------------------------------------------- MVDs and FHDs

TEST(MinerOracleTest, MvdsMatchEnumerationAndFhdsHold) {
  for (double max_ratio : {0.0, 0.15}) {
    Relation r = MvdRelation(CaseSeed("MvdsMatchEnumerationAndFhdsHold"), 6,
                             max_ratio == 0.0 ? 0 : 2);
    std::function<std::string(const DiscoveredMvd&)> key =
        [](const DiscoveredMvd& m) {
          return m.lhs.ToString() + "->>" + m.rhs.ToString() + " " +
                 Exact(m.spurious_ratio);
        };
    auto got = RunEverywhere<DiscoveredMvd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
          MvdDiscoveryOptions o;
          o.max_lhs_size = 2;
          o.max_spurious_ratio = max_ratio;
          o.pool = pool;
          o.cache = cache;
          return DiscoverMvds(r, o);
        },
        key);
    // Candidate space: X with |X| <= 2 and X ->> Y with Y, Z = rest \ Y
    // non-empty, Y canonically holding the smallest attribute of the rest
    // (X ->> Y and X ->> Z are the same constraint).
    int nc = r.num_columns();
    AttrSet full = AttrSet::Full(nc);
    std::vector<std::string> want;
    for (int size = 0; size <= 2; ++size) {
      for (AttrSet x : AllSubsetsOfSize(nc, size)) {
        AttrSet rest = full.Minus(x);
        if (rest.size() < 2) continue;
        for (AttrSet y : ProperNonEmptySubsets(rest)) {
          if (!y.Contains(rest.ToVector()[0])) continue;
          double ratio = Mvd::SpuriousTupleRatio(r, x, y);
          if (ratio > max_ratio) continue;
          if (ratio == 0.0) {
            EXPECT_TRUE(Mvd(x, y).Holds(r));
          }
          want.push_back(key(DiscoveredMvd{x, y, ratio}));
        }
      }
    }
    EXPECT_TRUE(SameItems(Sorted(Keys(got, key)), Sorted(want)))
        << "ratio " << max_ratio;
    EXPECT_FALSE(want.empty());

    // FHD assembly is greedy: soundness plus thread determinism.
    std::function<std::string(const DiscoveredFhd&)> fhd_key =
        [](const DiscoveredFhd& f) {
          std::string s = f.lhs.ToString() + ":";
          for (AttrSet b : f.blocks) s += b.ToString();
          return s;
        };
    auto fhds = RunEverywhere<DiscoveredFhd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
          MvdDiscoveryOptions o;
          o.max_lhs_size = 2;
          o.pool = pool;
          o.cache = cache;
          return DiscoverFhds(r, o);
        },
        fhd_key);
    for (const DiscoveredFhd& f : fhds) {
      EXPECT_TRUE(Fhd(f.lhs, f.blocks).Holds(r)) << fhd_key(f);
    }
  }
}

// ------------------------------------------------------------------ PFDs

TEST(MinerOracleTest, PfdsFindEveryMinimalProbableFd) {
  for (uint64_t s = 0; s < 3; ++s) {
    Relation r =
        RandomRelation(CaseSeed("PfdsFindEveryMinimalProbableFd") + s, 90, 5,
                       3, 0.08);
    std::function<std::string(const DiscoveredPfd&)> key =
        [](const DiscoveredPfd& p) {
          return p.lhs.ToString() + "->" + std::to_string(p.rhs) + " p=" +
                 Exact(p.probability);
        };
    auto got = RunEverywhere<DiscoveredPfd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
          PfdDiscoveryOptions o;
          o.min_probability = 0.85;
          o.max_lhs_size = 2;
          o.pool = pool;
          o.cache = cache;
          return DiscoverPfds(r, o);
        },
        key);
    int nc = r.num_columns();
    auto prob = [&](AttrSet x, int a) {
      return Pfd::Probability(r, x, AttrSet::Single(a));
    };
    std::vector<std::string> want;
    for (int size = 1; size <= 2; ++size) {
      for (AttrSet x : AllSubsetsOfSize(nc, size)) {
        for (int a = 0; a < nc; ++a) {
          if (x.Contains(a) || prob(x, a) < 0.85) continue;
          bool minimal = true;
          for (AttrSet y : ProperNonEmptySubsets(x)) {
            if (prob(y, a) >= 0.85) minimal = false;
          }
          if (minimal) want.push_back(key(DiscoveredPfd{x, a, prob(x, a)}));
        }
      }
    }
    EXPECT_TRUE(SameItems(Sorted(Keys(got, key)), Sorted(want)))
        << "seed " << s;
    EXPECT_FALSE(want.empty());
  }
}

// ------------------------------------------------------------------ DDs

std::string DdKey(const DiscoveredDd& d) {
  return d.dd.ToString() + " #" + std::to_string(d.support);
}

/// Finite pairwise distances of every unordered row pair, per attribute,
/// under the column's default metric.
std::vector<std::vector<double>> PairDistances(
    const Relation& r, std::vector<MetricPtr>* metrics) {
  int n = r.num_rows();
  std::vector<std::vector<double>> dist(r.num_columns());
  for (int a = 0; a < r.num_columns(); ++a) {
    MetricPtr m = DefaultMetricFor(r.schema().column(a).type);
    metrics->push_back(m);
    for (int i = 0; i + 1 < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        dist[a].push_back(m->Distance(r.Get(i, a), r.Get(j, a)));
      }
    }
  }
  return dist;
}

/// The DD miner's candidate space, measured pair by pair: LHS = one or
/// two attributes each bounded by a quantile threshold of its finite
/// pairwise distances; RHS bound = the largest distance among
/// LHS-compatible pairs, reported when every such distance is finite, the
/// support reaches min_support and the bound is below the attribute's
/// global maximum; a DD is dropped when an earlier-reported DD on the same
/// attributes has looser-or-equal LHS thresholds and a tighter-or-equal
/// RHS bound.
std::vector<std::string> DdOracle(const Relation& r,
                                  const DdDiscoveryOptions& o) {
  int nc = r.num_columns();
  std::vector<MetricPtr> metrics;
  std::vector<std::vector<double>> dist = PairDistances(r, &metrics);
  std::vector<std::vector<double>> thresholds(nc);
  std::vector<double> global_max(nc, 0.0);
  for (int a = 0; a < nc; ++a) {
    std::vector<double> finite;
    for (double d : dist[a]) {
      if (std::isfinite(d)) finite.push_back(d);
    }
    std::sort(finite.begin(), finite.end());
    if (!finite.empty()) global_max[a] = std::max(0.0, finite.back());
    for (double q : o.threshold_quantiles) {
      if (finite.empty()) break;
      size_t idx = std::min(finite.size() - 1,
                            static_cast<size_t>(q * finite.size()));
      thresholds[a].push_back(finite[idx]);
    }
    std::sort(thresholds[a].begin(), thresholds[a].end());
    thresholds[a].erase(
        std::unique(thresholds[a].begin(), thresholds[a].end()),
        thresholds[a].end());
    EXPECT_EQ(thresholds[a], DetermineThresholds(r, a, o.threshold_quantiles));
  }
  std::vector<std::vector<std::pair<int, double>>> lhs_sets;
  for (int a = 0; a < nc; ++a) {
    for (double t : thresholds[a]) lhs_sets.push_back({{a, t}});
  }
  if (o.max_lhs_attrs >= 2) {
    size_t singles = lhs_sets.size();
    for (size_t i = 0; i < singles; ++i) {
      for (size_t j = i + 1; j < singles; ++j) {
        if (lhs_sets[i][0].first == lhs_sets[j][0].first) continue;
        lhs_sets.push_back({lhs_sets[i][0], lhs_sets[j][0]});
      }
    }
  }
  std::vector<DiscoveredDd> out;
  for (const auto& lhs : lhs_sets) {
    std::vector<size_t> pairs;
    for (size_t p = 0; p < dist[0].size(); ++p) {
      bool ok = true;
      for (const auto& [a, t] : lhs) ok = ok && dist[a][p] <= t;
      if (ok) pairs.push_back(p);
    }
    int64_t support = static_cast<int64_t>(pairs.size());
    if (support < o.min_support) continue;
    std::vector<DifferentialFunction> lhs_fns;
    AttrSet lhs_attrs;
    for (const auto& [a, t] : lhs) {
      lhs_fns.push_back(
          DifferentialFunction(a, metrics[a], DistRange::AtMost(t)));
      lhs_attrs.Add(a);
    }
    for (int b = 0; b < nc; ++b) {
      if (lhs_attrs.Contains(b)) continue;
      double bound = 0.0;
      bool finite = true;
      for (size_t p : pairs) {
        if (!std::isfinite(dist[b][p])) finite = false;
        if (finite) bound = std::max(bound, dist[b][p]);
      }
      if (!finite || bound >= global_max[b]) continue;
      bool subsumed = false;
      for (const DiscoveredDd& prev : out) {
        if (prev.dd.rhs()[0].attr != b || prev.dd.lhs().size() != lhs.size()) {
          continue;
        }
        bool same = true, looser = true;
        for (size_t k = 0; k < lhs.size(); ++k) {
          same = same && prev.dd.lhs()[k].attr == lhs[k].first;
          looser = looser && prev.dd.lhs()[k].range.max >= lhs[k].second;
        }
        if (same && looser && prev.dd.rhs()[0].range.max <= bound) {
          subsumed = true;
        }
      }
      if (subsumed) continue;
      out.push_back(DiscoveredDd{
          Dd(lhs_fns, {DifferentialFunction(b, metrics[b],
                                            DistRange::AtMost(bound))}),
          support});
    }
  }
  std::vector<std::string> keys;
  for (const DiscoveredDd& d : out) keys.push_back(DdKey(d));
  return keys;
}

/// Soundness of one reported DD on `r`: it holds, its support is the
/// validator's, and its RHS bound is attained by an LHS-compatible pair
/// (so no tighter bound holds).
void ExpectDdSound(const Relation& r, const DiscoveredDd& d) {
  EXPECT_TRUE(d.dd.Holds(r)) << DdKey(d);
  EXPECT_EQ(d.dd.Support(r), d.support) << DdKey(d);
  const DifferentialFunction& rhs = d.dd.rhs()[0];
  bool attained = false;
  for (int i = 0; i + 1 < r.num_rows(); ++i) {
    for (int j = i + 1; j < r.num_rows(); ++j) {
      bool lhs_ok = true;
      for (const auto& fn : d.dd.lhs()) {
        lhs_ok = lhs_ok && fn.range.Contains(fn.DistanceBetween(r, i, j));
      }
      if (lhs_ok && rhs.DistanceBetween(r, i, j) == rhs.range.max) {
        attained = true;
      }
    }
  }
  EXPECT_TRUE(attained) << DdKey(d);
}

TEST(MinerOracleTest, ExactDdsMatchEnumeration) {
  std::function<std::string(const DiscoveredDd&)> key = DdKey;
  for (int lhs_attrs = 1; lhs_attrs <= 2; ++lhs_attrs) {
    Relation r = MixedRelation(CaseSeed("ExactDdsMatchEnumeration"), 30);
    DdDiscoveryOptions base;
    base.min_support = 2;
    base.max_lhs_attrs = lhs_attrs;
    auto got = RunEverywhere<DiscoveredDd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache* evidence) {
          DdDiscoveryOptions o = base;
          o.pool = pool;
          o.evidence = evidence;
          o.cache = cache;
          return DiscoverDds(r, o);
        },
        key);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(SameItems(Keys(got, key), DdOracle(r, base)))
        << lhs_attrs << " attrs";
    EXPECT_TRUE(BuildsEvidence([&](EvidenceCache* evidence) {
      DdDiscoveryOptions o = base;
      o.evidence = evidence;
      ASSERT_TRUE(DiscoverDds(r, o).ok());
    }));
    for (const DiscoveredDd& d : got) ExpectDdSound(r, d);
  }
}

TEST(MinerOracleTest, ExactDdsOnWideThresholdGridsMatchEnumeration) {
  // 300 quantiles on 7 or 8 double columns give ~300 distinct thresholds
  // per attribute, so bucket indices past 255: 7 x 9 bucket bits fill one
  // 64-bit lane, 8 x 9 take two.
  for (int cols : {7, 8}) {
    Relation r = WideDoubleRelation(
        CaseSeed("ExactDdsOnWideThresholdGridsMatchEnumeration") + cols, 30,
        cols, false);
    DdDiscoveryOptions base;
    base.max_lhs_attrs = 1;
    base.min_support = 380;  // of 435 pairs: keeps the output small
    base.max_results = 100000;
    base.threshold_quantiles.clear();
    for (int q = 0; q < 300; ++q) {
      base.threshold_quantiles.push_back(q / 300.0);
    }
    std::function<std::string(const DiscoveredDd&)> key = DdKey;
    auto got = RunEverywhere<DiscoveredDd>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache* evidence) {
          DdDiscoveryOptions o = base;
          o.pool = pool;
          o.evidence = evidence;
          o.cache = cache;
          return DiscoverDds(r, o);
        },
        key);
    EXPECT_FALSE(got.empty()) << cols << " columns";
    EXPECT_TRUE(SameItems(Keys(got, key), DdOracle(r, base)))
        << cols << " columns";
    for (const DiscoveredDd& d : got) {
      EXPECT_EQ(d.dd.Support(r), d.support) << DdKey(d);
    }
    EXPECT_TRUE(BuildsEvidence([&](EvidenceCache* evidence) {
      DdDiscoveryOptions o = base;
      o.evidence = evidence;
      ASSERT_TRUE(DiscoverDds(r, o).ok());
    }));
  }
}

// ------------------------------------------------------------------ NEDs

std::string NedKey(const DiscoveredNed& n) {
  return n.ned.ToString() + " #" + std::to_string(n.support) + " c=" +
         Exact(n.confidence);
}

/// The NED miner's candidate space: one or two LHS predicates on distinct
/// non-target attributes over the threshold list, each measured with
/// Ned::ComputePairStats and kept when support and confidence qualify.
std::vector<std::string> NedOracle(const Relation& r,
                                   const Ned::Predicate& target,
                                   const NedDiscoveryOptions& o) {
  std::vector<Ned::Predicate> singles;
  for (int a = 0; a < r.num_columns(); ++a) {
    if (a == target.attr) continue;
    MetricPtr m = DefaultMetricFor(r.schema().column(a).type);
    for (double t : o.thresholds) singles.push_back(Ned::Predicate{a, m, t});
  }
  std::vector<std::vector<Ned::Predicate>> lhs_sets;
  for (const auto& p : singles) lhs_sets.push_back({p});
  if (o.max_lhs_attrs >= 2) {
    for (size_t i = 0; i < singles.size(); ++i) {
      for (size_t j = i + 1; j < singles.size(); ++j) {
        if (singles[i].attr != singles[j].attr) {
          lhs_sets.push_back({singles[i], singles[j]});
        }
      }
    }
  }
  std::vector<std::string> out;
  for (const auto& lhs : lhs_sets) {
    Ned ned(lhs, {target});
    Ned::PairStats st = ned.ComputePairStats(r);
    if (st.lhs_pairs < o.min_support || st.confidence() < o.min_confidence) {
      continue;
    }
    out.push_back(NedKey(DiscoveredNed{ned, st.lhs_pairs, st.confidence()}));
  }
  return out;
}

TEST(MinerOracleTest, NedsMatchEnumerationOnKernelAndScanPaths) {
  // Kernel path; a NaN cell (non-finite dictionary) and a target metric
  // outside the kernel's built-ins both take the pair scans.
  struct Case {
    int nan_row;
    MetricPtr target_metric;
    bool kernel;
  };
  for (const Case& c : {Case{-1, GetAbsDiffMetric(), true},
                        Case{7, GetAbsDiffMetric(), false},
                        Case{-1, GetJaccardQGramMetric(), false}}) {
    Relation r =
        MixedRelation(CaseSeed("NedsMatchEnumerationOnKernelAndScanPaths"), 40,
                      c.nan_row);
    Ned::Predicate target{2, c.target_metric, 1.0};
    NedDiscoveryOptions base;
    base.thresholds = {0, 1, 2};
    base.min_support = 2;
    base.min_confidence = 0.6;
    std::function<std::string(const DiscoveredNed&)> key = NedKey;
    auto got = RunEverywhere<DiscoveredNed>(
        r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache* evidence) {
          NedDiscoveryOptions o = base;
          o.pool = pool;
          o.evidence = evidence;
          o.cache = cache;
          return DiscoverNeds(r, target, o);
        },
        key);
    EXPECT_FALSE(got.empty()) << c.target_metric->name();
    EXPECT_TRUE(SameItems(Keys(got, key), NedOracle(r, target, base)))
        << c.target_metric->name() << " nan_row " << c.nan_row;
    EXPECT_EQ(BuildsEvidence([&](EvidenceCache* evidence) {
                NedDiscoveryOptions o = base;
                o.evidence = evidence;
                ASSERT_TRUE(DiscoverNeds(r, target, o).ok());
              }),
              c.kernel);
  }
}

// ------------------------------------------------------------------- MDs

std::string MdKey(const DiscoveredMd& m) {
  return m.md.ToString() + " s=" + Exact(m.support) + " c=" +
         Exact(m.confidence);
}

/// The MD miner's candidate space on the first `sample_rows` rows: one or
/// two similarity predicates on distinct non-RHS attributes over the
/// type's threshold list, measured with Md::ComputeStats, kept when
/// support and confidence qualify, and dropped when an earlier-reported MD
/// has a subset of its predicates with looser-or-equal thresholds.
std::vector<std::string> MdOracle(const Relation& relation, AttrSet rhs,
                                  const MdDiscoveryOptions& o) {
  Relation r = relation;
  if (o.sample_rows > 0 && o.sample_rows < relation.num_rows()) {
    std::vector<int> rows;
    for (int i = 0; i < o.sample_rows; ++i) rows.push_back(i);
    r = relation.Select(rows);
  }
  std::vector<SimilarityPredicate> singles;
  for (int a = 0; a < r.num_columns(); ++a) {
    if (rhs.Contains(a)) continue;
    ValueType t = r.schema().column(a).type;
    bool numeric = t == ValueType::kInt || t == ValueType::kDouble;
    MetricPtr m = DefaultMetricFor(t);
    for (double th : numeric ? o.numeric_thresholds : o.string_thresholds) {
      singles.push_back(SimilarityPredicate{a, m, th});
    }
  }
  std::vector<std::vector<SimilarityPredicate>> lhs_sets;
  for (const auto& p : singles) lhs_sets.push_back({p});
  if (o.max_lhs_attrs >= 2) {
    for (size_t i = 0; i < singles.size(); ++i) {
      for (size_t j = i + 1; j < singles.size(); ++j) {
        if (singles[i].attr != singles[j].attr) {
          lhs_sets.push_back({singles[i], singles[j]});
        }
      }
    }
  }
  std::vector<DiscoveredMd> out;
  for (const auto& lhs : lhs_sets) {
    Md md(lhs, rhs);
    Md::Stats st = md.ComputeStats(r);
    if (st.support() < o.min_support || st.confidence() < o.min_confidence) {
      continue;
    }
    bool redundant = false;
    for (const DiscoveredMd& prev : out) {
      bool covers = prev.md.lhs().size() <= lhs.size();
      for (const auto& pp : prev.md.lhs()) {
        bool found = false;
        for (const auto& p : lhs) {
          found = found || (p.attr == pp.attr && pp.threshold >= p.threshold);
        }
        covers = covers && found;
      }
      redundant = redundant || covers;
    }
    if (!redundant) {
      out.push_back(DiscoveredMd{md, st.support(), st.confidence()});
    }
  }
  std::vector<std::string> keys;
  for (const DiscoveredMd& m : out) keys.push_back(MdKey(m));
  return keys;
}

TEST(MinerOracleTest, MdsAndHybridMdsMatchEnumeration) {
  // Exact (cover-tree) and approximate confidence, full and sampled input,
  // with and without a NaN cell. With RHS `num`, price predicates are
  // exact unless NaN distances counted as similar.
  struct Case {
    double min_confidence;
    int sample_rows;
    int nan_row;
    int rhs;
  };
  for (const Case& c :
       {Case{1.0, 0, -1, 4}, Case{0.8, 0, -1, 4}, Case{1.0, 25, -1, 4},
        Case{1.0, 0, 3, 2}, Case{0.8, 0, 3, 2}}) {
    Relation r =
        MixedRelation(CaseSeed("MdsAndHybridMdsMatchEnumeration"), 40,
                      c.nan_row);
    MdDiscoveryOptions base;
    base.min_support = 0.001;
    base.min_confidence = c.min_confidence;
    base.sample_rows = c.sample_rows;
    AttrSet rhs = AttrSet::Single(c.rhs);
    std::vector<std::string> want = MdOracle(r, rhs, base);
    EXPECT_FALSE(want.empty());
    std::function<std::string(const DiscoveredMd&)> key = MdKey;
    for (bool hybrid : {false, true}) {
      auto got = RunEverywhere<DiscoveredMd>(
          r,
          [&](ThreadPool* pool, PliCache* cache, EvidenceCache* evidence) {
            MdDiscoveryOptions o = base;
            o.pool = pool;
            o.evidence = evidence;
            o.cache = cache;
            return hybrid ? DiscoverMdsHybrid(r, rhs, o)
                          : DiscoverMds(r, rhs, o);
          },
          key);
      EXPECT_TRUE(SameItems(Keys(got, key), want))
          << (hybrid ? "hybrid" : "lattice") << " conf " << c.min_confidence
          << " sample " << c.sample_rows << " nan_row " << c.nan_row;
    }
  }
}

TEST(MinerOracleTest, MdsBeyondKernelAndCoverTreeCapacityMatchEnumeration) {
  // 2 x 130 string thresholds + 2 numeric ones = 262 predicate bits, past
  // the cover tree's kMaxAttrs: the hybrid miner evaluates candidates as
  // DiscoverMds does. 7 x 512 numeric thresholds need 7 x 10 bucket bits,
  // two 64-bit lanes. 2 x 300 numeric thresholds fit one lane with bucket
  // indices past 255. Every case runs on the evidence kernel.
  struct Case {
    Relation r;
    MdDiscoveryOptions options;
    AttrSet rhs;
  };
  std::vector<Case> cases(3);
  cases[0].r = MixedRelation(
      CaseSeed("MdsBeyondKernelAndCoverTreeCapacityMatchEnumeration"), 30);
  cases[0].options.string_thresholds.clear();
  for (int t = 0; t < 130; ++t) {
    cases[0].options.string_thresholds.push_back(t / 20.0);
  }
  cases[0].options.numeric_thresholds = {0};
  cases[0].options.min_confidence = 1.0;
  cases[0].rhs = AttrSet::Single(4);
  cases[1].r = WideDoubleRelation(
      CaseSeed("MdsBeyondKernelAndCoverTreeCapacityMatchEnumeration/wide"),
      30, 7, true);
  // A NaN cell: its distances are dissimilar on the scan as on the kernel.
  cases[1].r.Set(5, 0, Value(std::nan("")));
  cases[1].options.numeric_thresholds.clear();
  for (int t = 0; t < 512; ++t) {
    cases[1].options.numeric_thresholds.push_back(t / 2.0);
  }
  cases[1].options.min_confidence = 0.5;
  cases[1].options.max_results = 100000;
  cases[1].rhs = AttrSet::Single(7);
  cases[2].r = WideDoubleRelation(
      CaseSeed("MdsBeyondKernelAndCoverTreeCapacityMatchEnumeration/300"), 30,
      2, true);
  cases[2].options.numeric_thresholds.clear();
  for (int t = 0; t < 300; ++t) {
    cases[2].options.numeric_thresholds.push_back(t / 2.0);
  }
  cases[2].options.min_confidence = 0;
  cases[2].options.max_results = 100000;
  cases[2].rhs = AttrSet::Single(2);
  for (Case& c : cases) {
    c.options.min_support = 0.001;
    c.options.max_lhs_attrs = 1;
    std::vector<std::string> want = MdOracle(c.r, c.rhs, c.options);
    EXPECT_FALSE(want.empty());
    std::function<std::string(const DiscoveredMd&)> key = MdKey;
    HybridMdStats stats;
    auto hybrid = DiscoverMdsHybrid(c.r, c.rhs, c.options, &stats);
    ASSERT_TRUE(hybrid.ok());
    EXPECT_FALSE(stats.used_cover_tree);
    EXPECT_TRUE(SameItems(Keys(*hybrid, key), want));
    auto lattice = RunEverywhere<DiscoveredMd>(
        c.r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache* evidence) {
          MdDiscoveryOptions o = c.options;
          o.pool = pool;
          o.evidence = evidence;
          o.cache = cache;
          return DiscoverMds(c.r, c.rhs, o);
        },
        key);
    EXPECT_TRUE(SameItems(Keys(lattice, key), want));
    EXPECT_TRUE(BuildsEvidence([&](EvidenceCache* evidence) {
      MdDiscoveryOptions o = c.options;
      o.evidence = evidence;
      ASSERT_TRUE(DiscoverMds(c.r, c.rhs, o).ok());
    }));
  }
}

// ------------------------------------------------------------------ MFDs

std::string MfdKey(const DiscoveredMfd& m) {
  return m.mfd.ToString() + " d=" + Exact(m.delta);
}

/// Every MFD X -> a (1 <= |X| <= max_lhs) whose largest within-group
/// distance — measured pair by pair — is finite and at most
/// max_delta_ratio of the attribute's global pairwise diameter.
std::vector<std::string> MfdOracle(const Relation& r,
                                   const MfdDiscoveryOptions& o) {
  int nc = r.num_columns();
  int n = r.num_rows();
  std::vector<MetricPtr> metrics;
  std::vector<double> global(nc, 0.0);
  for (int a = 0; a < nc; ++a) {
    metrics.push_back(DefaultMetricFor(r.schema().column(a).type));
    for (int i = 0; i + 1 < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double d = metrics[a]->Distance(r.Get(i, a), r.Get(j, a));
        if (std::isfinite(d)) global[a] = std::max(global[a], d);
      }
    }
  }
  std::vector<std::string> out;
  for (int size = 1; size <= o.max_lhs_size; ++size) {
    for (AttrSet x : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (x.Contains(a)) continue;
        double diameter = 0.0;
        for (int i = 0; i + 1 < n; ++i) {
          for (int j = i + 1; j < n; ++j) {
            if (r.Project(i, x) != r.Project(j, x)) continue;
            diameter = std::max(
                diameter, metrics[a]->Distance(r.Get(i, a), r.Get(j, a)));
          }
        }
        if (!std::isfinite(diameter)) continue;
        if (global[a] > 0 && diameter > o.max_delta_ratio * global[a]) {
          continue;
        }
        Mfd mfd(x, {MetricConstraint{a, metrics[a], diameter}});
        EXPECT_TRUE(mfd.Holds(r)) << mfd.ToString();
        out.push_back(MfdKey(DiscoveredMfd{mfd, diameter}));
      }
    }
  }
  return out;
}

TEST(MinerOracleTest, MfdsMatchEnumerationOnNarrowAndWideSchemas) {
  MfdDiscoveryOptions base;
  base.max_delta_ratio = 0.5;
  base.max_lhs_size = 2;
  Relation mixed =
      MixedRelation(CaseSeed("MfdsMatchEnumerationOnNarrowAndWideSchemas"), 40);
  // 65 columns need 65 equality bits: the comparison word takes a second
  // lane.
  Relation wide = RandomRelation(
      CaseSeed("MfdsMatchEnumerationOnNarrowAndWideSchemas/wide"), 12, 65, 3,
      0.2);
  for (const Relation* r : {&mixed, &wide}) {
    MfdDiscoveryOptions o = base;
    if (r == &wide) o.max_lhs_size = 1;
    std::function<std::string(const DiscoveredMfd&)> key = MfdKey;
    auto got = RunEverywhere<DiscoveredMfd>(
        *r,
        [&](ThreadPool* pool, PliCache* cache, EvidenceCache* evidence) {
          MfdDiscoveryOptions run = o;
          run.pool = pool;
          run.evidence = evidence;
          run.cache = cache;
          return DiscoverMfds(*r, run);
        },
        key);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(SameItems(Keys(got, key), MfdOracle(*r, o)))
        << r->num_columns() << " columns";
    EXPECT_TRUE(BuildsEvidence([&](EvidenceCache* evidence) {
      MfdDiscoveryOptions run = o;
      run.evidence = evidence;
      ASSERT_TRUE(DiscoverMfds(*r, run).ok());
    }));
  }
}

// ------------------------------------------------------------------- DCs

std::string DcKey(const DiscoveredDc& d) {
  return d.dc.ToString() + " v=" + Exact(d.violation_fraction);
}

bool NegationPair(const DcPredicate& p, const DcPredicate& q) {
  return p.lhs.kind == q.lhs.kind && p.rhs.kind == q.rhs.kind &&
         p.lhs.attr == q.lhs.attr && p.rhs.attr == q.rhs.attr &&
         q.op == NegateOp(p.op);
}

/// Every minimal valid DC of at most `max_size` predicates over the
/// FASTDC predicate space, excluding sets holding a predicate and its
/// negation (trivially valid): no ordered pair of distinct rows satisfies
/// every predicate (Dc::Holds), and dropping any one predicate breaks that.
std::vector<std::string> DcOracle(const Relation& r, bool cross_column,
                                  int max_size) {
  std::vector<DcPredicate> preds = BuildPredicateSpace(r, cross_column);
  auto valid = [&](const std::vector<int>& idx) {
    std::vector<DcPredicate> chosen;
    for (int p : idx) chosen.push_back(preds[p]);
    return Dc(chosen).Holds(r);
  };
  std::vector<std::string> out;
  std::function<void(std::vector<int>&, int)> walk = [&](std::vector<int>& idx,
                                                         int next) {
    if (!idx.empty()) {
      bool trivial = false;
      for (size_t i = 0; i < idx.size(); ++i) {
        for (size_t j = i + 1; j < idx.size(); ++j) {
          trivial = trivial || NegationPair(preds[idx[i]], preds[idx[j]]);
        }
      }
      if (!trivial && valid(idx)) {
        bool minimal = true;
        for (size_t k = 0; k < idx.size() && idx.size() > 1; ++k) {
          std::vector<int> reduced = idx;
          reduced.erase(reduced.begin() + k);
          minimal = minimal && !valid(reduced);
        }
        if (minimal) {
          std::vector<DcPredicate> chosen;
          for (int p : idx) chosen.push_back(preds[p]);
          out.push_back(DcKey(DiscoveredDc{Dc(chosen), 0.0}));
        }
      }
    }
    if (static_cast<int>(idx.size()) >= max_size) return;
    for (int p = next; p < static_cast<int>(preds.size()); ++p) {
      idx.push_back(p);
      walk(idx, p + 1);
      idx.pop_back();
    }
  };
  std::vector<int> idx;
  walk(idx, 0);
  return Sorted(out);
}

Relation DcRelation(uint64_t seed, int rows, bool nan) {
  Rng rng(seed);
  RelationBuilder b({"grp", "cat", "num", "price"});
  for (int r = 0; r < rows; ++r) {
    int grp = static_cast<int>(rng.Uniform(0, 2));
    int num = static_cast<int>(rng.Uniform(0, 6));
    double price = 50.0 * grp + num + (rng.Bernoulli(0.2) ? 0.5 : 0.0);
    if (nan && r == 5) price = std::nan("");
    b.AddRow({Value("g" + std::to_string(grp)),
              Value("c" + std::to_string(rng.Uniform(0, 2))), Value(num),
              Value(price)});
  }
  return std::move(b.Build()).value();
}

TEST(MinerOracleTest, ExactFastDcFindsEveryMinimalDc) {
  // Plain, a NaN order cell (its order fields read "unordered" against
  // numbers), and cross-column predicates (two-column order facets): all
  // on the evidence kernel.
  struct Case {
    bool nan;
    bool cross_column;
  };
  for (const Case& c : {Case{false, false}, Case{true, false},
                        Case{false, true}}) {
    Relation r = DcRelation(CaseSeed("ExactFastDcFindsEveryMinimalDc"), 24,
                            c.nan);
    std::function<std::string(const DiscoveredDc&)> key = DcKey;
    auto got = RunEverywhere<DiscoveredDc>(
        r,
        [&](ThreadPool* pool, PliCache*, EvidenceCache* evidence) {
          FastDcOptions o;
          o.max_predicates = 3;
          o.cross_column = c.cross_column;
          o.pool = pool;
          o.evidence = evidence;
          return DiscoverDcs(r, o);
        },
        key);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(
        SameItems(Sorted(Keys(got, key)), DcOracle(r, c.cross_column, 3)))
        << "nan " << c.nan << " cross " << c.cross_column;
    EXPECT_TRUE(BuildsEvidence([&](EvidenceCache* evidence) {
      FastDcOptions o;
      o.max_predicates = 3;
      o.cross_column = c.cross_column;
      o.evidence = evidence;
      ASSERT_TRUE(DiscoverDcs(r, o).ok());
    }));
  }
}

// ---------------------------------------------- heuristic / sampled miners

TEST(MinerOracleTest, GreedyTableauIsSoundAndPinned) {
  Rng rng(CaseSeed("GreedyTableauIsSoundAndPinned"));
  RelationBuilder b({"country", "zipcode", "street"});
  for (int row = 0; row < 150; ++row) {
    bool uk = rng.Bernoulli(0.5);
    int zip = static_cast<int>(rng.Uniform(0, 30));
    std::string street = uk ? "s" + std::to_string(zip)
                            : "s" + std::to_string(rng.Uniform(0, 40));
    b.AddRow({Value(uk ? "UK" : "US"), Value(zip), Value(street)});
  }
  Relation r = std::move(b.Build()).value();
  std::function<std::string(const DiscoveredCfd&)> key = CfdKey;
  auto got = RunEverywhere<DiscoveredCfd>(
      r,
      [&](ThreadPool* pool, PliCache* cache, EvidenceCache*) {
        TableauOptions o;
        o.pool = pool;
        o.cache = cache;
        return BuildGreedyTableau(r, AttrSet::Of({0, 1}), 2, 0, o);
      },
      key);
  for (const DiscoveredCfd& c : got) {
    EXPECT_TRUE(c.cfd.Holds(r)) << CfdKey(c);
    EXPECT_EQ(c.cfd.Support(r), c.support) << CfdKey(c);
  }
  EXPECT_TRUE(SameItems(Keys(got, key), kGoldenTableau));
}

TEST(MinerOracleTest, SampledDdsAreSoundOnTheirSampleAndPinned) {
  Relation r =
      MixedRelation(CaseSeed("SampledDdsAreSoundOnTheirSampleAndPinned"), 90);
  DdDiscoveryOptions base;
  base.min_support = 2;
  base.max_lhs_attrs = 1;
  base.sample_rows = 35;
  std::function<std::string(const DiscoveredDd&)> key = DdKey;
  auto got = RunEverywhere<DiscoveredDd>(
      r,
      [&](ThreadPool* pool, PliCache* cache, EvidenceCache* evidence) {
        DdDiscoveryOptions o = base;
        o.pool = pool;
        o.evidence = evidence;
        o.cache = cache;
        return DiscoverDds(r, o);
      },
      key);
  Rng rng(base.seed);
  Relation sample =
      r.Select(rng.SampleWithoutReplacement(r.num_rows(), base.sample_rows));
  EXPECT_TRUE(SameItems(Keys(got, key), DdOracle(sample, base)));
  for (const DiscoveredDd& d : got) ExpectDdSound(sample, d);
  EXPECT_TRUE(SameItems(Keys(got, key), kGoldenSampledDds));
}

TEST(MinerOracleTest, SampledFastDcHoldsOnItsPairsAndIsPinned) {
  Relation r =
      DcRelation(CaseSeed("SampledFastDcHoldsOnItsPairsAndIsPinned"), 40,
                 false);
  FastDcOptions base;
  base.max_predicates = 3;
  base.max_rows_exact = 12;
  std::function<std::string(const DiscoveredDc&)> key = DcKey;
  auto got = RunEverywhere<DiscoveredDc>(
      r,
      [&](ThreadPool* pool, PliCache*, EvidenceCache* evidence) {
        FastDcOptions o = base;
        o.pool = pool;
        o.evidence = evidence;
        return DiscoverDcs(r, o);
      },
      key);
  // The sampled pair stream: max_rows_exact^2 uniform draws, self-pairs
  // dropped.
  Rng rng(base.seed);
  std::vector<std::pair<int, int>> pairs;
  int n = r.num_rows();
  for (int s = 0; s < base.max_rows_exact * base.max_rows_exact; ++s) {
    int i = static_cast<int>(rng.Uniform(0, n - 1));
    int j = static_cast<int>(rng.Uniform(0, n - 1));
    if (i != j) pairs.push_back({i, j});
  }
  for (const DiscoveredDc& d : got) {
    EXPECT_EQ(d.violation_fraction, 0.0) << DcKey(d);
    for (auto [i, j] : pairs) {
      bool all = true;
      for (const DcPredicate& p : d.dc.predicates()) {
        all = all && p.Eval(r, i, j);
      }
      EXPECT_FALSE(all) << DcKey(d) << " violated by " << i << "," << j;
    }
  }
  EXPECT_TRUE(SameItems(Keys(got, key), kGoldenSampledDcs));
}

TEST(MinerOracleTest, SdAndCsdTableauAreSoundAndPinned) {
  Rng rng(CaseSeed("SdAndCsdTableauAreSoundAndPinned"));
  RelationBuilder b({"t", "v", "grp"});
  double v = 100.0;
  for (int i = 0; i < 120; ++i) {
    v += static_cast<double>(rng.Uniform(0, 6)) - 3.0;
    if (i % 17 == 0) v += 40.0;
    b.AddRow({Value(i - (i % 11 == 0 ? 1 : 0)), Value(v),
              Value(static_cast<int64_t>(rng.Uniform(0, 2)))});
  }
  Relation r = std::move(b.Build()).value();
  std::vector<std::string> got;
  for (int threads : {0, 1, 2, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    PliCache cache(r);
    SdDiscoveryOptions sd_options;
    sd_options.min_confidence = 0.0;
    sd_options.pool = pool.get();
    sd_options.cache = threads > 0 ? &cache : nullptr;
    auto sd = DiscoverSd(r, 0, 1, sd_options);
    ASSERT_TRUE(sd.ok());
    EXPECT_EQ(sd->confidence,
              Sd::Confidence(r, 0, 1, sd->sd.gap()));
    CsdDiscoveryOptions csd_options;
    csd_options.gap = Interval::Between(-10.0, 10.0);
    csd_options.min_confidence = 0.8;
    csd_options.pool = pool.get();
    csd_options.cache = threads > 0 ? &cache : nullptr;
    auto csd = DiscoverCsdTableau(r, 0, 1, csd_options);
    ASSERT_TRUE(csd.ok());
    // Each tableau interval spans enough rows and keeps enough of its
    // consecutive gaps inside the band; covered rows add up.
    std::vector<int> order = Sd::SortedOrder(r, 0);
    int covered = 0;
    for (const Csd::TableauRow& row : csd->csd.tableau()) {
      std::vector<int> in;
      for (int idx : order) {
        double x = r.Get(idx, 0).AsNumeric();
        if (x >= row.x_lo && x <= row.x_hi) in.push_back(idx);
      }
      EXPECT_GE(static_cast<int>(in.size()), csd_options.min_interval_rows);
      int ok = 0;
      for (size_t k = 0; k + 1 < in.size(); ++k) {
        double d =
            r.Get(in[k + 1], 1).AsNumeric() - r.Get(in[k], 1).AsNumeric();
        if (row.gap.Contains(d)) ++ok;
      }
      if (in.size() > 1) {
        EXPECT_GE(static_cast<double>(ok) / (in.size() - 1),
                  csd_options.min_confidence);
      }
      covered += static_cast<int>(in.size());
    }
    EXPECT_EQ(covered, csd->covered_rows);
    std::vector<std::string> run = {
        sd->sd.ToString() + " c=" + Exact(sd->confidence),
        csd->csd.ToString() + " #" + std::to_string(csd->covered_rows)};
    if (got.empty()) got = run;
    EXPECT_EQ(run, got) << threads << " threads";
  }
  EXPECT_EQ(got, kGoldenSdCsd);
}

TEST(MinerOracleTest, CordsMeasuresMatchContingencyTablesAndArePinned) {
  Relation r = RandomRelation(
      CaseSeed("CordsMeasuresMatchContingencyTablesAndArePinned"), 150, 5, 4,
      0.1);
  CordsOptions base;
  base.sample_size = 100;
  base.max_categories = 3;
  std::function<std::string(const DiscoveredSfd&)> key =
      [](const DiscoveredSfd& f) {
        return std::to_string(f.lhs) + "->" + std::to_string(f.rhs) +
               " s=" + Exact(f.strength) + " chi2=" + Exact(f.chi2) +
               " v=" + Exact(f.cramers_v) + (f.is_soft_fd ? " soft" : "") +
               (f.is_correlated ? " corr" : "");
      };
  auto got = RunEverywhere<DiscoveredSfd>(
      r,
      [&](ThreadPool* pool, PliCache*, EvidenceCache*) {
        CordsOptions o = base;
        o.pool = pool;
        return DiscoverSfdsCords(r, o);
      },
      key);
  Rng rng(base.seed);
  Relation sample =
      r.Select(rng.SampleWithoutReplacement(r.num_rows(), base.sample_size));
  // Category ids in first-occurrence order, the long tail folded into one
  // "other" id; chi2 summed over the full (row id, column id) grid.
  auto categories = [&](int a) {
    std::map<Value, int> ids;
    std::vector<int> out;
    for (int row = 0; row < sample.num_rows(); ++row) {
      auto it = ids.find(sample.Get(row, a));
      if (it == ids.end()) {
        int id = std::min(static_cast<int>(ids.size()), base.max_categories);
        it = ids.emplace(sample.Get(row, a), id).first;
      }
      out.push_back(it->second);
    }
    return out;
  };
  ASSERT_EQ(static_cast<int>(got.size()), 5 * 4);
  for (const DiscoveredSfd& f : got) {
    EXPECT_EQ(f.strength, Sfd::Strength(sample, AttrSet::Single(f.lhs),
                                        AttrSet::Single(f.rhs)));
    std::vector<int> ca = categories(f.lhs), cb = categories(f.rhs);
    int ka = *std::max_element(ca.begin(), ca.end()) + 1;
    int kb = *std::max_element(cb.begin(), cb.end()) + 1;
    std::vector<std::vector<int>> counts(ka, std::vector<int>(kb, 0));
    std::vector<int> rows(ka, 0), cols(kb, 0);
    int total = sample.num_rows();
    for (int i = 0; i < total; ++i) {
      ++counts[ca[i]][cb[i]];
      ++rows[ca[i]];
      ++cols[cb[i]];
    }
    double chi2 = 0.0, v = 0.0;
    if (ka > 1 && kb > 1) {
      for (int x = 0; x < ka; ++x) {
        for (int y = 0; y < kb; ++y) {
          double expected = static_cast<double>(rows[x]) * cols[y] / total;
          double observed = counts[x][y];
          chi2 += (observed - expected) * (observed - expected) / expected;
        }
      }
      int k = std::min(ka, kb);
      v = std::min(1.0, std::sqrt(chi2 / (total * std::max(1, k - 1))));
    }
    EXPECT_EQ(f.chi2, chi2) << key(f);
    EXPECT_EQ(f.cramers_v, v) << key(f);
  }
  EXPECT_TRUE(SameItems(Keys(got, key), kGoldenCords));
}

}  // namespace
}  // namespace famtree
