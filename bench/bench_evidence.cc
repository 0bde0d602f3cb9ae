// Evidence-kernel timing on the two pairwise-rules inputs, at one thread:
//
//   bookings  2000 rows x 4 numeric columns, every column an order facet
//             (FastDC's exact config): BuildEvidence over 2.0M pairs.
//   hotels    750 rows x 5 columns, the Mds config (edit/abs-diff buckets
//             on name, address, star, price; region an equality facet):
//             the bucket-table fill (PairComparator::Make) against the
//             whole BuildEvidence, so walk = build - fill, and the name
//             and address edit-distance bucket fills (CodeBucketTable)
//             on their own.
//   pairs     1M random ordered pairs over bookings, as FastDC's sampled
//             path draws them: BuildEvidenceForPairs, almost every strip
//             a single pair.
//   wide      600 rows x 8 double columns under an exact-DD config with
//             300 thresholds per column (absdiff buckets of 9 bits and a
//             tracked max per column): 72 bits, so every word takes two
//             lanes and the multiset is hashed lane tuple by lane tuple.
//
// The bookings and hotels relations are generated as perfbench's
// pairwise-rules workload does at seed 1. Each timing is the median (with
// quartiles) of 25 runs. Exits
// nonzero when a built multiset differs from a fold of the one-pair
// PairComparator::Word over every pair, or when a memoized name or
// address bucket differs from the band of a plain Levenshtein DP.
//
//   build/bench/bench_evidence

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/evidence.h"
#include "metric/code_distance.h"
#include "metric/metric.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {
namespace {

constexpr int kRuns = 25;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t row, uint64_t salt) {
  uint64_t state = row * 0x2545F4914F6CDD1Dull + salt;
  return SplitMix(&state);
}

std::vector<int> Permutation(int n, uint64_t* state) {
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[SplitMix(state) % (static_cast<uint64_t>(i) + 1)]);
  }
  return perm;
}

Relation MakeBookings(int rows, uint64_t seed) {
  uint64_t state = seed;
  std::vector<int> order = Permutation(rows, &state);
  int64_t offset[4];
  for (int64_t& o : offset) o = static_cast<int64_t>(SplitMix(&state) % 10000);
  RelationBuilder b({"nights", "rate", "subtotal", "taxes"});
  for (int i = 0; i < rows; ++i) {
    uint64_t r = static_cast<uint64_t>(order[i]);
    int64_t nights = 1 + static_cast<int64_t>(Mix(r, 1) % 30);
    int64_t rate = 200 - 3 * nights + static_cast<int64_t>(Mix(r, 2) % 3);
    int64_t subtotal = nights * rate;
    b.AddRow({Value(nights + offset[0]), Value(rate + offset[1]),
              Value(subtotal + offset[2]), Value(subtotal / 5 + offset[3])});
  }
  return std::move(b.Build()).value();
}

std::string Syllables(uint64_t h) {
  static const char* kSyllables[] = {"ka", "lo", "mi", "ne", "ru", "sa",
                                     "ti", "vo", "be", "da", "go", "pu",
                                     "ze", "fi", "ho", "ja"};
  std::string w;
  int n = 2 + static_cast<int>(h % 2);
  for (int i = 0; i < n; ++i) {
    h /= 16;
    w += kSyllables[h % 16];
  }
  w[0] = static_cast<char>(w[0] - 'a' + 'A');
  return w;
}

/// Hotels rendered three times each, with abbreviations and one-letter
/// typos (the edit distances matter, the letters do not).
Relation MakeHotels(int hotels, uint64_t seed) {
  uint64_t state = seed ^ 0x5bd1e995ull;
  const int rows = hotels * 3;
  std::vector<int> order = Permutation(rows, &state);
  RelationBuilder b({"name", "address", "region", "star", "price"});
  for (int i = 0; i < rows; ++i) {
    uint64_t r = static_cast<uint64_t>(order[i]);
    uint64_t h = r / 3;
    std::string name = Syllables(Mix(h, 1)) + " " + Syllables(Mix(h, 2));
    if (Mix(r, 7) % 20 == 0) name[1] = name[1] == 'x' ? 'q' : 'x';
    std::string street = Mix(r, 6) % 10 < 3 ? " St" : " Street";
    std::string address = std::to_string(1 + Mix(h, 3) % 900) + " " +
                          Syllables(Mix(h, 4)) + street;
    std::string region = Syllables(Mix(h % 40, 5));
    if (Mix(r, 10) % 25 == 0) region.back() = region.back() == 'x' ? 'q' : 'x';
    int64_t star = 1 + static_cast<int64_t>(Mix(h, 8) % 5);
    int64_t price = 50 + 20 * star + static_cast<int64_t>(Mix(h, 9) % 30);
    b.AddRow({Value(name), Value(address), Value(region), Value(star),
              Value(price)});
  }
  return std::move(b.Build()).value();
}

struct Quartiles {
  double q1, median, q3;
};

template <typename F>
Quartiles TimeMs(F&& run) {
  std::vector<double> ms;
  for (int r = 0; r < kRuns; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    run();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return {ms[kRuns / 4], ms[kRuns / 2], ms[3 * kRuns / 4]};
}

/// A word's lanes, lane 0 first: std::map orders them as the kernel sorts.
using Lanes = std::vector<uint64_t>;

/// The multiset as a fold of one-pair words over the given ordered pairs.
std::map<Lanes, int64_t> PairListFold(
    const EncodedRelation& enc, const std::vector<EvidenceColumn>& cfg,
    const std::vector<std::pair<int, int>>& pairs) {
  std::unique_ptr<PairComparator> pc =
      PairComparator::Make(enc, cfg, nullptr).value();
  std::map<Lanes, int64_t> out;
  Lanes word(pc->num_lanes());
  for (const auto& [i, j] : pairs) {
    pc->Word(i, j, word.data());
    ++out[word];
  }
  return out;
}

/// The same fold over every unordered pair.
std::map<Lanes, int64_t> PairFold(const EncodedRelation& enc,
                                  const std::vector<EvidenceColumn>& cfg) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < enc.num_rows(); ++i) {
    for (int j = i + 1; j < enc.num_rows(); ++j) pairs.push_back({i, j});
  }
  return PairListFold(enc, cfg, pairs);
}

bool SameMultiset(const EvidenceSet& set,
                  const std::map<Lanes, int64_t>& expected) {
  if (set.num_words() != expected.size()) return false;
  size_t k = 0;
  for (const auto& [lanes, count] : expected) {
    if (Lanes(set.lanes(k), set.lanes(k) + set.num_lanes()) != lanes ||
        set.count(k) != count) {
      return false;
    }
    ++k;
  }
  return true;
}

/// `rows` random doubles per column, and the exact-DD config over them:
/// `quantiles` evenly spaced thresholds up to each column's range (the
/// widest distance), buckets and a tracked max per column.
Relation MakeWideDoubles(int rows, int cols, uint64_t seed) {
  uint64_t state = seed;
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("d" + std::to_string(c));
  RelationBuilder b(names);
  for (int i = 0; i < rows; ++i) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value(static_cast<double>(SplitMix(&state) % 100000) /
                          8.0));
    }
    b.AddRow(std::move(row));
  }
  return std::move(b.Build()).value();
}

std::vector<EvidenceColumn> WideDdConfig(int cols, int quantiles) {
  std::vector<EvidenceColumn> cfg(cols);
  for (int c = 0; c < cols; ++c) {
    cfg[c].attr = c;
    cfg[c].cmp = EvidenceColumn::Cmp::kNone;
    cfg[c].metric = GetAbsDiffMetric();
    cfg[c].track_max = true;
    for (int q = 0; q < quantiles; ++q) {
      cfg[c].thresholds.push_back(12500.0 * q / quantiles);
    }
  }
  return cfg;
}

/// The textbook O(nm) Levenshtein DP, independent of the library's kernel.
int PlainLevenshtein(const std::string& a, const std::string& b) {
  std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Code pairs (a <= b) whose memoized bucket differs from the band of the
/// plain DP's distance between the decoded values.
int64_t BucketMismatches(const EncodedRelation& enc, int attr,
                         const std::vector<double>& thresholds) {
  CodeBucketTable table(enc, attr, GetEditDistanceMetric(), thresholds);
  if (!table.memoized()) return 1;
  int64_t bad = 0;
  const uint32_t k = static_cast<uint32_t>(enc.dict_size(attr));
  for (uint32_t b = 0; b < k; ++b) {
    const Value& vb = enc.Decode(attr, b);
    for (uint32_t a = 0; a <= b; ++a) {
      const Value& va = enc.Decode(attr, a);
      double d = va.is_null() || vb.is_null()
                     ? (va.is_null() && vb.is_null()
                            ? 0.0
                            : std::numeric_limits<double>::infinity())
                     : PlainLevenshtein(va.ToString(), vb.ToString());
      if (table.Bucket(a, b) != table.BucketOf(d)) ++bad;
    }
  }
  return bad;
}

void Print(const char* label, const Quartiles& q) {
  std::printf("%-34s %8.2f %8.2f %8.2f\n", label, q.q1, q.median, q.q3);
}

int Main() {
  Relation bookings = MakeBookings(2000, 1);
  EncodedRelation benc(bookings);
  std::vector<EvidenceColumn> bcfg(4);
  for (int c = 0; c < 4; ++c) {
    bcfg[c].attr = c;
    bcfg[c].cmp = EvidenceColumn::Cmp::kOrder;
  }

  Relation hotels = MakeHotels(250, 1);
  EncodedRelation henc(hotels);
  std::vector<EvidenceColumn> hcfg;
  const std::vector<double> kString = {0, 1, 2, 3}, kNumeric = {0, 1, 5};
  for (int a : {0, 1, 3, 4}) {
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kNone;
    col.metric = DefaultMetricFor(hotels.schema().column(a).type);
    col.thresholds = a <= 1 ? kString : kNumeric;
    hcfg.push_back(std::move(col));
  }
  EvidenceColumn region;
  region.attr = 2;
  hcfg.push_back(region);

  std::vector<std::pair<int, int>> pairs;
  uint64_t state = 7;
  const int n = bookings.num_rows();
  while (pairs.size() < 1000000) {
    int i = static_cast<int>(SplitMix(&state) % n);
    int j = static_cast<int>(SplitMix(&state) % n);
    if (i != j) pairs.push_back({i, j});
  }

  Relation wide = MakeWideDoubles(600, 8, 3);
  EncodedRelation wenc(wide);
  std::vector<EvidenceColumn> wcfg = WideDdConfig(8, 300);

  std::shared_ptr<const EvidenceSet> bset, hset, pset, wset;
  Quartiles build_b = TimeMs([&] { bset = BuildEvidence(benc, bcfg, {}).value(); });
  Quartiles build_p = TimeMs(
      [&] { pset = BuildEvidenceForPairs(benc, bcfg, pairs, {}).value(); });
  Quartiles fill_h = TimeMs([&] {
    std::unique_ptr<PairComparator> pc =
        PairComparator::Make(henc, hcfg, nullptr).value();
  });
  Quartiles build_h = TimeMs([&] { hset = BuildEvidence(henc, hcfg, {}).value(); });
  Quartiles fill_name = TimeMs(
      [&] { CodeBucketTable t(henc, 0, GetEditDistanceMetric(), kString); });
  Quartiles fill_address = TimeMs(
      [&] { CodeBucketTable t(henc, 1, GetEditDistanceMetric(), kString); });
  Quartiles build_w = TimeMs([&] { wset = BuildEvidence(wenc, wcfg, {}).value(); });

  std::printf("# 1 thread, %d runs each; ms q1 / median / q3\n", kRuns);
  std::printf("bookings: %d rows, %lld pairs, %zu distinct words\n",
              bookings.num_rows(),
              static_cast<long long>(bset->total_pairs()),
              bset->num_words());
  Print("  BuildEvidence", build_b);
  std::printf("bookings random pairs: %zu pairs, %zu distinct words\n",
              pairs.size(), pset->num_words());
  Print("  BuildEvidenceForPairs", build_p);
  std::printf("hotels: %d rows, %lld pairs, %zu distinct words\n",
              hotels.num_rows(), static_cast<long long>(hset->total_pairs()),
              hset->num_words());
  Print("  bucket fill (PairComparator::Make)", fill_h);
  std::printf("  name: %d codes\n", henc.dict_size(0));
  Print("    edit bucket fill", fill_name);
  std::printf("  address: %d codes\n", henc.dict_size(1));
  Print("    edit bucket fill", fill_address);
  Print("  BuildEvidence (fill + walk)", build_h);
  std::printf("  walk (median build - median fill) %8.2f\n",
              build_h.median - fill_h.median);
  std::printf("wide: %d rows, %lld pairs, %d lanes, %zu distinct words\n",
              wide.num_rows(), static_cast<long long>(wset->total_pairs()),
              wset->num_lanes(), wset->num_words());
  Print("  BuildEvidence", build_w);

  bool ok = SameMultiset(*bset, PairFold(benc, bcfg)) &&
            SameMultiset(*pset, PairListFold(benc, bcfg, pairs)) &&
            SameMultiset(*hset, PairFold(henc, hcfg)) &&
            SameMultiset(*wset, PairFold(wenc, wcfg));
  std::printf("multisets equal the one-pair Word fold: %s\n",
              ok ? "yes" : "NO");
  int64_t bad = BucketMismatches(henc, 0, kString) +
                BucketMismatches(henc, 1, kString);
  std::printf("name/address buckets equal the plain DP's: %s\n",
              bad == 0 ? "yes" : "NO");
  return ok && bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace famtree

int main() { return famtree::Main(); }
