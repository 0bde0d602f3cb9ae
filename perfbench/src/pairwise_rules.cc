// pairwise-rules: the rules-check / hotel-cleaning user path. Each op uses
// a fresh DiscoveryEngine to mine denial constraints (FastDc) on a clean
// bookings history and matching dependencies (Mds) on a hotels history,
// then runs Detect with the discovered rules on an incoming dirty batch of
// each. The work is the O(n^2) evidence tiles and the metric code-distance
// tables; PLI work is small.

#include <memory>
#include <string>

#include "engine/engine.h"
#include "harness.h"

namespace perfbench {
namespace {

using famtree::DependencyPtr;
using famtree::DiscoveryEngine;
using famtree::Relation;
using famtree::RelationBuilder;
using famtree::Result;
using famtree::Value;

constexpr int kEngineThreads = 1;
/// Attribute the hotels' MDs identify (region).
constexpr int kHotelRegion = 2;
constexpr int kMaxViolationsPerRule = 1 << 30;
/// Detect checks the first DCs of the (canonically ordered) discovered
/// list that relate two columns: validating one DC is a full O(n^2) pair
/// scan, and a one-column DC such as not(t.a = s.a and t.a < s.a) holds on
/// any data.
constexpr size_t kDetectDcs = 3;

/// Bookings: rate falls with nights, subtotal = nights * rate, taxes = 20%.
/// Rows whose structural index hashes to a fixed 2% get a wrong subtotal in
/// a dirty batch. The seed draws the row order and per-column
/// offsets, which keep every same-column comparison — so the evidence
/// multiset, the DCs and the violations are the same for every seed.
Relation MakeBookings(int rows, uint64_t seed, bool dirty) {
  Rng rng(seed);
  std::vector<int> order = Permutation(rows, rng);
  int64_t offset[4];
  for (int64_t& o : offset) o = static_cast<int64_t>(rng.Below(10000));
  RelationBuilder b({"nights", "rate", "subtotal", "taxes"});
  for (int i = 0; i < rows; ++i) {
    uint64_t r = static_cast<uint64_t>(order[i]);
    int64_t nights = 1 + static_cast<int64_t>(Mix(r, 1) % 30);
    int64_t rate = 200 - 3 * nights + static_cast<int64_t>(Mix(r, 2) % 3);
    int64_t subtotal = nights * rate;
    if (dirty && Mix(r, 3) % 50 == 0) subtotal += 250;
    b.AddRow({Value(nights + offset[0]), Value(rate + offset[1]),
              Value(subtotal + offset[2]), Value(subtotal / 5 + offset[3])});
  }
  return std::move(b.Build()).value();
}

/// A seeded letter substitution: it preserves every edit distance, so the
/// string similarity structure is the same for every seed.
struct Cipher {
  char map[26];
  explicit Cipher(Rng& rng) {
    std::vector<int> p = Permutation(26, rng);
    for (int i = 0; i < 26; ++i) map[i] = static_cast<char>('a' + p[i]);
  }
  std::string operator()(std::string s) const {
    for (char& c : s) {
      if (c >= 'a' && c <= 'z') c = map[c - 'a'];
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(map[c - 'A'] - 'a' + 'A');
    }
    return s;
  }
};

std::string Word(uint64_t h) {
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

/// Hotels rendered three times each (name, address, region, star, price):
/// address determines region; a fixed share of renderings abbreviates the
/// street type or carries a one-letter typo in the name or the region.
Relation MakeHotels(int hotels, uint64_t seed) {
  Rng rng(seed ^ 0x5bd1e995ull);
  Cipher cipher(rng);
  const int rows = hotels * 3;
  std::vector<int> order = Permutation(rows, rng);
  int64_t price_offset = static_cast<int64_t>(rng.Below(1000));
  RelationBuilder b({"name", "address", "region", "star", "price"});
  for (int i = 0; i < rows; ++i) {
    uint64_t r = static_cast<uint64_t>(order[i]);
    uint64_t h = r / 3;
    std::string name = Word(Mix(h, 1)) + " " + Word(Mix(h, 2));
    if (Mix(r, 7) % 20 == 0) name[1] = name[1] == 'x' ? 'q' : 'x';
    std::string street = Mix(r, 6) % 10 < 3 ? " St" : " Street";
    std::string address =
        std::to_string(1 + Mix(h, 3) % 900) + " " + Word(Mix(h, 4)) + street;
    std::string region = Word(Mix(h % 40, 5));
    if (Mix(r, 10) % 25 == 0) region.back() = region.back() == 'x' ? 'q' : 'x';
    int64_t star = 1 + static_cast<int64_t>(Mix(h, 8) % 5);
    int64_t price = 50 + 20 * star + static_cast<int64_t>(Mix(h, 9) % 30);
    b.AddRow({Value(cipher(name)), Value(cipher(address)),
              Value(cipher(region)), Value(star), Value(price + price_offset)});
  }
  return std::move(b.Build()).value();
}

/// What one op found; every field must equal the setup reference.
struct Answers {
  std::string error;
  std::vector<std::string> dcs;
  std::vector<std::string> mds;
  int64_t dc_violations = 0;
  int64_t md_violations = 0;
  int64_t flagged_rows = 0;

  bool operator==(const Answers&) const = default;
};

struct State {
  Relation bookings;
  Relation hotels;
  Relation incoming_bookings;
  Relation incoming_hotels;
  Answers reference;
  LayerCounters counters;
};

bool SpansColumns(const famtree::Dc& dc) {
  const auto& p = dc.predicates();
  for (size_t i = 1; i < p.size(); ++i) {
    if (p[i].lhs.attr != p[0].lhs.attr) return true;
  }
  return false;
}

int64_t CountViolations(const famtree::DetectionSummary& s) {
  int64_t n = 0;
  for (const auto& r : s.results) n += r.report.violation_count;
  return n;
}

Answers RunOnce(State& s, int64_t op, Tracer& tracer) {
  Answers out;
  Span span(tracer, "op", op);
  famtree::EngineOptions options;
  options.num_threads = kEngineThreads;
  DiscoveryEngine engine(options);

  Result<std::vector<famtree::DiscoveredDc>> dcs = famtree::Status::OK();
  {
    Span t(tracer, "discovery.fastdc", op);
    famtree::FastDcOptions dc_options;
    dc_options.max_rows_exact = s.bookings.num_rows();  // no pair sampling
    dcs = engine.FastDc(s.bookings, dc_options);
  }
  famtree::MdDiscoveryOptions md_options;
  md_options.min_confidence = 0.9;
  Result<std::vector<famtree::DiscoveredMd>> mds = famtree::Status::OK();
  {
    Span t(tracer, "discovery.md", op);
    mds = engine.Mds(s.hotels, famtree::AttrSet::Single(kHotelRegion),
                     md_options);
  }
  if (!dcs.ok() || !mds.ok()) {
    out.error = "discovery: " +
                (dcs.ok() ? mds.status() : dcs.status()).message();
    return out;
  }
  std::vector<DependencyPtr> dc_rules, md_rules;
  for (const auto& d : *dcs) {
    if (dc_rules.size() < kDetectDcs && SpansColumns(d.dc)) {
      dc_rules.push_back(std::make_shared<famtree::Dc>(d.dc));
    }
  }
  for (const auto& m : *mds) {
    md_rules.push_back(std::make_shared<famtree::Md>(m.md));
  }
  Result<famtree::DetectionSummary> dc_hits = famtree::Status::OK();
  Result<famtree::DetectionSummary> md_hits = famtree::Status::OK();
  {
    Span t(tracer, "quality.detect", op);
    dc_hits = engine.Detect(s.incoming_bookings, dc_rules,
                            kMaxViolationsPerRule);
    md_hits = engine.Detect(s.incoming_hotels, md_rules,
                            kMaxViolationsPerRule);
  }
  if (!dc_hits.ok() || !md_hits.ok()) {
    out.error = "detect: " +
                (dc_hits.ok() ? md_hits.status() : dc_hits.status()).message();
    return out;
  }
  s.counters.AddEngine(engine.CacheStats(), engine.EvidenceStats());

  for (const auto& d : *dcs) out.dcs.push_back(d.dc.ToString());
  for (const auto& m : *mds) out.mds.push_back(m.md.ToString());
  out.dc_violations = CountViolations(*dc_hits);
  out.md_violations = CountViolations(*md_hits);
  out.flagged_rows = static_cast<int64_t>(dc_hits->flagged_rows.size() +
                                          md_hits->flagged_rows.size());
  return out;
}

}  // namespace

void RunPairwiseRules(const Args& args, Report* report, Tracer& tracer) {
  const int booking_rows = args.tiny ? 200 : 2000;
  const int hotels = args.tiny ? 60 : 250;
  const int incoming_rows = args.tiny ? 100 : 600;
  const int incoming_hotels = args.tiny ? 20 : 50;
  report->threads = {1, kEngineThreads, 0};
  Tracer untraced(false);

  auto setup = [&]() -> std::unique_ptr<State> {
    auto s = std::make_unique<State>();
    s->bookings = MakeBookings(booking_rows, args.seed, false);
    s->hotels = MakeHotels(hotels, args.seed);
    s->incoming_bookings = MakeBookings(incoming_rows, args.seed + 1, true);
    s->incoming_hotels = MakeHotels(incoming_hotels, args.seed + 1);
    // Warm-up op: its answers are the reference every timed op must match.
    s->reference = RunOnce(*s, -1, untraced);
    if (!s->reference.error.empty() || s->reference.dcs.empty() ||
        s->reference.mds.empty() || s->reference.flagged_rows == 0) {
      report->Fail(-1, "setup: " + (s->reference.error.empty()
                                        ? std::string("no rules or no flags")
                                        : s->reference.error));
      return nullptr;
    }
    if (args.sabotage) ++s->reference.flagged_rows;
    s->counters = {};
    return s;
  };
  auto op = [&](State& s, int64_t k) {
    OpResult r;
    double t0 = Now();
    Answers a = RunOnce(s, k, tracer);
    r.seconds = Now() - t0;
    if (!(a == s.reference)) {
      r.ok = false;
      report->Fail(k, a.error.empty() ? "rules or flags != reference"
                                      : a.error);
    }
    return r;
  };
  std::unique_ptr<State> s = RunClosedLoop<State>(args, report, setup, op);
  if (s == nullptr) return;
  s->counters.Publish(report, report->attempted);
  report->Set("discovery.dcs", static_cast<double>(s->reference.dcs.size()));
  report->Set("discovery.mds", static_cast<double>(s->reference.mds.size()));
  report->Set("quality.flagged_rows",
              static_cast<double>(s->reference.flagged_rows));
}

}  // namespace perfbench
