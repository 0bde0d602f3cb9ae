// csv-to-cover: the dependency-profiling user path. Each op parses the same
// generated CSV text with ReadCsvString, then mines the minimal FD cover
// twice in a fresh DiscoveryEngine — TANE's lattice and the HybridFds
// sampler + frontier validator — and checks both against the reference
// cover computed in setup.

#include <string>

#include "engine/engine.h"
#include "harness.h"
#include "relation/csv.h"

namespace perfbench {
namespace {

using famtree::DiscoveredFd;
using famtree::DiscoveryEngine;
using famtree::Relation;
using famtree::Result;

constexpr int kEngineThreads = 1;
constexpr int kMaxLhs = 3;
constexpr int kColumns = 8;

/// A planted FD chain a0 -> a1 -> a2 -> a3 over shrinking domains plus four
/// noise columns. Every cell is a function of the row index; the seed only
/// draws a per-column value offset, so every seed gives an isomorphic
/// relation with the same cover, cost and memory. The offsets keep every
/// cell at six digits, so every seed's text has the same length. The rows
/// keep their order: a seeded row order changes which row pairs the
/// HybridFds sampler draws, and moved the peak RSS between 44 and 50 MB
/// from seed to seed.
std::string MakeCsv(int rows, uint64_t seed) {
  Rng rng(seed);
  int64_t offset[kColumns];
  for (int64_t& o : offset) {
    o = 100000 + static_cast<int64_t>(rng.Below(800000));
  }
  std::string text = "a0,a1,a2,a3,n4,n5,n6,n7\n";
  text.reserve(static_cast<size_t>(rows) * 48);
  for (int i = 0; i < rows; ++i) {
    uint64_t r = static_cast<uint64_t>(i);
    int64_t a0 = static_cast<int64_t>(Mix(r, 1) % 5000);
    int64_t a1 = (a0 * 7 + 3) % 499;
    int64_t a2 = (a1 * 5 + 1) % 47;
    int64_t cells[kColumns] = {
        a0,
        a1,
        a2,
        a2 % 5,
        static_cast<int64_t>(Mix(r, 4) % 1000),
        static_cast<int64_t>(Mix(r, 5) % 100),
        static_cast<int64_t>(Mix(r, 6) % 10),
        static_cast<int64_t>(Mix(r, 7) % 3),
    };
    for (int c = 0; c < kColumns; ++c) {
      text += std::to_string(cells[c] + offset[c]);
      text += c + 1 < kColumns ? ',' : '\n';
    }
  }
  return text;
}

struct State {
  std::string csv;
  std::vector<CanonFd> reference;
  LayerCounters counters;
  int64_t rows_parsed = 0;
};

struct Answers {
  Result<std::vector<DiscoveredFd>> tane = std::vector<DiscoveredFd>{};
  Result<std::vector<DiscoveredFd>> hybrid = std::vector<DiscoveredFd>{};
  bool parsed = false;
};

/// One op's timed region: parse, fresh engine, TANE, HybridFds, and the
/// teardown of the relation and engine the user also pays for.
Answers RunOnce(State& s, int64_t op, Tracer& tracer) {
  Answers out;
  Span span(tracer, "op", op);
  Result<Relation> relation = Relation();
  {
    Span parse(tracer, "relation.csv_parse", op);
    relation = famtree::ReadCsvString(s.csv);
  }
  if (!relation.ok()) return out;
  out.parsed = true;
  s.rows_parsed += relation->num_rows();

  famtree::EngineOptions options;
  options.num_threads = kEngineThreads;
  DiscoveryEngine engine(options);
  famtree::TaneOptions tane;
  tane.max_lhs_size = kMaxLhs;
  {
    Span t(tracer, "discovery.tane", op);
    out.tane = engine.Tane(*relation, tane);
  }
  famtree::HybridFdStats stats;
  famtree::HybridFdOptions hybrid;
  hybrid.max_lhs_size = kMaxLhs;
  hybrid.stats = &stats;
  {
    Span h(tracer, "discovery.hybrid", op);
    out.hybrid = engine.HybridFds(*relation, hybrid);
  }
  s.counters.AddEngine(engine.CacheStats(), engine.EvidenceStats());
  s.counters.AddHybrid(stats);
  return out;
}

std::string Check(const Answers& a, const std::vector<CanonFd>& reference) {
  if (!a.parsed) return "ReadCsvString failed";
  if (!a.tane.ok()) return "Tane: " + a.tane.status().message();
  if (!a.hybrid.ok()) return "HybridFds: " + a.hybrid.status().message();
  if (Canonical(*a.tane) != reference) return "TANE cover != reference";
  if (Canonical(*a.hybrid) != reference) return "HybridFds cover != reference";
  return "";
}

}  // namespace

void RunCsvToCover(const Args& args, Report* report, Tracer& tracer) {
  const int rows = args.tiny ? 2000 : 40000;
  report->threads = {1, kEngineThreads, 0};
  Tracer untraced(false);

  auto setup = [&]() -> std::unique_ptr<State> {
    auto s = std::make_unique<State>();
    s->csv = MakeCsv(rows, args.seed);
    // Warm-up op: its TANE cover is the reference, and HybridFds must agree.
    Answers warm = RunOnce(*s, -1, untraced);
    if (!warm.parsed || !warm.tane.ok() || warm.tane->empty()) {
      report->Fail(-1, "setup: no reference cover");
      return nullptr;
    }
    s->reference = Canonical(*warm.tane);
    std::string err = Check(warm, s->reference);
    if (!err.empty()) {
      report->Fail(-1, "setup: " + err);
      return nullptr;
    }
    if (args.sabotage) s->reference.pop_back();
    s->counters = {};
    s->rows_parsed = 0;
    return s;
  };
  auto op = [&](State& s, int64_t k) {
    OpResult r;
    double t0 = Now();
    Answers a = RunOnce(s, k, tracer);
    r.seconds = Now() - t0;
    std::string err = Check(a, s.reference);
    if (!err.empty()) {
      r.ok = false;
      report->Fail(k, err);
    }
    return r;
  };
  std::unique_ptr<State> s = RunClosedLoop<State>(args, report, setup, op);
  if (s == nullptr) return;
  s->counters.Publish(report, report->attempted);
  report->Set("relation.rows_parsed",
              static_cast<double>(s->rows_parsed) / report->attempted);
  report->Set("discovery.cover_fds", static_cast<double>(s->reference.size()));
}

}  // namespace perfbench
