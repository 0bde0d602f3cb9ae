// append-repair: the monitor-stream user path. Setup builds a base relation
// and a sample relation (a prefix of the base), warms one engine on both and
// records the initial FD cover and MDs. Each op appends a fixed-size batch
// through DiscoveryEngine::AppendRows (every third batch carries rows that
// violate an FD), repairs the cover with RepairFdCover, appends the batch's
// sample share to the sample relation, and re-mines the MDs with HybridMds
// on it. Ops run in cycles of kCycleOps batches; between cycles the state
// goes back, untimed, to the warm base.
// The PLI and cover layers are maintained as delta merges instead of cold
// builds, and so is the MDs' evidence: the sample's append merges an
// evidence delta (BuildEvidenceDelta + MergeEvidenceSets) into the cached
// set, and HybridMds then hits the cache.

#include <cstdio>
#include <map>
#include <string>

#include "engine/engine.h"
#include "harness.h"

namespace perfbench {
namespace {

using famtree::DiscoveredFd;
using famtree::DiscoveredMd;
using famtree::DiscoveryEngine;
using famtree::Relation;
using famtree::Value;

constexpr int kEngineThreads = 1;
constexpr int kMaxLhs = 3;
constexpr int kColumns = 8;
/// MDs identify c2 from similarity on the other columns.
constexpr int kMdRhs = 2;
// Coprime moduli with p0 * p1 far above any row count: {c0, c1} stays a
// key; c0 -> c2 and c4 -> c5 hold on the base; the violating batches mint
// c2 values the base never used, so they break c0 -> c2.
constexpr int64_t kP0 = 3163, kP1 = 3167, kP2 = 97, kP3 = 11;
constexpr int64_t kP4 = 2999, kP5 = 89, kP6 = 13, kP7 = 7;

/// Base relation rows; each batch appends 0.5% of them.
constexpr int kBaseRows = 100000;
/// Ops per cycle. Every cycle starts again from the warm base state, so the
/// relation sizes an op sees do not depend on how many ops a run fits in.
constexpr int64_t kCycleOps = 16;

struct Sizes {
  int base_rows;
  int batch_rows;
  int sample_rows;
  /// Rows of each batch that also go to the sample relation.
  int sample_batch_rows;
};

/// Row r of the relation. The seed only shifts each column by an offset,
/// which keeps every equality and distance, so all seeds cost the same.
std::vector<Value> RowAt(int64_t r, bool violating, const int64_t* offset) {
  int64_t c0 = r % kP0;
  int64_t c4 = r % kP4;
  int64_t c2 = violating ? kP2 + r % 13 : c0 % kP2;
  int64_t cells[kColumns] = {c0,      r % kP1,   c2,     r % kP3,
                             c4,      c4 % kP5,  r % kP6, r % kP7};
  std::vector<Value> row;
  row.reserve(kColumns);
  for (int c = 0; c < kColumns; ++c) row.emplace_back(cells[c] + offset[c]);
  return row;
}

struct State {
  Sizes sizes;
  int64_t offset[kColumns];
  Relation base;
  Relation relation;
  Relation sample_base;
  Relation sample;
  std::unique_ptr<DiscoveryEngine> engine;
  std::vector<DiscoveredFd> cover;
  std::vector<DiscoveredMd> mds;
  /// The MDs after each batch of a cycle, as the first cycle found them;
  /// every later cycle must find the same.
  std::map<int64_t, std::vector<std::string>> mds_after_batch;
  /// Cover and MD counts of the warm state, the same in every cycle.
  size_t warm_cover_fds = 0;
  size_t warm_mds = 0;
  LayerCounters counters;

  famtree::HybridFdOptions FdOptions(famtree::HybridFdStats* stats) const {
    famtree::HybridFdOptions o;
    o.max_lhs_size = kMaxLhs;
    o.stats = stats;
    return o;
  }
  famtree::MdDiscoveryOptions MdOptions() const {
    famtree::MdDiscoveryOptions o;
    o.min_confidence = 1.0;
    o.min_support = 0.0;
    return o;
  }
  /// Batch b of a cycle's append script: every third one violates c0 -> c2.
  std::vector<std::vector<Value>> Batch(int64_t b) const {
    std::vector<std::vector<Value>> rows;
    int64_t first = sizes.base_rows + b * sizes.batch_rows;
    for (int64_t r = first; r < first + sizes.batch_rows; ++r) {
      rows.push_back(RowAt(r, b % 3 == 2, offset));
    }
    return rows;
  }
};

std::vector<std::string> MdStrings(const std::vector<DiscoveredMd>& mds) {
  std::vector<std::string> out;
  for (const DiscoveredMd& m : mds) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " s=%.17g c=%.17g", m.support,
                  m.confidence);
    out.push_back(m.md.ToString() + buf);
  }
  return out;
}

/// Appends batch `b`, repairs the cover, appends the batch's sample share
/// and re-mines the MDs; `*seconds` gets the time of those four calls.
/// Returns the first failure, or "".
std::string RunOnce(State& s, int64_t b, int64_t op, Tracer& tracer,
                    double* seconds) {
  std::vector<std::vector<Value>> batch = s.Batch(b);
  std::vector<std::vector<Value>> sample_batch(
      batch.begin(), batch.begin() + s.sizes.sample_batch_rows);
  famtree::HybridFdStats stats;
  famtree::PliCache::Stats pli_before = s.engine->CacheStats();
  famtree::EvidenceCache::Stats evidence_before = s.engine->EvidenceStats();
  double t0 = Now();
  Span span(tracer, "op", op);
  famtree::Status appended;
  {
    Span a(tracer, "engine.append", op);
    appended = s.engine->AppendRows(s.relation, std::move(batch));
  }
  if (!appended.ok()) return "AppendRows: " + appended.message();
  famtree::Result<std::vector<DiscoveredFd>> repaired = s.cover;
  {
    Span r(tracer, "discovery.repair", op);
    repaired = s.engine->RepairFdCover(s.relation, s.cover, s.FdOptions(&stats));
  }
  if (!repaired.ok()) return "RepairFdCover: " + repaired.status().message();
  s.cover = std::move(repaired).value();
  {
    Span a(tracer, "engine.sample_append", op);
    appended = s.engine->AppendRows(s.sample, std::move(sample_batch));
  }
  if (!appended.ok()) return "AppendRows(sample): " + appended.message();
  famtree::Result<std::vector<DiscoveredMd>> mds = s.mds;
  {
    Span m(tracer, "discovery.md", op);
    mds = s.engine->HybridMds(s.sample, famtree::AttrSet::Single(kMdRhs),
                              s.MdOptions());
  }
  *seconds = Now() - t0;
  if (!mds.ok()) return "HybridMds: " + mds.status().message();
  s.mds = std::move(mds).value();
  s.counters.AddHybrid(stats);
  s.counters.AddEngine(s.engine->CacheStats(), s.engine->EvidenceStats(),
                       pli_before, evidence_before);
  if (s.cover.empty() || s.mds.empty()) return "empty cover or MDs";
  // The script is the same in every cycle, so are the MDs after batch b.
  auto [seen, first] = s.mds_after_batch.try_emplace(b, MdStrings(s.mds));
  if (!first && seen->second != MdStrings(s.mds)) {
    return "MDs after batch " + std::to_string(b) + " != first cycle's";
  }
  return "";
}

/// Puts the state back to the start of a cycle: the base and sample
/// relations in a warm engine that holds the FD cover and MDs — the state a
/// long-lived deployment has before a batch arrives — and then the warm-up
/// op, which appends batch 0.
std::string StartCycle(State& s) {
  s.engine.reset();
  s.relation = s.base;
  s.sample = s.sample_base;
  famtree::EngineOptions options;
  options.num_threads = kEngineThreads;
  s.engine = std::make_unique<DiscoveryEngine>(options);
  auto cover = s.engine->HybridFds(s.relation, s.FdOptions(nullptr));
  auto mds = s.engine->HybridMds(s.sample, famtree::AttrSet::Single(kMdRhs),
                                 s.MdOptions());
  if (!cover.ok() || !mds.ok() || cover->empty() || mds->empty()) {
    return "no initial cover or MDs";
  }
  s.cover = std::move(cover).value();
  s.mds = std::move(mds).value();
  LayerCounters counters = s.counters;  // the warm-up op is not counted
  Tracer untraced(false);
  double unused;
  std::string err = RunOnce(s, 0, -1, untraced, &unused);
  s.counters = counters;
  s.warm_cover_fds = s.cover.size();
  s.warm_mds = s.mds.size();
  return err;
}

}  // namespace

void RunAppendRepair(const Args& args, Report* report, Tracer& tracer) {
  const Sizes sizes = args.tiny ? Sizes{4000, 20, 512, 3}
                                : Sizes{kBaseRows, kBaseRows / 200, 2048, 10};
  report->threads = {1, kEngineThreads, 0};

  auto setup = [&]() -> std::unique_ptr<State> {
    auto s = std::make_unique<State>();
    s->sizes = sizes;
    Rng rng(args.seed);
    for (int64_t& o : s->offset) o = static_cast<int64_t>(rng.Below(1000000));
    famtree::RelationBuilder b(
        {"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"});
    for (int64_t r = 0; r < sizes.base_rows; ++r) {
      b.AddRow(RowAt(r, false, s->offset));
    }
    s->base = std::move(b.Build()).value();
    std::vector<int> prefix(sizes.sample_rows);
    for (int r = 0; r < sizes.sample_rows; ++r) prefix[r] = r;
    s->sample_base = s->base.Select(prefix);
    std::string err = StartCycle(*s);
    if (!err.empty()) {
      report->Fail(-1, "setup: " + err);
      return nullptr;
    }
    return s;
  };
  auto op = [&](State& s, int64_t k) {
    OpResult r;
    std::string err;
    if (k > 0 && k % kCycleOps == 0) err = StartCycle(s);
    if (err.empty()) err = RunOnce(s, 1 + k % kCycleOps, k, tracer, &r.seconds);
    if (!err.empty()) {
      r.ok = false;
      report->Fail(k, err);
    }
    return r;
  };
  std::unique_ptr<State> s = RunClosedLoop<State>(args, report, setup, op);
  if (s == nullptr) return;
  s->counters.Publish(report, report->attempted);
  report->Set("discovery.cover_fds", static_cast<double>(s->warm_cover_fds));
  report->Set("discovery.mds", static_cast<double>(s->warm_mds));

  // End of run, untimed: the repaired cover must equal a cold HybridFds of
  // the grown relation, and the MDs a cold HybridMds of the grown sample.
  famtree::EngineOptions options;
  options.num_threads = kEngineThreads;
  DiscoveryEngine cold(options);
  auto cold_cover = cold.HybridFds(s->relation, s->FdOptions(nullptr));
  auto cold_mds = cold.HybridMds(s->sample, famtree::AttrSet::Single(kMdRhs),
                                 s->MdOptions());
  std::vector<CanonFd> repaired = Canonical(s->cover);
  std::vector<std::string> maintained_mds = MdStrings(s->mds);
  if (args.sabotage) {
    repaired.pop_back();
    maintained_mds.pop_back();
  }
  if (!cold_cover.ok() || Canonical(*cold_cover) != repaired) {
    report->FailFinal("repaired cover != cold HybridFds");
  }
  if (!cold_mds.ok() || MdStrings(*cold_mds) != maintained_mds) {
    report->FailFinal("MDs != cold HybridMds");
  }
}

}  // namespace perfbench
