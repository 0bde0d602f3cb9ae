#include "discovery/ned_discovery.h"

#include <memory>
#include <utility>
#include <vector>

#include <algorithm>
#include <string>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "metric/code_distance.h"
#include "metric/metric.h"

namespace famtree {

namespace {

/// Ned::ComputePairStats over code-pair distance tables: the distances are
/// the exact doubles the metrics return, so the counts match it bit for bit
/// (and integer counts are order-insensitive anyway).
Ned::PairStats PairScanStats(
    const std::vector<Ned::Predicate>& lhs,
    const std::vector<Ned::Predicate>& rhs, int n,
    const std::vector<std::unique_ptr<CodeDistanceTable>>& tables) {
  Ned::PairStats stats;
  auto agrees = [&](const std::vector<Ned::Predicate>& preds, int i, int j) {
    for (const auto& p : preds) {
      if (tables[p.attr]->RowDistance(i, j) > p.threshold) return false;
    }
    return true;
  };
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      ++stats.total_pairs;
      if (!agrees(lhs, i, j)) continue;
      ++stats.lhs_pairs;
      if (agrees(rhs, i, j)) ++stats.satisfying_pairs;
    }
  }
  return stats;
}

}  // namespace

Result<std::vector<DiscoveredNed>> DiscoverNeds(
    const Relation& relation, const Ned::Predicate& target,
    const NedDiscoveryOptions& options) {
  int nc = relation.num_columns();
  if (target.attr < 0 || target.attr >= nc || target.metric == nullptr) {
    return Status::Invalid("invalid target predicate");
  }
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  std::vector<Ned::Predicate> candidates;
  std::vector<MetricPtr> metrics(nc);
  for (int a = 0; a < nc; ++a) {
    if (a == target.attr) continue;
    metrics[a] = DefaultMetricFor(relation.schema().column(a).type);
    for (double th : options.thresholds) {
      candidates.push_back(Ned::Predicate{a, metrics[a], th});
    }
  }
  // The target attribute uses the caller's metric, not the column default.
  metrics[target.attr] = target.metric;
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "neds");
  // A stop during the shared precomputation cuts before any candidate was
  // evaluated: the partial result is the empty prefix.
  auto exhausted_early = [&](const Status& stop, int64_t total) {
    RunContext::MarkExhausted(ctx, stop, 0, total);
    return std::vector<DiscoveredNed>{};
  };
  std::vector<std::vector<Ned::Predicate>> lhs_sets;
  for (const auto& p : candidates) lhs_sets.push_back({p});
  if (options.max_lhs_attrs >= 2) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      for (size_t j = i + 1; j < candidates.size(); ++j) {
        if (candidates[i].attr == candidates[j].attr) continue;
        lhs_sets.push_back({candidates[i], candidates[j]});
      }
    }
  }
  // Per-candidate pair scans are independent; the support / confidence
  // filters replay the candidate order below, so the output is
  // bit-identical at any thread count.
  std::vector<Ned::PairStats> stats(lhs_sets.size());
  int n = relation.num_rows();
  int64_t candidates_done = 0;
  // Evidence path: one kernel build packs every attribute's
  // threshold-bucket index — the target's single threshold included — into
  // a word per pair; each candidate's counts are folds over the
  // deduplicated words. d <= threshold exactly when the bucket index is at
  // or below the threshold's index, so the stats match the pair scans bit
  // for bit. The target metric is caller-supplied, so the path is gated to
  // the built-in metrics whose NaN behavior the non-finite-dictionary
  // guard covers; other metrics and non-finite dictionaries take the pair
  // scans below (see NedDiscoveryOptions::evidence).
  const std::string& tname = target.metric->name();
  bool supported =
      tname == "edit" || tname == "absdiff" || tname == "discrete";
  std::vector<double> lhs_th = options.thresholds;
  std::sort(lhs_th.begin(), lhs_th.end());
  lhs_th.erase(std::unique(lhs_th.begin(), lhs_th.end()), lhs_th.end());
  std::vector<EvidenceColumn> config;
  std::vector<int> cfg_of(nc, -1);
  for (int a = 0; a < nc && supported; ++a) {
    if (a != target.attr && DictHasNonFiniteDouble(*encoded, a)) {
      supported = false;
      break;
    }
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kNone;
    col.metric = metrics[a];
    col.thresholds =
        a == target.attr ? std::vector<double>{target.threshold} : lhs_th;
    cfg_of[a] = static_cast<int>(config.size());
    config.push_back(std::move(col));
  }
  if (supported && target.attr < nc &&
      DictHasNonFiniteDouble(*encoded, target.attr)) {
    supported = false;
  }
  if (supported) {
    EvidenceOptions eopts;
    eopts.pool = pool;
    eopts.context = ctx;
    Result<std::shared_ptr<const EvidenceSet>> set_result = GetOrBuildEvidence(
        options.evidence, *encoded,
        EvidenceKeyFingerprint(options.evidence, relation, options.cache),
        config, eopts);
    if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
      return exhausted_early(set_result.status(),
                             static_cast<int64_t>(lhs_sets.size()));
    }
    FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                             std::move(set_result));
    // Per-word target satisfaction (bucket 0 of the single-threshold
    // facet), shared by every candidate.
    std::vector<char> target_ok(set->num_words());
    for (size_t wi = 0; wi < set->num_words(); ++wi) {
      target_ok[wi] = set->BucketOf(wi, cfg_of[target.attr]) == 0 ? 1 : 0;
    }
    std::vector<std::vector<std::pair<int, int>>> lhs_buckets(
        lhs_sets.size());
    for (size_t c = 0; c < lhs_sets.size(); ++c) {
      for (const auto& p : lhs_sets[c]) {
        int ti = static_cast<int>(
            std::find(lhs_th.begin(), lhs_th.end(), p.threshold) -
            lhs_th.begin());
        lhs_buckets[c].push_back({cfg_of[p.attr], ti});
      }
    }
    FAMTREE_ASSIGN_OR_RETURN(
        candidates_done,
        AnytimeParallelFor(
            ctx, pool, static_cast<int64_t>(lhs_sets.size()),
            [&](int64_t c) {
          Ned::PairStats& st = stats[c];
          st.total_pairs = set->total_pairs();
          for (size_t wi = 0; wi < set->num_words(); ++wi) {
            bool agrees = true;
            for (const auto& [col, ti] : lhs_buckets[c]) {
              if (set->BucketOf(wi, col) > ti) {
                agrees = false;
                break;
              }
            }
            if (!agrees) continue;
            st.lhs_pairs += set->count(wi);
            if (target_ok[wi]) st.satisfying_pairs += set->count(wi);
          }
          return Status::OK();
            }));
  } else {
    // Code-pair distance tables, one per attribute, built before the outer
    // ParallelFor (each fill parallelizes internally on the same pool); the
    // evidence path lends none, so a cache hit there fills nothing.
    std::vector<std::unique_ptr<CodeDistanceTable>> tables(nc);
    for (int a = 0; a < nc; ++a) {
      Status st = RunContext::Poll(ctx);
      if (RunContext::IsStop(st)) return exhausted_early(st, 0);
      tables[a] =
          std::make_unique<CodeDistanceTable>(*encoded, a, metrics[a], pool);
    }
    FAMTREE_ASSIGN_OR_RETURN(
        candidates_done,
        AnytimeParallelFor(
            ctx, pool, static_cast<int64_t>(lhs_sets.size()), [&](int64_t c) {
              stats[c] = PairScanStats(lhs_sets[c], {target}, n, tables);
              return Status::OK();
            }));
  }
  std::vector<DiscoveredNed> out;
  // The support / confidence filters replay the completed candidate prefix
  // only, so a cut run emits the same NEDs at any thread count.
  for (size_t c = 0; c < static_cast<size_t>(candidates_done); ++c) {
    if (stats[c].lhs_pairs < options.min_support) continue;
    if (stats[c].confidence() < options.min_confidence) continue;
    out.push_back(DiscoveredNed{Ned(std::move(lhs_sets[c]), {target}),
                                stats[c].lhs_pairs, stats[c].confidence()});
  }
  if (candidates_done < static_cast<int64_t>(lhs_sets.size())) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx),
                              candidates_done,
                              static_cast<int64_t>(lhs_sets.size()));
  } else {
    RunContext::MarkComplete(ctx, candidates_done);
  }
  return out;
}

}  // namespace famtree
