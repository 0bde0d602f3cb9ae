#include "discovery/md_discovery.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "discovery/md_setup.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "metric/metric.h"

namespace famtree {

namespace md_internal {

Status Prepare(const Relation& relation, AttrSet rhs,
               const MdDiscoveryOptions& options, MdSetup* setup) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "MD discovery"));
  if (!AttrSet::Full(nc).ContainsAll(rhs) || rhs.empty()) {
    return Status::Invalid("MD discovery needs a valid RHS attribute set");
  }
  setup->rhs = rhs;
  bool sampling =
      options.sample_rows > 0 && options.sample_rows < relation.num_rows();
  if (sampling) {
    std::vector<int> rows(options.sample_rows);
    for (int i = 0; i < options.sample_rows; ++i) rows[i] = i;
    setup->sampled = relation.Select(rows);
  }
  setup->sample = sampling ? &setup->sampled : &relation;
  // A sampled run re-materializes the input, so the cache's encoding (keyed
  // to the original relation) cannot be borrowed.
  FAMTREE_ASSIGN_OR_RETURN(
      setup->encoded,
      ResolveEncoding(*setup->sample, sampling ? nullptr : options.cache,
                      &setup->local_encoding));
  setup->fingerprint = EvidenceKeyFingerprint(
      options.evidence, *setup->sample, sampling ? nullptr : options.cache);

  // Candidate predicates per non-RHS attribute, in the listed threshold
  // order; the evidence axis is the sorted-unique list.
  std::vector<SimilarityPredicate> candidates;
  setup->metrics.assign(nc, nullptr);
  setup->attr_th.assign(nc, {});
  setup->cfg_of.assign(nc, -1);
  for (int a = 0; a < nc; ++a) {
    if (rhs.Contains(a)) continue;
    ValueType t = relation.schema().column(a).type;
    const std::vector<double>& ths =
        (t == ValueType::kInt || t == ValueType::kDouble)
            ? options.numeric_thresholds
            : options.string_thresholds;
    setup->metrics[a] = DefaultMetricFor(t);
    for (double th : ths) {
      candidates.push_back(SimilarityPredicate{a, setup->metrics[a], th});
    }
    std::vector<double>& sorted = setup->attr_th[a];
    sorted = ths;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kNone;
    col.metric = setup->metrics[a];
    col.thresholds = sorted;
    setup->cfg_of[a] = static_cast<int>(setup->config.size());
    setup->config.push_back(std::move(col));
  }
  for (int a = 0; a < nc; ++a) {
    if (!rhs.Contains(a)) continue;
    EvidenceColumn col;
    col.attr = a;
    col.cmp = EvidenceColumn::Cmp::kEquality;
    setup->rhs_cols.push_back(static_cast<int>(setup->config.size()));
    setup->config.push_back(std::move(col));
  }

  // LHS candidate sets: one or two predicates on distinct attributes.
  std::vector<std::vector<SimilarityPredicate>>& lhs_sets = setup->lhs_sets;
  for (const auto& p : candidates) lhs_sets.push_back({p});
  if (options.max_lhs_attrs >= 2) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      for (size_t j = i + 1; j < candidates.size(); ++j) {
        if (candidates[i].attr == candidates[j].attr) continue;
        lhs_sets.push_back({candidates[i], candidates[j]});
      }
    }
  }
  setup->lhs_buckets.resize(lhs_sets.size());
  for (size_t c = 0; c < lhs_sets.size(); ++c) {
    for (const auto& p : lhs_sets[c]) {
      const std::vector<double>& th = setup->attr_th[p.attr];
      int ti = static_cast<int>(std::find(th.begin(), th.end(), p.threshold) -
                                th.begin());
      setup->lhs_buckets[c].push_back({setup->cfg_of[p.attr], ti});
    }
  }
  return Status::OK();
}

Result<std::vector<DiscoveredMd>> Mine(MdSetup* setup,
                                       const MdDiscoveryOptions& options) {
  ThreadPool* pool = options.pool;
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "mds");
  int64_t num_candidates = static_cast<int64_t>(setup->lhs_sets.size());
  // A stop during the shared precomputation cuts before any candidate was
  // evaluated: the partial result is the empty prefix.
  auto exhausted_early = [&](const Status& stop, int64_t total) {
    RunContext::MarkExhausted(ctx, stop, 0, total);
    return std::vector<DiscoveredMd>{};
  };
  // Per-candidate evaluations are independent; the support / confidence /
  // RCK-minimality filters replay the candidate order, so the output is
  // bit-identical at any thread count.
  std::vector<Md::Stats> stats(num_candidates);
  // One kernel build packs, per pair, each LHS attribute's threshold-bucket
  // index and each RHS attribute's equality bit; a candidate's counts are
  // then folds over the deduplicated words. d <= threshold exactly when the
  // bucket index is at or below the threshold's index, and the RHS row keys
  // agree exactly when every RHS attribute's codes do, so the stats match
  // Md::ComputeStats bit for bit. The config lends no distance table: a
  // cache hit fills nothing.
  EvidenceOptions eopts;
  eopts.pool = pool;
  eopts.context = ctx;
  Result<std::shared_ptr<const EvidenceSet>> set_result =
      GetOrBuildEvidence(options.evidence, *setup->encoded,
                         setup->fingerprint, setup->config, eopts);
  if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
    return exhausted_early(set_result.status(), num_candidates);
  }
  FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                           std::move(set_result));
  const size_t num_words = set->num_words();
  // Per-word RHS identification, shared by every candidate.
  std::vector<char> identified(num_words);
  for (size_t wi = 0; wi < num_words; ++wi) {
    bool id = true;
    for (int col : setup->rhs_cols) {
      if (!set->AgreesOn(wi, col)) {
        id = false;
        break;
      }
    }
    identified[wi] = id ? 1 : 0;
  }
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t candidates_done,
      AnytimeParallelFor(ctx, pool, num_candidates, [&](int64_t c) {
        Md::Stats& st = stats[c];
        st.total_pairs = set->total_pairs();
        for (size_t wi = 0; wi < num_words; ++wi) {
          bool similar = true;
          for (const auto& [col, ti] : setup->lhs_buckets[c]) {
            if (set->BucketOf(wi, col) > ti) {
              similar = false;
              break;
            }
          }
          if (!similar) continue;
          st.similar_pairs += set->count(wi);
          if (identified[wi]) st.identified_pairs += set->count(wi);
        }
        return Status::OK();
      }));
  return Replay(setup, stats, candidates_done, options);
}

std::vector<DiscoveredMd> Replay(MdSetup* setup,
                                 const std::vector<Md::Stats>& stats,
                                 int64_t candidates_done,
                                 const MdDiscoveryOptions& options) {
  RunContext* ctx = options.context;
  std::vector<DiscoveredMd> out;
  // Minimality checks earlier candidates alone, so a cut run's output
  // matches the full run's first candidates_done entries.
  for (size_t c = 0; c < static_cast<size_t>(candidates_done); ++c) {
    auto& lhs = setup->lhs_sets[c];
    if (stats[c].support() < options.min_support) continue;
    if (stats[c].confidence() < options.min_confidence) continue;
    // RCK-style minimality: skip when a reported MD's predicates are a
    // subset with looser-or-equal thresholds (the reported one already
    // matches at least the pairs this one matches).
    bool redundant = false;
    for (const DiscoveredMd& prev : out) {
      bool covers = true;
      for (const auto& pp : prev.md.lhs()) {
        bool found = false;
        for (const auto& p : lhs) {
          if (p.attr == pp.attr && pp.threshold >= p.threshold) {
            found = true;
            break;
          }
        }
        if (!found) {
          covers = false;
          break;
        }
      }
      if (covers && prev.md.lhs().size() <= lhs.size()) {
        redundant = true;
        break;
      }
    }
    if (redundant) continue;
    out.push_back(DiscoveredMd{Md(std::move(lhs), setup->rhs),
                               stats[c].support(), stats[c].confidence()});
    if (static_cast<int>(out.size()) >= options.max_results) {
      RunContext::MarkComplete(ctx, static_cast<int64_t>(c) + 1);
      return out;
    }
  }
  int64_t num_candidates = static_cast<int64_t>(setup->lhs_sets.size());
  if (candidates_done < num_candidates) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx),
                              candidates_done, num_candidates);
  } else {
    RunContext::MarkComplete(ctx, candidates_done);
  }
  return out;
}

}  // namespace md_internal

Result<std::vector<DiscoveredMd>> DiscoverMds(
    const Relation& relation, AttrSet rhs,
    const MdDiscoveryOptions& options) {
  md_internal::MdSetup setup;
  FAMTREE_RETURN_NOT_OK(md_internal::Prepare(relation, rhs, options, &setup));
  return md_internal::Mine(&setup, options);
}

}  // namespace famtree
