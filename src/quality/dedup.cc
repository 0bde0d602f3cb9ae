#include "quality/dedup.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "engine/evidence.h"
#include "quality/similarity_facets.h"

namespace famtree {

namespace {

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  bool Union(int a, int b) {
    int ra = Find(a), rb = Find(b);
    if (ra == rb) return false;
    parent[ra] = rb;
    return true;
  }
};

}  // namespace

Result<MatchResult> MdMatcher::Match(const Relation& relation) const {
  int n = relation.num_rows();
  UnionFind uf(n);
  MatchResult result;
  for (const Md& md : rules_) {
    for (int i = 0; i + 1 < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (md.LhsSimilar(relation, i, j)) {
          uf.Union(i, j);
          ++result.matched_pairs;
        }
      }
    }
  }
  // Dense cluster ids.
  std::map<int, int> root_to_id;
  result.cluster_ids.resize(n);
  for (int i = 0; i < n; ++i) {
    int root = uf.Find(i);
    auto [it, inserted] =
        root_to_id.emplace(root, static_cast<int>(root_to_id.size()));
    result.cluster_ids[i] = it->second;
  }
  result.num_clusters = static_cast<int>(root_to_id.size());
  return result;
}

Result<MatchResult> MdMatcher::Match(const Relation& relation,
                                     const QualityOptions& options) const {
  int n = relation.num_rows();
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "md_match");
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  // The rules' predicates compile onto one threshold-bucket facet per
  // distinct (attr, metric) of a PairComparator word — for edit distance a
  // bucket table instead of a full distance table — and a rule matches a
  // pair exactly when every predicate reads "bucket <= its threshold's
  // index". Buckets are "d <= threshold", the plain overload's similarity
  // test, so NaN distances are dissimilar on both. A rule with a NaN
  // threshold matches no pair (`d <= NaN` never holds) and is dropped up
  // front.
  std::vector<const Md*> live;
  for (const Md& rule : rules_) {
    bool nan = false;
    for (const SimilarityPredicate& p : rule.lhs()) {
      nan = nan || std::isnan(p.threshold);
    }
    if (!nan) live.push_back(&rule);
  }
  SimilarityFacets facets;
  for (const Md* rule : live) facets.Add(rule->lhs());
  FAMTREE_ASSIGN_OR_RETURN(
      std::unique_ptr<PairComparator> comparator,
      PairComparator::Make(*encoded, facets.columns(), options.pool));
  std::vector<SimilarityTest> tests;
  for (const Md* rule : live) {
    tests.push_back(facets.Compile(rule->lhs(), comparator->layout()));
  }
  const int lanes = comparator->num_lanes();
  // Per-anchor-row scans are independent: row i collects its per-rule
  // match count and the partners to union. The union-find merges replay
  // serially below; the cluster partition is the same for any merge order
  // and ids densify in row order, so the result matches the serial
  // Match(relation).
  std::vector<int64_t> counts(n, 0);
  std::vector<std::vector<int>> partners(n);
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t anchors_done,
      AnytimeParallelFor(ctx, options.pool, n, [&](int64_t i) {
    const int anchor = static_cast<int>(i);
    auto words = std::make_unique_for_overwrite<uint64_t[]>(
        static_cast<size_t>(lanes) * PairComparator::kStripRows);
    uint8_t hold[PairComparator::kStripRows];
    uint8_t any[PairComparator::kStripRows];
    for (int j0 = anchor + 1; j0 < n; j0 += PairComparator::kStripRows) {
      const int m = std::min(PairComparator::kStripRows, n - j0);
      comparator->Strip(anchor, j0, m, words.get());
      std::fill(any, any + m, 0);
      for (const SimilarityTest& test : tests) {
        test.Holds(words.get(), m, hold);
        for (int k = 0; k < m; ++k) {
          counts[i] += hold[k];
          any[k] |= hold[k];
        }
      }
      for (int k = 0; k < m; ++k) {
        if (any[k]) partners[i].push_back(j0 + k);
      }
    }
    return Status::OK();
      }));
  UnionFind uf(n);
  MatchResult result;
  // The merge replays only completed anchor rows, so a cut run clusters
  // exactly as the full run does after the same prefix of anchors.
  for (int i = 0; i < static_cast<int>(anchors_done); ++i) {
    result.matched_pairs += counts[i];
    for (int j : partners[i]) uf.Union(i, j);
  }
  std::map<int, int> root_to_id;
  result.cluster_ids.resize(n);
  for (int i = 0; i < n; ++i) {
    int root = uf.Find(i);
    auto [it, inserted] =
        root_to_id.emplace(root, static_cast<int>(root_to_id.size()));
    result.cluster_ids[i] = it->second;
  }
  result.num_clusters = static_cast<int>(root_to_id.size());
  if (anchors_done < n) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), anchors_done,
                              n);
  } else {
    RunContext::MarkComplete(ctx, anchors_done);
  }
  return result;
}

Result<Relation> MdMatcher::Apply(const Relation& relation,
                                  const MatchResult& match) const {
  if (static_cast<int>(match.cluster_ids.size()) != relation.num_rows()) {
    return Status::Invalid("match result does not fit the relation");
  }
  Relation out = relation;
  // Rows per cluster.
  std::map<int, std::vector<int>> clusters;
  for (int i = 0; i < relation.num_rows(); ++i) {
    clusters[match.cluster_ids[i]].push_back(i);
  }
  AttrSet identify;
  for (const Md& md : rules_) identify = identify.Union(md.rhs());
  for (const auto& [id, rows] : clusters) {
    if (rows.size() < 2) continue;
    for (int col : identify.ToVector()) {
      // Plurality value within the cluster.
      std::vector<std::pair<Value, int>> counts;
      for (int r : rows) {
        const Value& v = out.Get(r, col);
        bool found = false;
        for (auto& [val, cnt] : counts) {
          if (val == v) {
            ++cnt;
            found = true;
            break;
          }
        }
        if (!found) counts.push_back({v, 1});
      }
      Value target;
      int best = 0;
      for (const auto& [val, cnt] : counts) {
        if (cnt > best) {
          best = cnt;
          target = val;
        }
      }
      for (int r : rows) out.Set(r, col, target);
    }
  }
  return out;
}

ClusterScore ScoreClusters(const std::vector<int>& predicted,
                           const std::vector<int>& truth) {
  ClusterScore score;
  if (predicted.size() != truth.size() || predicted.empty()) return score;
  int n = static_cast<int>(predicted.size());
  int64_t tp = 0, fp = 0, fn = 0;
  for (int i = 0; i + 1 < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      bool same_pred = predicted[i] == predicted[j];
      bool same_true = truth[i] == truth[j];
      if (same_pred && same_true) ++tp;
      if (same_pred && !same_true) ++fp;
      if (!same_pred && same_true) ++fn;
    }
  }
  score.pairwise_precision =
      (tp + fp) == 0 ? 1.0 : static_cast<double>(tp) / (tp + fp);
  score.pairwise_recall =
      (tp + fn) == 0 ? 1.0 : static_cast<double>(tp) / (tp + fn);
  double p = score.pairwise_precision, r = score.pairwise_recall;
  score.f1 = (p + r) == 0 ? 0.0 : 2 * p * r / (p + r);
  return score;
}

}  // namespace famtree
