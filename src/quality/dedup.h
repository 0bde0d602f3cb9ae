#ifndef FAMTREE_QUALITY_DEDUP_H_
#define FAMTREE_QUALITY_DEDUP_H_

#include <vector>

#include "common/status.h"
#include "deps/md.h"
#include "quality/quality_options.h"
#include "relation/relation.h"

namespace famtree {

/// Result of record matching: a cluster id per row (rows believed to
/// denote the same real-world entity share an id).
struct MatchResult {
  std::vector<int> cluster_ids;
  int num_clusters = 0;
  /// Pairs merged by the MD rules.
  int64_t matched_pairs = 0;
};

/// The record-matching / deduplication application of MDs (Section 3.7.4,
/// Table 3): tuples similar on the LHS of any given MD are identified;
/// identification is closed transitively (union-find).
class MdMatcher {
 public:
  explicit MdMatcher(std::vector<Md> rules) : rules_(std::move(rules)) {}

  Result<MatchResult> Match(const Relation& relation) const;

  /// Fast-path overload: the O(rows^2 x rules) similarity scan runs over
  /// per-predicate code-pair distance tables and fans out per anchor row;
  /// the union-find merges replay serially. The cluster partition is
  /// order-independent and ids are densified in row order, so the result
  /// is identical to the plain overload at any thread count.
  Result<MatchResult> Match(const Relation& relation,
                            const QualityOptions& options) const;

  /// Applies the matching: for each cluster, RHS attributes of every MD
  /// are normalized to the cluster plurality value (the "identify" step).
  Result<Relation> Apply(const Relation& relation,
                         const MatchResult& match) const;

 private:
  std::vector<Md> rules_;
};

/// Pairwise clustering quality against ground-truth entity ids.
struct ClusterScore {
  double pairwise_precision = 1.0;
  double pairwise_recall = 1.0;
  double f1 = 1.0;
};

ClusterScore ScoreClusters(const std::vector<int>& predicted,
                           const std::vector<int>& truth);

}  // namespace famtree

#endif  // FAMTREE_QUALITY_DEDUP_H_
