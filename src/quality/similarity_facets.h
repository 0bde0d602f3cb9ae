#ifndef FAMTREE_QUALITY_SIMILARITY_FACETS_H_
#define FAMTREE_QUALITY_SIMILARITY_FACETS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "deps/md.h"
#include "engine/evidence.h"

namespace famtree {

/// A conjunction of "bucket <= k" tests over one comparison word. Each
/// check reads its facet's bucket field in place: bucket <= k exactly when
/// (lane & mask) <= k << shift.
struct SimilarityTest {
  struct Check {
    int lane = 0;
    uint64_t mask = 0;
    uint64_t bound = 0;
  };
  std::vector<Check> checks;

  /// out[k] = whether the test holds on word k of a lane-major strip of
  /// `count` words (lane l of word k at words[l * count + k]). One check at
  /// a time over the whole strip, branch-free: pair walks feed it words
  /// whose outcome is data-dependent, where an early exit mispredicts.
  void Holds(const uint64_t* words, int count, uint8_t* out) const {
    std::fill(out, out + count, 1);
    for (const Check& c : checks) {
      const uint64_t* lane = words + static_cast<size_t>(c.lane) * count;
      for (int k = 0; k < count; ++k) out[k] &= (lane[k] & c.mask) <= c.bound;
    }
  }
};

/// MD similarity predicates compiled onto shared threshold-bucket facets:
/// one EvidenceColumn (no comparison facet) per distinct (attr, metric)
/// across every registered predicate, carrying the sorted, unique
/// thresholds. A predicate `d <= t_k` then reads as "bucket <= k" of its
/// facet — buckets are the smallest j with d <= t_j, so the test is exact,
/// and a NaN distance lands beyond every threshold, dissimilar as under
/// `<=`. A rule set therefore fills one bucket table per (attr, metric),
/// not one per rule and predicate, and one comparison word answers every
/// rule. The violation detector and the dedup matcher compile their MDs
/// through this.
class SimilarityFacets {
 public:
  /// Registers the thresholds of `lhs`, which must not be NaN (a NaN has no
  /// place in a sorted list; such a predicate matches no pair, so callers
  /// drop its rule first).
  void Add(const std::vector<SimilarityPredicate>& lhs);

  /// One facet per distinct (attr, metric), in first-registration order.
  const std::vector<EvidenceColumn>& columns() const { return columns_; }

  /// Index into columns() of the facet serving `p` (registered), or -1.
  int FacetOf(const SimilarityPredicate& p) const;

  /// The test of a registered `lhs` over a word whose layout starts with
  /// columns(), in order.
  SimilarityTest Compile(
      const std::vector<SimilarityPredicate>& lhs,
      const std::vector<EvidenceSet::ColumnLayout>& layout) const;

 private:
  std::vector<EvidenceColumn> columns_;
};

}  // namespace famtree

#endif  // FAMTREE_QUALITY_SIMILARITY_FACETS_H_
