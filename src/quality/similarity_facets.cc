#include "quality/similarity_facets.h"

#include <algorithm>

namespace famtree {

void SimilarityFacets::Add(const std::vector<SimilarityPredicate>& lhs) {
  for (const SimilarityPredicate& p : lhs) {
    int f = FacetOf(p);
    if (f < 0) {
      EvidenceColumn col;
      col.attr = p.attr;
      col.cmp = EvidenceColumn::Cmp::kNone;
      col.metric = p.metric;
      columns_.push_back(std::move(col));
      f = static_cast<int>(columns_.size()) - 1;
    }
    std::vector<double>& t = columns_[f].thresholds;
    auto it = std::lower_bound(t.begin(), t.end(), p.threshold);
    if (it == t.end() || *it != p.threshold) t.insert(it, p.threshold);
  }
}

int SimilarityFacets::FacetOf(const SimilarityPredicate& p) const {
  for (size_t f = 0; f < columns_.size(); ++f) {
    if (columns_[f].attr == p.attr && columns_[f].metric == p.metric) {
      return static_cast<int>(f);
    }
  }
  return -1;
}

SimilarityTest SimilarityFacets::Compile(
    const std::vector<SimilarityPredicate>& lhs,
    const std::vector<EvidenceSet::ColumnLayout>& layout) const {
  SimilarityTest test;
  for (const SimilarityPredicate& p : lhs) {
    int f = FacetOf(p);
    const std::vector<double>& t = columns_[f].thresholds;
    uint64_t k = static_cast<uint64_t>(
        std::lower_bound(t.begin(), t.end(), p.threshold) - t.begin());
    test.checks.push_back(SimilarityTest::Check{
        layout[f].lane, layout[f].bucket_mask(), k << layout[f].bucket_shift});
  }
  return test;
}

}  // namespace famtree
