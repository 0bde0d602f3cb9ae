#ifndef FAMTREE_DISCOVERY_DISCOVERY_UTIL_H_
#define FAMTREE_DISCOVERY_DISCOVERY_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "engine/pli_cache.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {

/// Resolves the encoded columnar substrate every miner and quality
/// application runs on: borrowed from the attached PliCache when one is
/// present (it encodes once per relation), built locally otherwise.
/// `*local` keeps a locally built encoding alive for the caller's scope.
/// Never returns nullptr; errors when the cache serves a different
/// relation.
inline Result<const EncodedRelation*> ResolveEncoding(
    const Relation& relation, PliCache* cache,
    std::unique_ptr<EncodedRelation>* local) {
  if (cache != nullptr && cache->relation_or_null() != &relation) {
    return Status::Invalid("PliCache serves a different relation");
  }
  if (cache != nullptr) return &cache->encoded();
  *local = std::make_unique<EncodedRelation>(relation);
  return static_cast<const EncodedRelation*>(local->get());
}

/// True when any dictionary entry of `attr` is a non-finite double. NED
/// discovery's `d > threshold` tests (Ned's pair semantics) treat a NaN
/// distance as agreeing while a threshold-bucket index treats it as beyond
/// every threshold, so its evidence-kernel path steps aside for the
/// (pathological) inputs that can produce one: NaN cells (absdiff of NaN
/// operands) and +/-inf cells (|inf - inf| on a same-code diagonal).
inline bool DictHasNonFiniteDouble(const EncodedRelation& enc, int attr) {
  for (int code = 0; code < enc.dict_size(attr); ++code) {
    const Value& v = enc.Decode(attr, code);
    if (v.type() == ValueType::kDouble && !std::isfinite(v.as_double())) {
      return true;
    }
  }
  return false;
}

/// True when any dictionary entry of `attr` is a NaN. Under Value's
/// comparison a NaN is neither less than, greater than nor equal to any
/// numeric, which an order facet's rank trit cannot represent (distinct
/// codes always read < or >), so the kernel paths that read order facets
/// (FASTDC, the violation detector) step aside for such columns.
inline bool DictHasNan(const EncodedRelation& enc, int attr) {
  for (int code = 0; code < enc.dict_size(attr); ++code) {
    const Value& v = enc.Decode(attr, code);
    if (v.type() == ValueType::kDouble && std::isnan(v.as_double())) {
      return true;
    }
  }
  return false;
}

/// Counting sort of the rows by a column's rank (CodeRanks) — stable, so it
/// matches Sd::SortedOrder's std::stable_sort of the rows by SortsBefore.
inline std::vector<int> SortedRowOrder(const EncodedRelation& enc, int col,
                                       const std::vector<uint32_t>& rank) {
  const std::vector<uint32_t>& codes = enc.codes(col);
  int k = enc.dict_size(col);
  std::vector<int> offset(k + 1, 0);
  for (uint32_t c : codes) ++offset[rank[c] + 1];
  for (int i = 0; i < k; ++i) offset[i + 1] += offset[i];
  std::vector<int> order(codes.size());
  for (size_t row = 0; row < codes.size(); ++row) {
    order[offset[rank[codes[row]]]++] = static_cast<int>(row);
  }
  return order;
}

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_DISCOVERY_UTIL_H_
