#ifndef FAMTREE_DISCOVERY_HYBRID_HYBRID_MD_H_
#define FAMTREE_DISCOVERY_HYBRID_HYBRID_MD_H_

#include <cstdint>
#include <vector>

#include "common/attr_set.h"
#include "common/status.h"
#include "discovery/md_discovery.h"
#include "relation/relation.h"

namespace famtree {

/// Observability counters of one hybrid MD run. `used_cover_tree` is false
/// when the run fell back to the lattice miner (approximate confidence
/// bound, or more predicate bits than kMaxAttrs).
struct HybridMdStats {
  bool used_cover_tree = false;
  int64_t predicate_bits = 0;
  int64_t evidence_words = 0;
  int64_t violating_words = 0;
  int64_t negative_cover_size = 0;
  int64_t positive_cover_size = 0;
  int64_t candidates = 0;
  int64_t valid_candidates = 0;
};

/// MD discovery through the shared hybrid cover tree — the second consumer
/// of src/discovery/hybrid/, proving the machinery is generic over what a
/// bit means. Bits here are similarity predicates, one per (attribute,
/// threshold index), upward-closed per attribute: a candidate LHS maps to
/// the closure of its predicate bits, a non-identified evidence word maps
/// to the (upward-closed) set of predicates it satisfies, and plain
/// subset tests on those bitsets answer MD generalization exactly. The
/// negative cover collects the maximal violating sets, induction maintains
/// the minimal positive cover, and a candidate has confidence 1 iff the
/// cover contains one of its generalizations — no per-candidate
/// identification folds needed; the evidence multiset is the complete pair
/// universe, so no PLI validation loop is needed either.
///
/// Semantics: bit-identical output (MDs, supports, confidences, order) to
/// DiscoverMds for runs whose min_confidence is exactly 1.0; any other
/// confidence bound delegates to DiscoverMds, and inputs beyond the
/// evidence word or the cover tree's capacity run DiscoverMds' candidate
/// evaluation on the shared setup (discovery/md_setup.h), so this entry
/// point is always safe to call.
/// RunContext-aware at the "hybrid_sample" (evidence-word induction) and
/// "hybrid_validate" (candidate stats) sites; anytime prefixes mirror
/// DiscoverMds' per-candidate units.
Result<std::vector<DiscoveredMd>> DiscoverMdsHybrid(
    const Relation& relation, AttrSet rhs,
    const MdDiscoveryOptions& options = {}, HybridMdStats* stats = nullptr);

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_HYBRID_HYBRID_MD_H_
