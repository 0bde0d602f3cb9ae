#ifndef FAMTREE_DISCOVERY_MD_SETUP_H_
#define FAMTREE_DISCOVERY_MD_SETUP_H_

// Internal to the MD miners (md_discovery.cc, hybrid/hybrid_md.cc): the
// setup both build identically, so their candidate order, supports and
// confidences agree bit for bit.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "deps/md.h"
#include "discovery/md_discovery.h"
#include "engine/evidence.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {

namespace md_internal {

/// The inputs every MD candidate evaluation reads. Not movable: `sample`
/// may point at `sampled`.
struct MdSetup {
  MdSetup() = default;
  MdSetup(const MdSetup&) = delete;
  MdSetup& operator=(const MdSetup&) = delete;

  AttrSet rhs;
  /// The first `sample_rows` tuples when sampling; `sample` points here or
  /// at the input relation.
  Relation sampled;
  const Relation* sample = nullptr;
  std::unique_ptr<EncodedRelation> local_encoding;
  const EncodedRelation* encoded = nullptr;
  /// `sample`'s evidence-store key (EvidenceKeyFingerprint).
  uint64_t fingerprint = 0;
  /// Per non-RHS attribute: its default metric and its sorted-unique
  /// thresholds (the evidence bucket axis).
  std::vector<MetricPtr> metrics;
  std::vector<std::vector<double>> attr_th;
  /// LHS candidate sets (one or two predicates on distinct attributes) in
  /// evaluation order, and each predicate as (config column, bucket index).
  std::vector<std::vector<SimilarityPredicate>> lhs_sets;
  std::vector<std::vector<std::pair<int, int>>> lhs_buckets;
  /// Evidence columns: a threshold-bucket facet per non-RHS attribute
  /// (`cfg_of` maps attribute -> column, -1 for the RHS), then one
  /// equality bit per RHS attribute (`rhs_cols`).
  std::vector<EvidenceColumn> config;
  std::vector<int> cfg_of;
  std::vector<int> rhs_cols;
};

/// Validates the RHS, takes the sample, resolves its encoding (the cache's
/// only when not sampling) and fills everything but the tables.
Status Prepare(const Relation& relation, AttrSet rhs,
               const MdDiscoveryOptions& options, MdSetup* setup);

/// DiscoverMds on a prepared setup: begins the "mds" run, then folds each
/// candidate's stats over the evidence words and replays the filters.
Result<std::vector<DiscoveredMd>> Mine(MdSetup* setup,
                                       const MdDiscoveryOptions& options);

/// The support / confidence / RCK-minimality filters over the completed
/// candidate prefix, in candidate order; marks the run complete or
/// exhausted.
std::vector<DiscoveredMd> Replay(MdSetup* setup,
                                 const std::vector<Md::Stats>& stats,
                                 int64_t candidates_done,
                                 const MdDiscoveryOptions& options);

}  // namespace md_internal
}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_MD_SETUP_H_
