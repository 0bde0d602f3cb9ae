#ifndef FAMTREE_DISCOVERY_HYBRID_HYBRID_FD_H_
#define FAMTREE_DISCOVERY_HYBRID_HYBRID_FD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "discovery/tane.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

/// Observability counters of one hybrid run (EXPERIMENTS.md records these:
/// sampling efficiency is new_agree_sets / sampled_pairs, and
/// frontier_checks is what the hybrid saves against a full lattice level).
struct HybridFdStats {
  int64_t sampling_passes = 0;
  int64_t sampled_pairs = 0;
  int64_t sampled_agree_sets = 0;   // distinct, from sampling
  int64_t feedback_agree_sets = 0;  // distinct, from validator violations
  int64_t frontier_checks = 0;      // (lhs, rhs) validations across levels
  int64_t frontier_violations = 0;  // invalid ones among them
};

struct HybridFdOptions {
  /// Lattice levels to explore (LHS size cap) — TANE's bound, so the two
  /// engines discover the identical minimal cover.
  int max_lhs_size = 5;
  /// Safety valve on emitted dependencies.
  int max_results = 100000;
  /// Sampling floor: an attribute whose last window pass produced fewer new
  /// agree sets per compared pair stops being focused (HyFD's efficiency
  /// threshold). Lower means more sampling and fewer validator round
  /// trips; the output is identical at any value.
  double min_efficiency = 0.01;
  /// Optional engine hooks (see src/engine/): pool parallelizes frontier
  /// validation, cache serves the PLIs (and lends its encoding).
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits; the driver check-points per sampling pass and per
  /// frontier level, charges at the "hybrid_sample" / "hybrid_validate"
  /// sites, and on a stop returns the FDs of the fully validated levels —
  /// a deterministic prefix at any thread count.
  RunContext* context = nullptr;
  /// Optional run counters.
  HybridFdStats* stats = nullptr;
};

/// Hybrid sampling + induction FD discovery (FDep / HyFD architecture over
/// this repo's cover tree, sampler, and frontier validator): sample tuple
/// pairs into a negative cover of agree sets, induct the minimal positive
/// cover, then validate only the cover frontier level by level against
/// PLIs, feeding each violation back as a new sample until the frontier is
/// clean. Emits exactly the minimal exact FDs with |lhs| <= max_lhs_size —
/// bit-identical, as a set, to DiscoverFdsTane at max_error 0 (the
/// differential suite asserts this; hybrid output comes out sorted by
/// (|lhs|, lhs.mask, rhs)). Always runs on the encoded columnar substrate.
Result<std::vector<DiscoveredFd>> DiscoverFdsHybrid(
    const Relation& relation, const HybridFdOptions& options = {});

/// Cache-only entry: runs the hybrid against whatever backend `cache`
/// serves, including the out-of-core ShardedEncodedRelation backend with
/// no materialized Relation. The sampler's cluster windows read flat code
/// arrays, so the encoding is materialized first when absent
/// (PliCache::EnsureEncoded — charged at "ingest_codes" with shard-spill
/// fallback); the frontier's PLIs still stream out of the spill-merged
/// runs. `options.cache` is overwritten with `cache`; in-memory caches
/// produce output bit-identical to the Relation entry.
Result<std::vector<DiscoveredFd>> DiscoverFdsHybrid(
    PliCache* cache, const HybridFdOptions& options = {});

/// Incremental cover repair after a batch append: re-validates a
/// previously discovered cover and specializes only the FDs the appended
/// rows broke, skipping the sampling stage entirely. `cover` must be the
/// complete minimal *exact* cover of a prefix of `relation` at the same
/// max_lhs_size — appends only break exact FDs, so every minimal FD of the
/// grown relation specializes a seed FD and the repair output is
/// bit-identical, as a sorted set, to a cold DiscoverFdsHybrid of the grown
/// relation. (Approximate covers are not repairable this way: g3 validity
/// is not monotone under appends.)
///
/// With `options.cache`, every completed hybrid run (either entry, either
/// backend) records its emitted cover, LHS cap and row count m in the
/// cache (PliCache::fd_cover_memo). A seed equal to that record as a
/// sorted (lhs, rhs) set, at the same max_lhs_size, held on rows [0, m),
/// and so does every specialization of it; the frontier is then checked
/// only on pairs holding a row of [m, n), against the suspect rows' leaf
/// classes (FrontierValidator), with no multi-attribute PLI rebuilt —
/// O(batch × class size) rather than O(rows) per frontier FD. Any other
/// seed is checked against PLIs. The choice depends on the input alone,
/// and so does the output.
Result<std::vector<DiscoveredFd>> RepairFdCover(
    const Relation& relation, const std::vector<DiscoveredFd>& cover,
    const HybridFdOptions& options = {});

/// Cache-backed repair, including the out-of-core backend: pairs with
/// PliCache::MaintainAppend, which advances the PLIs the frontier
/// validates against.
Result<std::vector<DiscoveredFd>> RepairFdCover(
    PliCache* cache, const std::vector<DiscoveredFd>& cover,
    const HybridFdOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_HYBRID_HYBRID_FD_H_
