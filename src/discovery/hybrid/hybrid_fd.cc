#include "discovery/hybrid/hybrid_fd.h"

#include <memory>
#include <utility>

#include "common/run_context.h"
#include "discovery/discovery_util.h"
#include "discovery/hybrid/cover.h"
#include "discovery/hybrid/fd_tree.h"
#include "discovery/hybrid/sampler.h"
#include "discovery/hybrid/validator.h"
#include "engine/pli_cache.h"

namespace famtree {

namespace {

/// Feeds one violating agree set through the negative cover and, when it is
/// new and maximal there, specializes the positive cover for every rhs the
/// set violates (attributes outside the agree set).
void InductAgreeSet(AttrSet agree, int nc, int max_lhs_size,
                    NegativeCover* negative, Inductor* inductor,
                    std::vector<AttrSet>* ext_scratch) {
  auto keep = [max_lhs_size](AttrSet s) { return s.size() <= max_lhs_size; };
  const AttrSet outside = AttrSet::Full(nc).Minus(agree);
  for (int rhs : outside) {
    if (!negative->AddMaximal(agree, rhs)) continue;
    ext_scratch->clear();
    for (int b : outside) {
      if (b != rhs) ext_scratch->push_back(AttrSet::Single(b));
    }
    inductor->SpecializeAgainst(agree, rhs, *ext_scratch, keep);
  }
}

/// The shared run behind both public entries. `relation` is nullptr for
/// the cache-only (out-of-core) entry, in which case `options.cache` is
/// guaranteed non-null and the encoding comes out of the cache.
///
/// `seed_cover`, when non-null, replaces the sampling stage: the positive
/// cover is planted from a previously discovered minimal cover instead of
/// the top of the lattice, and only the frontier validation runs. Sound
/// exactly when the seed is the complete minimal exact cover (same
/// max_lhs_size) of a *prefix* of the relation: appending rows only breaks
/// exact FDs — every minimal FD of the appended relation specializes some
/// seed FD — so re-validating the seed frontier and feeding violations
/// through the standard inductor repairs the cover to bit-parity with a
/// cold run. (Exact FDs only: approximate g3 validity is not monotone
/// under appends.)
Result<std::vector<DiscoveredFd>> DiscoverFdsHybridImpl(
    const Relation* relation, const HybridFdOptions& options,
    const std::vector<DiscoveredFd>* seed_cover = nullptr) {
  int nc = relation != nullptr ? relation->num_columns()
                               : options.cache->num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "hybrid FD discovery"));
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "hybrid_fd");
  // Units: the sampling stage plus one per frontier level; a stop returns
  // the FDs of the fully validated levels.
  int max_lhs_size = options.max_lhs_size < 0 ? 0 : options.max_lhs_size;
  int64_t total_units = 1 + (max_lhs_size + 1);
  std::vector<DiscoveredFd> out;
  if (nc == 0) {
    RunContext::MarkComplete(ctx, total_units);
    return out;
  }

  auto exhausted = [&](const Status& stop, int64_t completed) {
    RunContext::MarkExhausted(ctx, stop, completed, total_units);
    return out;
  };

  std::unique_ptr<EncodedRelation> local_encoding;
  const EncodedRelation* encoded = nullptr;
  if (relation != nullptr) {
    FAMTREE_ASSIGN_OR_RETURN(
        encoded, ResolveEncoding(*relation, options.cache, &local_encoding));
  } else {
    // Out-of-core: the sampler needs flat code arrays, so materialize them
    // from the shards (charged with shard-spill fallback). A budget stop
    // here is an ordinary anytime exit with zero completed units.
    Status st = options.cache->EnsureEncoded(ctx);
    if (RunContext::IsStop(st)) return exhausted(st, 0);
    FAMTREE_RETURN_NOT_OK(st);
    encoded = options.cache->encoded_or_null();
  }

  // --- Stage 1: sampling into the negative cover. -----------------------
  // A seeded (cover-repair) run skips sampling: the seed already is the
  // induction of every agree set that matters for the prefix, and the
  // frontier's violation feedback supplies the appended rows' agree sets.
  // The sampler is still built — AgreeSetOf/MarkSeen serve the feedback.
  Result<std::unique_ptr<HybridSampler>> sampler_result =
      HybridSampler::Make(*encoded, options.cache, options.pool, ctx);
  if (!sampler_result.ok() && RunContext::IsStop(sampler_result.status())) {
    return exhausted(sampler_result.status(), 0);
  }
  FAMTREE_ASSIGN_OR_RETURN(std::unique_ptr<HybridSampler> sampler,
                           std::move(sampler_result));
  std::vector<AttrSet> agree_sets;
  if (seed_cover == nullptr) {
    HybridSampler::Stats sampling_stats;
    Status sampled = sampler->SampleRounds(options.min_efficiency, &agree_sets,
                                           &sampling_stats);
    if (RunContext::IsStop(sampled)) return exhausted(sampled, 0);
    FAMTREE_RETURN_NOT_OK(sampled);
    if (options.stats != nullptr) {
      options.stats->sampling_passes = sampling_stats.passes;
      options.stats->sampled_pairs = sampling_stats.sampled_pairs;
      options.stats->sampled_agree_sets = sampling_stats.new_agree_sets;
    }
  }

  // --- Stage 2: induct (or plant) the positive cover. -------------------
  FdTree positive(nc);
  NegativeCover negative(nc);
  Inductor inductor(&positive);
  std::vector<AttrSet> ext_scratch;
  if (seed_cover != nullptr) {
    for (const DiscoveredFd& fd : *seed_cover) {
      if (fd.lhs.size() > max_lhs_size || fd.rhs < 0 || fd.rhs >= nc ||
          fd.lhs.Contains(fd.rhs)) {
        return Status::Invalid("cover repair: seed FD outside the lattice");
      }
      positive.Add(fd.lhs, fd.rhs);
    }
  } else {
    for (int a = 0; a < nc; ++a) positive.Add(AttrSet(), a);
    for (AttrSet agree : agree_sets) {
      InductAgreeSet(agree, nc, max_lhs_size, &negative, &inductor,
                     &ext_scratch);
    }
  }

  // --- Stage 3: validate the frontier level by level, feeding violations
  // back until the last level's frontier is clean. -----------------------
  FrontierValidator validator(*encoded, options.cache, options.pool, ctx);
  std::vector<FdTree::Entry> entries;
  std::vector<FrontierValidator::EntryResult> results;
  FrontierValidator::LevelStats level_stats;
  int64_t completed_units = 1;  // the sampling stage
  for (int level = 0; level <= max_lhs_size; ++level) {
    Status barrier = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(barrier)) return exhausted(barrier, completed_units);
    FAMTREE_RETURN_NOT_OK(barrier);
    Status validated =
        validator.ValidateLevel(positive, level, &entries, &results,
                                &level_stats);
    if (RunContext::IsStop(validated)) {
      return exhausted(validated, completed_units);
    }
    FAMTREE_RETURN_NOT_OK(validated);
    // Serial replay in (lhs.mask, rhs) order: valid entries are emitted
    // (and thereby frozen — a valid lhs can never be the subset of a later
    // violating agree set, so induction never removes it); invalid ones
    // feed their violating pair's agree set back through the inductor,
    // which removes them and plants specializations on deeper levels.
    for (size_t e = 0; e < entries.size(); ++e) {
      for (int a : results[e].valid_rhs) {
        out.push_back(DiscoveredFd{entries[e].lhs, a, 0.0});
        if (static_cast<int>(out.size()) >= options.max_results) {
          RunContext::MarkComplete(ctx, completed_units);
          return out;
        }
      }
      for (const FrontierValidator::Violation& v : results[e].violations) {
        AttrSet agree = sampler->AgreeSetOf(v.row_i, v.row_j);
        if (!sampler->MarkSeen(agree)) continue;  // proven no-op
        if (options.stats != nullptr) ++options.stats->feedback_agree_sets;
        InductAgreeSet(agree, nc, max_lhs_size, &negative, &inductor,
                       &ext_scratch);
      }
    }
    ++completed_units;
  }
  if (options.stats != nullptr) {
    options.stats->frontier_checks = level_stats.checks;
    options.stats->frontier_violations = level_stats.violations;
  }
  RunContext::MarkComplete(ctx, total_units);
  return out;
}

}  // namespace

Result<std::vector<DiscoveredFd>> DiscoverFdsHybrid(
    const Relation& relation, const HybridFdOptions& options) {
  return DiscoverFdsHybridImpl(&relation, options);
}

Result<std::vector<DiscoveredFd>> DiscoverFdsHybrid(
    PliCache* cache, const HybridFdOptions& options) {
  if (cache == nullptr) {
    return Status::Invalid("cache-only hybrid FD discovery requires a PliCache");
  }
  HybridFdOptions opts = options;
  opts.cache = cache;
  return DiscoverFdsHybridImpl(cache->relation_or_null(), opts);
}

Result<std::vector<DiscoveredFd>> RepairFdCover(
    const Relation& relation, const std::vector<DiscoveredFd>& cover,
    const HybridFdOptions& options) {
  return DiscoverFdsHybridImpl(&relation, options, &cover);
}

Result<std::vector<DiscoveredFd>> RepairFdCover(
    PliCache* cache, const std::vector<DiscoveredFd>& cover,
    const HybridFdOptions& options) {
  if (cache == nullptr) {
    return Status::Invalid("cover repair requires a PliCache");
  }
  HybridFdOptions opts = options;
  opts.cache = cache;
  return DiscoverFdsHybridImpl(cache->relation_or_null(), opts, &cover);
}

}  // namespace famtree
