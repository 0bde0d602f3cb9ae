#include "engine/engine.h"

#include <algorithm>

#include "relation/relation.h"

namespace famtree {

DiscoveryEngine::DiscoveryEngine(EngineOptions options)
    : options_(options),
      pool_(options.num_threads),
      evidence_(EvidenceCache::Options{options.evidence_max_bytes}) {}

Result<PliCache*> DiscoveryEngine::CacheFor(const Relation& relation) {
  // Fingerprint outside the lock: it folds only the rows past the
  // relation's fingerprint chain — O(schema) for a relation grown through
  // AppendRows, one pass over every cell for one that never was — and it
  // must not serialize other lookups.
  uint64_t fp = RelationFingerprint(relation);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<PliCache>& slot = caches_[&relation];
  if (slot == nullptr) {
    PliCache::Options cache_options;
    cache_options.max_bytes = options_.cache_max_bytes;
    slot = std::make_unique<PliCache>(relation, cache_options);
  } else if (slot->fingerprint() != fp) {
    return Status::Invalid(
        "relation at a remembered address has different content (freed and "
        "reallocated without ForgetRelation?); refusing to serve the stale "
        "PLI store");
  }
  return slot.get();
}

void DiscoveryEngine::ForgetRelation(const Relation& relation) {
  std::unique_ptr<PliCache> owned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = caches_.find(&relation);
    if (it == caches_.end()) return;
    owned = std::move(it->second);
    caches_.erase(it);
  }
  // Evidence entries are keyed by the encoding's content fingerprint, so a
  // *different* relation can never hit them — but the same bytes
  // reappearing after the caller mutated and re-ingested this relation
  // would, and the forget contract promises a clean slate. Hash outside
  // the engine lock (O(data)).
  if (const EncodedRelation* encoded = owned->encoded_or_null()) {
    evidence_.EraseFingerprint(EncodingFingerprint(*encoded));
  }
}

Result<PliCache*> DiscoveryEngine::OocCacheFor(
    const ShardedEncodedRelation& sharded) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<PliCache>& slot = ooc_caches_[&sharded];
  if (slot == nullptr) {
    PliCache::Options cache_options;
    cache_options.max_bytes = options_.cache_max_bytes;
    slot = std::make_unique<PliCache>(sharded, cache_options);
  } else if (slot->fingerprint() != sharded.fingerprint()) {
    return Status::Invalid(
        "sharded relation at a remembered address has different content "
        "(freed and reallocated without ForgetSharded?); refusing to serve "
        "the stale PLI store");
  }
  return slot.get();
}

void DiscoveryEngine::ForgetSharded(const ShardedEncodedRelation& sharded) {
  std::unique_ptr<PliCache> owned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ooc_caches_.find(&sharded);
    if (it == ooc_caches_.end()) return;
    owned = std::move(it->second);
    ooc_caches_.erase(it);
  }
  if (const EncodedRelation* encoded = owned->encoded_or_null()) {
    evidence_.EraseFingerprint(EncodingFingerprint(*encoded));
  }
}

Status DiscoveryEngine::AppendRows(Relation& relation,
                                   std::vector<std::vector<Value>> rows,
                                   RunContext* ctx) {
  if (ctx == nullptr) ctx = default_context();
  PliCache* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = caches_.find(&relation);
    if (it != caches_.end()) slot = it->second.get();
  }
  if (slot == nullptr) return relation.AppendRows(std::move(rows));
  // Folds the rows not yet in the relation's fingerprint chain (all of
  // them on the first append, none afterwards): the check below, the
  // AppendRows that advances the chain over the batch, and every later
  // RelationFingerprint then cost O(schema).
  relation.AdvanceFingerprintChain();
  if (slot->fingerprint() != RelationFingerprint(relation)) {
    return Status::Invalid(
        "relation at a remembered address has different content; refusing "
        "to maintain the stale store (ForgetRelation first)");
  }
  const int old_rows = relation.num_rows();
  const uint64_t old_evidence_fp = EncodingFingerprint(slot->encoded());
  FAMTREE_RETURN_NOT_OK(relation.AppendRows(std::move(rows)));
  Status maintained = slot->MaintainAppend(ctx);
  if (maintained.ok()) {
    EvidenceOptions ev;
    ev.pool = &pool_;
    ev.context = ctx;
    ev.pli = slot;
    maintained =
        evidence_.MaintainAppend(slot->encoded(), old_evidence_fp, old_rows, ev);
  }
  if (!maintained.ok()) {
    // The appended rows are in; the cached state may be partial. Drop it —
    // the next driver call rebuilds cold — and surface the stop.
    ForgetRelation(relation);
    evidence_.EraseFingerprint(old_evidence_fp);
  }
  return maintained;
}

Status DiscoveryEngine::AppendCsv(ShardedEncodedRelation& sharded,
                                  const std::string& text,
                                  IngestOptions options) {
  RunContext* ctx =
      options.context != nullptr ? options.context : default_context();
  PliCache* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ooc_caches_.find(&sharded);
    if (it != ooc_caches_.end()) slot = it->second.get();
  }
  if (slot == nullptr) return sharded.AppendCsv(text, std::move(options));
  if (slot->fingerprint() != sharded.fingerprint()) {
    return Status::Invalid(
        "sharded relation at a remembered address has different content; "
        "refusing to maintain the stale store (ForgetSharded first)");
  }
  const int old_rows = sharded.num_rows();
  const EncodedRelation* old_encoded = slot->encoded_or_null();
  const uint64_t old_evidence_fp =
      old_encoded != nullptr ? EncodingFingerprint(*old_encoded) : 0;
  FAMTREE_RETURN_NOT_OK(sharded.AppendCsv(text, std::move(options)));
  Status maintained = slot->MaintainAppend(ctx);
  if (maintained.ok() && old_encoded != nullptr) {
    EvidenceOptions ev;
    ev.pool = &pool_;
    ev.context = ctx;
    ev.pli = slot;
    maintained =
        evidence_.MaintainAppend(slot->encoded(), old_evidence_fp, old_rows, ev);
  }
  if (!maintained.ok()) {
    ForgetSharded(sharded);
    if (old_encoded != nullptr) evidence_.EraseFingerprint(old_evidence_fp);
  }
  return maintained;
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::RepairFdCover(
    const Relation& relation, const std::vector<DiscoveredFd>& cover,
    HybridFdOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return famtree::RepairFdCover(relation, cover, options);
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::RepairFdCoverOutOfCore(
    const ShardedEncodedRelation& sharded,
    const std::vector<DiscoveredFd>& cover, HybridFdOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, OocCacheFor(sharded));
  return famtree::RepairFdCover(cache, cover, options);
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::Tane(
    const Relation& relation, TaneOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverFdsTane(relation, options);
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::FastFd(
    const Relation& relation, FastFdOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  return DiscoverFdsFastFd(relation, options);
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::HybridFds(
    const Relation& relation, HybridFdOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverFdsHybrid(relation, options);
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::TaneOutOfCore(
    const ShardedEncodedRelation& sharded, TaneOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, OocCacheFor(sharded));
  return DiscoverFdsTane(cache, options);
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::HybridFdsOutOfCore(
    const ShardedEncodedRelation& sharded, HybridFdOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, OocCacheFor(sharded));
  return DiscoverFdsHybrid(cache, options);
}

Result<std::vector<DiscoveredMd>> DiscoveryEngine::HybridMds(
    const Relation& relation, AttrSet rhs, MdDiscoveryOptions options) {
  options.pool = &pool_;
  options.evidence = &evidence_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverMdsHybrid(relation, rhs, options);
}

Result<std::vector<DiscoveredFd>> DiscoveryEngine::Fds(
    const Relation& relation, int max_lhs_size) {
  std::vector<DiscoveredFd> out;
  if (options_.use_hybrid) {
    HybridFdOptions hybrid;
    hybrid.max_lhs_size = max_lhs_size;
    FAMTREE_ASSIGN_OR_RETURN(out, HybridFds(relation, hybrid));
  } else {
    TaneOptions tane;
    tane.max_lhs_size = max_lhs_size;
    FAMTREE_ASSIGN_OR_RETURN(out, Tane(relation, tane));
  }
  std::sort(out.begin(), out.end(),
            [](const DiscoveredFd& a, const DiscoveredFd& b) {
              if (a.lhs.size() != b.lhs.size()) {
                return a.lhs.size() < b.lhs.size();
              }
              if (a.lhs != b.lhs) {
                return a.lhs < b.lhs;
              }
              return a.rhs < b.rhs;
            });
  return out;
}

Result<std::vector<DiscoveredDc>> DiscoveryEngine::FastDc(
    const Relation& relation, FastDcOptions options) {
  options.pool = &pool_;
  options.evidence = &evidence_;
  if (options.context == nullptr) options.context = default_context();
  return DiscoverDcs(relation, options);
}

Result<std::vector<DiscoveredSfd>> DiscoveryEngine::Cords(
    const Relation& relation, CordsOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  return DiscoverSfdsCords(relation, options);
}

Result<std::vector<DiscoveredCfd>> DiscoveryEngine::ConstantCfds(
    const Relation& relation, CfdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverConstantCfds(relation, options);
}

Result<std::vector<DiscoveredCfd>> DiscoveryEngine::GeneralCfds(
    const Relation& relation, CfdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverGeneralCfds(relation, options);
}

Result<std::vector<DiscoveredCfd>> DiscoveryEngine::GreedyTableau(
    const Relation& relation, AttrSet lhs, int rhs, int condition_attr,
    TableauOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return BuildGreedyTableau(relation, lhs, rhs, condition_attr, options);
}

Result<std::vector<DiscoveredOd>> DiscoveryEngine::UnaryOds(
    const Relation& relation, OdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverUnaryOds(relation, options);
}

Result<std::vector<DiscoveredMvd>> DiscoveryEngine::Mvds(
    const Relation& relation, MvdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverMvds(relation, options);
}

Result<std::vector<DiscoveredFhd>> DiscoveryEngine::Fhds(
    const Relation& relation, MvdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverFhds(relation, options);
}

Result<std::vector<DiscoveredPfd>> DiscoveryEngine::Pfds(
    const Relation& relation, PfdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverPfds(relation, options);
}

Result<std::vector<DiscoveredDd>> DiscoveryEngine::Dds(
    const Relation& relation, DdDiscoveryOptions options) {
  options.pool = &pool_;
  options.evidence = &evidence_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverDds(relation, options);
}

Result<std::vector<DiscoveredNed>> DiscoveryEngine::Neds(
    const Relation& relation, const Ned::Predicate& target,
    NedDiscoveryOptions options) {
  options.pool = &pool_;
  options.evidence = &evidence_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverNeds(relation, target, options);
}

Result<std::vector<DiscoveredMd>> DiscoveryEngine::Mds(
    const Relation& relation, AttrSet rhs, MdDiscoveryOptions options) {
  options.pool = &pool_;
  options.evidence = &evidence_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverMds(relation, rhs, options);
}

Result<std::vector<DiscoveredMfd>> DiscoveryEngine::Mfds(
    const Relation& relation, MfdDiscoveryOptions options) {
  options.pool = &pool_;
  options.evidence = &evidence_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverMfds(relation, options);
}

Result<DiscoveredSd> DiscoveryEngine::Sd(const Relation& relation,
                                         int order_attr, int target_attr,
                                         SdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverSd(relation, order_attr, target_attr, options);
}

Result<DiscoveredCsd> DiscoveryEngine::CsdTableau(const Relation& relation,
                                                  int order_attr,
                                                  int target_attr,
                                                  CsdDiscoveryOptions options) {
  options.pool = &pool_;
  if (options.context == nullptr) options.context = default_context();
  FAMTREE_ASSIGN_OR_RETURN(options.cache, CacheFor(relation));
  return DiscoverCsdTableau(relation, order_attr, target_attr, options);
}

namespace {

QualityOptions WireQuality(ThreadPool* pool, PliCache* cache,
                           RunContext* context) {
  QualityOptions options;
  options.pool = pool;
  options.cache = cache;
  options.context = context;
  return options;
}

}  // namespace

Result<RepairResult> DiscoveryEngine::RepairFds(const Relation& relation,
                                                const std::vector<Fd>& fds,
                                                int max_passes) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return RepairWithFds(relation, fds, max_passes,
                       WireQuality(&pool_, cache, default_context()));
}

Result<RepairResult> DiscoveryEngine::RepairCfds(const Relation& relation,
                                                 const std::vector<Cfd>& cfds,
                                                 int max_passes) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return RepairWithCfds(relation, cfds, max_passes,
                        WireQuality(&pool_, cache, default_context()));
}

Result<RepairResult> DiscoveryEngine::RepairHolistic(
    const Relation& relation, const std::vector<Dc>& dcs, int max_changes) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return RepairWithDcsHolistic(relation, dcs, max_changes,
                               WireQuality(&pool_, cache, default_context()));
}

Result<MatchResult> DiscoveryEngine::Match(const Relation& relation,
                                           std::vector<Md> rules) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  MdMatcher matcher(std::move(rules));
  return matcher.Match(relation,
                       WireQuality(&pool_, cache, default_context()));
}

Result<ImputeResult> DiscoveryEngine::Impute(const Relation& relation,
                                             const Ned& rule) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return ImputeWithNed(relation, rule,
                       WireQuality(&pool_, cache, default_context()));
}

Result<Relation> DiscoveryEngine::CertainAnswers(const Relation& relation,
                                                 const Fd& fd,
                                                 const SelectionQuery& query) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return famtree::CertainAnswers(relation, fd, query,
                                 WireQuality(&pool_, cache, default_context()));
}

Result<Relation> DiscoveryEngine::PossibleAnswers(
    const Relation& relation, const Fd& fd, const SelectionQuery& query) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return famtree::PossibleAnswers(
      relation, fd, query, WireQuality(&pool_, cache, default_context()));
}

Result<std::vector<Violation>> DiscoveryEngine::DetectSpeed(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return DetectSpeedViolations(relation, time_attr, value_attr, constraint,
                               WireQuality(&pool_, cache, default_context()));
}

Result<RepairResult> DiscoveryEngine::RepairSpeed(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  return RepairWithSpeedConstraint(
      relation, time_attr, value_attr, constraint,
      WireQuality(&pool_, cache, default_context()));
}

Result<DetectionSummary> DiscoveryEngine::Detect(
    const Relation& relation, std::vector<DependencyPtr> rules,
    int max_violations_per_rule) {
  FAMTREE_ASSIGN_OR_RETURN(PliCache * cache, CacheFor(relation));
  ViolationDetector detector(std::move(rules));
  return detector.Detect(relation, max_violations_per_rule, &pool_, cache,
                         default_context());
}

PliCache::Stats DiscoveryEngine::CacheStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PliCache::Stats total;
  auto fold = [&total](const PliCache& cache) {
    PliCache::Stats s = cache.stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.builds += s.builds;
    total.bytes += s.bytes;
    total.ooc_spill_bytes += s.ooc_spill_bytes;
  };
  for (const auto& [relation, cache] : caches_) fold(*cache);
  for (const auto& [sharded, cache] : ooc_caches_) fold(*cache);
  return total;
}

}  // namespace famtree
