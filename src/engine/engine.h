#ifndef FAMTREE_ENGINE_ENGINE_H_
#define FAMTREE_ENGINE_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "discovery/cfd_discovery.h"
#include "discovery/cords.h"
#include "discovery/dd_discovery.h"
#include "discovery/fastdc.h"
#include "discovery/fastfd.h"
#include "discovery/hybrid/hybrid_fd.h"
#include "discovery/hybrid/hybrid_md.h"
#include "discovery/md_discovery.h"
#include "discovery/metric_discovery.h"
#include "discovery/mvd_discovery.h"
#include "discovery/ned_discovery.h"
#include "discovery/od_discovery.h"
#include "discovery/pfd_discovery.h"
#include "discovery/sd_discovery.h"
#include "discovery/tane.h"
#include "engine/evidence_cache.h"
#include "engine/pli_cache.h"
#include "quality/cqa.h"
#include "quality/dedup.h"
#include "quality/detector.h"
#include "quality/holistic.h"
#include "quality/impute.h"
#include "quality/repair.h"
#include "quality/speed_clean.h"

namespace famtree {

struct EngineOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency.
  int num_threads = 0;
  /// Per-relation PLI cache budget (see PliCache::Options::max_bytes).
  size_t cache_max_bytes = 64ull << 20;
  /// Budget of the engine-wide evidence store (see
  /// EvidenceCache::Options::max_bytes). The store is content-addressed by
  /// relation fingerprint — the same address the PLI stores are checked
  /// against — so one store serves every relation, in memory or out of
  /// core.
  size_t evidence_max_bytes = 32ull << 20;
  /// Default run limits (deadline / cancellation / memory budget / fault
  /// injection) applied to every driver call that does not carry its own
  /// context in its per-call options. Borrowed; null means unlimited.
  RunContext* context = nullptr;
};

/// The parallel lattice engine: one thread pool plus one shared PLI store
/// per relation, serving every discovery algorithm and the violation
/// detector. The engine's drivers produce output bit-identical to the
/// serial free functions — the parallelism and the cache are pure
/// accelerations, which tests/engine_determinism_test.cc locks down across
/// thread counts {1, 2, 8}.
///
/// Typical use:
///   DiscoveryEngine engine;                     // hardware threads
///   auto fds = engine.Tane(relation);           // cached + parallel
///   auto dcs = engine.FastDc(relation);         // same pool
///   auto stats = engine.CacheStats();           // hits/misses/evictions
///
/// Relations are identified by address plus a content fingerprint: the
/// caller keeps a relation alive and at a stable address for as long as the
/// engine serves it, and a different relation showing up at a remembered
/// address (freed and reallocated without ForgetRelation) is rejected with
/// kInvalidArgument instead of silently reading the stale PLI store.
///
/// Every driver and quality application accepts a RunContext — per call via
/// its options struct, or engine-wide via EngineOptions::context. A run
/// whose deadline, cancellation, or memory budget fires degrades
/// gracefully: the driver returns the deterministic prefix of its results
/// computed so far and records the cutoff in the context's RunReport
/// (exhausted flag, completed/total units). With no limits set, behavior
/// and output are bit-identical to a context-free call.
class DiscoveryEngine {
 public:
  explicit DiscoveryEngine(EngineOptions options = {});

  ThreadPool& pool() { return pool_; }

  /// The shared PLI store for `relation`, created on first use. Returns
  /// kInvalidArgument when `relation`'s content fingerprint contradicts the
  /// store remembered for its address (stale-address hazard).
  Result<PliCache*> CacheFor(const Relation& relation);

  /// The shared PLI store for an out-of-core ingested relation, created on
  /// first use. Same stale-address protection as CacheFor, keyed on the
  /// sharded relation's ingest-time fingerprint (cheap: it was computed
  /// while the rows streamed through).
  Result<PliCache*> OocCacheFor(const ShardedEncodedRelation& sharded);

  /// The engine-wide evidence store serving every pairwise miner.
  EvidenceCache& evidence_cache() { return evidence_; }

  /// Drops the store of a relation that is going away, including every
  /// evidence-store entry keyed by its fingerprint — a later relation
  /// reallocated at the same address must never be served stale evidence.
  void ForgetRelation(const Relation& relation);

  /// Drops the store of an out-of-core relation that is going away, and
  /// the evidence-store entries keyed by its fingerprint.
  void ForgetSharded(const ShardedEncodedRelation& sharded);

  /// Batch-appends rows to `relation` and incrementally maintains every
  /// engine-cached structure built from it: the PLI store's partitions are
  /// delta-merged (PliCache::MaintainAppend), the encoding view advances,
  /// and cached evidence multisets absorb the new-pair delta
  /// (EvidenceCache::MaintainAppend) — all bit-identical to forgetting the
  /// relation and recomputing cold, at O(new pairs) instead of O(all
  /// pairs). With no store yet, this is just Relation::AppendRows.
  ///
  /// Single-writer: quiesce discovery on `relation` for the duration. On a
  /// maintenance failure (budget stop or injected fault) the appended rows
  /// stay in the relation but the engine forgets its cached state — the
  /// next driver call rebuilds cold — and the failure Status is returned.
  Status AppendRows(Relation& relation, std::vector<std::vector<Value>> rows,
                    RunContext* ctx = nullptr);

  /// Out-of-core analog: streams an append batch of CSV text into
  /// `sharded` (ShardedEncodedRelation::AppendCsv) and maintains the PLI
  /// store the same way. Evidence entries require a materialized encoding
  /// and are maintained only when one exists. Same failure contract as
  /// AppendRows.
  Status AppendCsv(ShardedEncodedRelation& sharded, const std::string& text,
                   IngestOptions options = {});

  /// Incremental FD cover repair after AppendRows: re-validates `cover`
  /// (the pre-append minimal exact cover at the same max_lhs_size),
  /// specializing only what the appended rows broke. When `cover` is the
  /// one the last completed hybrid run on this relation emitted, only
  /// pairs holding a row appended since are checked, against the
  /// maintained leaf PLIs (famtree::RepairFdCover); otherwise against the
  /// frontier's PLIs. Output bit-identical, as a sorted set, to a cold
  /// HybridFds / Tane of the grown relation.
  Result<std::vector<DiscoveredFd>> RepairFdCover(
      const Relation& relation, const std::vector<DiscoveredFd>& cover,
      HybridFdOptions options = {});

  /// Out-of-core cover repair after AppendCsv.
  Result<std::vector<DiscoveredFd>> RepairFdCoverOutOfCore(
      const ShardedEncodedRelation& sharded,
      const std::vector<DiscoveredFd>& cover, HybridFdOptions options = {});

  /// TANE with parallel lattice levels, served from the shared PLI store.
  Result<std::vector<DiscoveredFd>> Tane(const Relation& relation,
                                         TaneOptions options = {});

  /// FastFDs with chunked difference-set construction and concurrent
  /// per-RHS cover searches.
  Result<std::vector<DiscoveredFd>> FastFd(const Relation& relation,
                                           FastFdOptions options = {});

  /// Hybrid sampling + induction FD discovery (HyFD-style cover tree with
  /// frontier validation), served from the shared PLI store. Emits the
  /// same minimal exact cover as Tane at max_error 0.
  Result<std::vector<DiscoveredFd>> HybridFds(const Relation& relation,
                                              HybridFdOptions options = {});

  /// TANE over an out-of-core ingested relation: the lattice walk never
  /// materializes the full table — level-1 partitions stream out of
  /// per-shard spill-merged runs, products run on the flat CSR arrays, and
  /// (for exact discovery) no flat code arrays exist at any point. With the
  /// ingest's MemoryBudget on the RunContext, budget pressure spills
  /// resident shards instead of failing, so discovery completes on files
  /// larger than the budget. On an input that fits in memory the
  /// discovered cover is bit-identical to Tane on the materialized
  /// relation (tests/ooc_determinism_test.cc).
  Result<std::vector<DiscoveredFd>> TaneOutOfCore(
      const ShardedEncodedRelation& sharded, TaneOptions options = {});

  /// Hybrid sampling + induction FD discovery over an out-of-core ingested
  /// relation. The sampler reads flat code arrays, so those are
  /// materialized once (charged against the budget with shard-spill
  /// fallback); the frontier's PLIs still stream out of spill-merged runs.
  /// Same minimal cover as TaneOutOfCore.
  Result<std::vector<DiscoveredFd>> HybridFdsOutOfCore(
      const ShardedEncodedRelation& sharded, HybridFdOptions options = {});

  /// MD discovery through the shared hybrid cover tree; bit-identical to
  /// Mds, and delegates to it wholesale whenever the cover tree cannot
  /// answer the configuration exactly (min_confidence != 1, kernel
  /// ineligible).
  Result<std::vector<DiscoveredMd>> HybridMds(const Relation& relation,
                                              AttrSet rhs,
                                              MdDiscoveryOptions options = {});

  /// FASTDC with parallel evidence-set construction.
  Result<std::vector<DiscoveredDc>> FastDc(const Relation& relation,
                                           FastDcOptions options = {});

  /// CORDS with a parallel column-pair sweep.
  Result<std::vector<DiscoveredSfd>> Cords(const Relation& relation,
                                           CordsOptions options = {});

  // Every driver below wires the same fast path: the engine pool, the
  // shared PLI store, and the encoded columnar substrate. Each remains
  // bit-identical to its serial free function.

  /// CFDMiner-style constant CFD mining.
  Result<std::vector<DiscoveredCfd>> ConstantCfds(
      const Relation& relation, CfdDiscoveryOptions options = {});

  /// CTANE-style general CFD discovery.
  Result<std::vector<DiscoveredCfd>> GeneralCfds(
      const Relation& relation, CfdDiscoveryOptions options = {});

  /// Greedy CFD tableau construction for one embedded FD.
  Result<std::vector<DiscoveredCfd>> GreedyTableau(
      const Relation& relation, AttrSet lhs, int rhs, int condition_attr,
      TableauOptions options = {});

  /// Unary OD discovery over rank-encoded columns.
  Result<std::vector<DiscoveredOd>> UnaryOds(const Relation& relation,
                                             OdDiscoveryOptions options = {});

  /// Levelwise MVD / AMVD discovery.
  Result<std::vector<DiscoveredMvd>> Mvds(const Relation& relation,
                                          MvdDiscoveryOptions options = {});

  /// FHD assembly on top of the discovered MVDs.
  Result<std::vector<DiscoveredFhd>> Fhds(const Relation& relation,
                                          MvdDiscoveryOptions options = {});

  /// Levelwise probabilistic FD discovery.
  Result<std::vector<DiscoveredPfd>> Pfds(const Relation& relation,
                                          PfdDiscoveryOptions options = {});

  /// DD discovery with parallel candidate evaluation over code-distance
  /// tables.
  Result<std::vector<DiscoveredDd>> Dds(const Relation& relation,
                                        DdDiscoveryOptions options = {});

  /// NED discovery for a target RHS predicate.
  Result<std::vector<DiscoveredNed>> Neds(const Relation& relation,
                                          const Ned::Predicate& target,
                                          NedDiscoveryOptions options = {});

  /// MD discovery for a RHS attribute set.
  Result<std::vector<DiscoveredMd>> Mds(const Relation& relation, AttrSet rhs,
                                        MdDiscoveryOptions options = {});

  /// MFD discovery with parallel per-candidate diameter measurement.
  Result<std::vector<DiscoveredMfd>> Mfds(const Relation& relation,
                                          MfdDiscoveryOptions options = {});

  /// SD fitting for one (order, target) attribute pair.
  Result<DiscoveredSd> Sd(const Relation& relation, int order_attr,
                          int target_attr, SdDiscoveryOptions options = {});

  /// CSD tableau discovery for one (order, target) attribute pair.
  Result<DiscoveredCsd> CsdTableau(const Relation& relation, int order_attr,
                                   int target_attr,
                                   CsdDiscoveryOptions options = {});

  // ------------------------------------------------ quality applications

  /// Equivalence-class FD repair.
  Result<RepairResult> RepairFds(const Relation& relation,
                                 const std::vector<Fd>& fds,
                                 int max_passes = 4);

  /// CFD repair (constant forcing + conditioned plurality).
  Result<RepairResult> RepairCfds(const Relation& relation,
                                  const std::vector<Cfd>& cfds,
                                  int max_passes = 4);

  /// Holistic DC repair with concurrent per-DC violation collection.
  Result<RepairResult> RepairHolistic(const Relation& relation,
                                      const std::vector<Dc>& dcs,
                                      int max_changes = 1000);

  /// MD-based record matching.
  Result<MatchResult> Match(const Relation& relation, std::vector<Md> rules);

  /// NED-based imputation of missing target values.
  Result<ImputeResult> Impute(const Relation& relation, const Ned& rule);

  /// Consistent query answering under an FD: certain answers.
  Result<Relation> CertainAnswers(const Relation& relation, const Fd& fd,
                                  const SelectionQuery& query);

  /// Consistent query answering under an FD: possible answers.
  Result<Relation> PossibleAnswers(const Relation& relation, const Fd& fd,
                                   const SelectionQuery& query);

  /// Speed-constraint violation detection on a timestamped series.
  Result<std::vector<Violation>> DetectSpeed(const Relation& relation,
                                             int time_attr, int value_attr,
                                             const SpeedConstraint& constraint);

  /// SCREEN-style speed-constraint repair.
  Result<RepairResult> RepairSpeed(const Relation& relation, int time_attr,
                                   int value_attr,
                                   const SpeedConstraint& constraint);

  /// Violation detection with concurrent rule validation; FD rules are
  /// confirmed from the shared PLI store when they hold.
  Result<DetectionSummary> Detect(const Relation& relation,
                                  std::vector<DependencyPtr> rules,
                                  int max_violations_per_rule = 1000);

  /// Cache counters aggregated over every relation the engine has served.
  PliCache::Stats CacheStats() const;

  /// Counters of the shared evidence store.
  EvidenceCache::Stats EvidenceStats() const { return evidence_.stats(); }

 private:
  EngineOptions options_;
  ThreadPool pool_;
  EvidenceCache evidence_;
  mutable std::mutex mu_;  // guards caches_ and ooc_caches_
  std::map<const Relation*, std::unique_ptr<PliCache>> caches_;
  std::map<const ShardedEncodedRelation*, std::unique_ptr<PliCache>>
      ooc_caches_;

  /// The engine-wide default when per-call options carry no context.
  RunContext* default_context() const { return options_.context; }

  /// Points a per-call options struct at this engine: its pool, the
  /// evidence store where the struct has one, the default context when the
  /// call set none, and `relation`'s PLI store where the struct has a slot
  /// (skipped when `relation` is null: the out-of-core drivers pass their
  /// store separately).
  template <typename Options>
  Status Wire(const Relation* relation, Options* options);
};

}  // namespace famtree

#endif  // FAMTREE_ENGINE_ENGINE_H_
