#ifndef FAMTREE_ENGINE_PLI_CACHE_H_
#define FAMTREE_ENGINE_PLI_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/attr_set.h"
#include "common/run_context.h"
#include "relation/encoded_relation.h"
#include "relation/ooc/sharded_relation.h"
#include "relation/partition.h"
#include "relation/pli_delta.h"
#include "relation/relation.h"

namespace famtree {

/// A shared, thread-safe store of stripped partitions (PLIs) for one
/// relation, keyed by attribute set. Every lattice-based discovery
/// algorithm and the violation detector historically rebuilt the same
/// partitions from scratch; the cache computes each one once and serves it
/// to all of them (the Desbordante-style PLI-centric architecture).
///
/// Partitions are memoized with size-bounded LRU eviction. Single-attribute
/// partitions are pinned: they are the leaves every product chain starts
/// from, are small, and evicting them would only force an immediate
/// rebuild. Multi-attribute partitions are computed by splitting off the
/// lowest attribute and taking the TANE partition product of the two cached
/// halves — a deterministic recipe, so a partition's class content never
/// depends on which algorithm (or thread) asked first.
///
/// Two backends serve the single-attribute leaves:
///  - In-memory (the Relation constructors): a counting sort over the
///    column's dictionary codes in the eagerly built EncodedRelation.
///  - Out-of-core (the ShardedEncodedRelation constructor): per-shard
///    sorted (code, row) runs, spilled under budget pressure and k-way
///    merged (relation/ooc/ooc_pli.h) — bit-identical output, and the
///    "pli_build" charge spills resident shards instead of failing.
///
/// Thread safety: Get may be called concurrently. Partitions are returned
/// as shared_ptr<const ...> so an evicted entry stays alive for callers
/// still holding it. A miss is computed outside the cache lock; two threads
/// racing on the same key both compute the same value and the first insert
/// wins, so results are identical either way (the differential tests assert
/// exactly this across thread counts).
class PliCache {
 public:
  struct Options {
    /// Eviction threshold on the approximate footprint of unpinned
    /// partitions. The default comfortably holds the lattice levels of the
    /// paper-scale workloads; bench_engine prints the live footprint.
    size_t max_bytes = 64ull << 20;
  };

  /// Counters exposed through bench_engine. `bytes` is the approximate
  /// footprint of currently cached partitions (pinned included).
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t builds = 0;  // partitions actually computed (>= misses can
                         // differ when racing threads duplicate work)
    size_t bytes = 0;
    /// PLI-run bytes spilled by the out-of-core backend.
    int64_t ooc_spill_bytes = 0;
  };

  /// The cache keeps a reference to `relation`; the caller must keep the
  /// relation alive for the cache's lifetime (DiscoveryEngine does).
  explicit PliCache(const Relation& relation) : PliCache(relation, Options()) {}
  PliCache(const Relation& relation, Options options);

  /// Out-of-core backend: serves the same Get contract from a
  /// ShardedEncodedRelation without any materialized Relation. The
  /// sampling-based drivers that need flat code arrays call EnsureEncoded
  /// first; the PLI-only drivers never materialize anything. The caller
  /// keeps `sharded` alive for the cache's lifetime.
  explicit PliCache(const ShardedEncodedRelation& sharded)
      : PliCache(sharded, Options()) {}
  PliCache(const ShardedEncodedRelation& sharded, Options options);

  /// Returns the stripped partition for `attrs`, computing and memoizing it
  /// on a miss. `attrs` must be non-empty and within the relation's schema;
  /// out-of-schema attribute sets return nullptr.
  ///
  /// With a RunContext, every partition build charges its footprint at the
  /// "pli_build" site before the entry is published (with shard-spill
  /// fallback in out-of-core mode). On a failed charge (budget exhausted or
  /// injected fault) the run latches kResourceExhausted, nothing is
  /// inserted — the cache holds only fully built partitions — and nullptr
  /// is returned; callers distinguish that from an out-of-schema miss via
  /// RunContext::StopStatus.
  std::shared_ptr<const StrippedPartition> Get(AttrSet attrs,
                                               RunContext* ctx = nullptr);

  Stats stats() const;

  int num_rows() const { return num_rows_; }
  int num_columns() const { return num_columns_; }

  /// The source relation. Only valid for in-memory caches; out-of-core
  /// caches have no materialized Relation — use relation_or_null() when
  /// the backend is not statically known.
  const Relation& relation() const { return *relation_; }
  const Relation* relation_or_null() const { return relation_; }

  /// The sharded backend, or nullptr for an in-memory cache.
  const ShardedEncodedRelation* sharded_or_null() const { return sharded_; }

  /// The dictionary-encoded columnar view of the relation. In-memory caches
  /// build it eagerly in the constructor; the discovery drivers borrow it
  /// for their own encoded hot paths (e.g. TANE's g3 validity tests).
  /// Only valid when has_encoded() — always true in-memory, true
  /// out-of-core only after a successful EnsureEncoded.
  const EncodedRelation& encoded() const { return *encoded_; }
  const EncodedRelation* encoded_or_null() const;
  bool has_encoded() const { return encoded_or_null() != nullptr; }

  /// Materializes the flat encoding for an out-of-core cache (charging
  /// "ingest_codes" with shard-spill fallback); a no-op when it already
  /// exists. Thread-safe; the pointer is stable once set.
  Status EnsureEncoded(RunContext* ctx);

  /// Content fingerprint of the relation as of construction or the last
  /// MaintainAppend (RelationFingerprint); DiscoveryEngine::CacheFor
  /// re-verifies it to catch a relation freed and reallocated at the same
  /// address, or mutated in place.
  uint64_t fingerprint() const { return fingerprint_; }

  /// The exact FD cover the last completed hybrid run on this cache
  /// (DiscoverFdsHybrid or RepairFdCover, either backend) emitted, with its
  /// LHS cap and the row count it ran on. RepairFdCover compares its seed
  /// with it: an equal seed at the same cap held on those rows, so only
  /// the rows appended since can break an FD of the repair
  /// (discovery/hybrid/hybrid_fd.h). A run cut by a limit or truncated by
  /// max_results records nothing.
  struct FdCoverMemo {
    std::vector<std::pair<AttrSet, int>> fds;  // sorted (lhs, rhs), unique
    int max_lhs_size = 0;
    int num_rows = 0;
  };
  void RecordFdCover(std::shared_ptr<const FdCoverMemo> memo);
  /// The recorded cover, or nullptr when none is (or it was dropped by a
  /// failed MaintainAppend).
  std::shared_ptr<const FdCoverMemo> fd_cover_memo() const;

  /// What one MaintainAppend did.
  struct MaintainStats {
    int appended_rows = 0;
    /// Single-attribute partitions updated in place via delta merge.
    int leaves_merged = 0;
    /// Multi-attribute partitions invalidated; each is rebuilt lazily by
    /// the next Get that asks for it.
    int products_invalidated = 0;
  };

  /// Revalidates the cache after a batch append to the backing relation
  /// (Relation::AppendRows in-memory, ShardedEncodedRelation::AppendCsv
  /// out-of-core), instead of dropping it. Single-attribute leaves are
  /// merged in place from the appended rows' codes (relation/pli_delta.h)
  /// in O(classes + batch); multi-attribute entries are invalidated and
  /// recomputed lazily on the next Get through the deterministic product
  /// recipe from the merged leaves, so only the products a consumer
  /// actually revisits pay a rebuild (cover repair after a recorded run
  /// revisits none: it validates against the merged leaves). The encoding
  /// view and the fingerprint advance to the appended relation — the
  /// fingerprint from the relation's own chain (RelationFingerprint), so
  /// O(batch) when the append went through DiscoveryEngine::AppendRows —
  /// and a subsequent DiscoveryEngine::CacheFor recognizes the grown
  /// relation as the same cache. The recorded FD cover (fd_cover_memo)
  /// stays: it still describes the old row prefix. Every maintained or
  /// lazily rebuilt partition is bit-identical (raw CSR arrays) to a cold
  /// rebuild of the appended relation.
  ///
  /// Single-writer: callers must quiesce discovery on this cache for the
  /// duration (the same contract as mutating the relation itself). On a
  /// failed charge or injected fault the cache may be partially
  /// maintained and drops its recorded FD cover; discard it via
  /// DiscoveryEngine::ForgetRelation.
  Status MaintainAppend(RunContext* ctx = nullptr,
                        MaintainStats* stats = nullptr);

 private:
  struct Entry {
    std::shared_ptr<const StrippedPartition> pli;
    size_t bytes = 0;
    bool pinned = false;
    /// Position in lru_ (unpinned entries only).
    std::list<AttrSet>::iterator lru_pos;
  };

  /// Approximate heap footprint of a partition.
  static size_t FootprintOf(const StrippedPartition& pli);

  /// Computes the partition for `attrs` without touching the map (may
  /// recursively Get the two halves of the split). Returns nullptr when a
  /// recursive build failed its budget charge.
  std::shared_ptr<const StrippedPartition> Compute(AttrSet attrs,
                                                   RunContext* ctx);

  /// Inserts under the lock, evicting LRU unpinned entries over budget.
  /// Returns the winning entry (an earlier racing insert keeps priority).
  std::shared_ptr<const StrippedPartition> Insert(
      AttrSet attrs, std::shared_ptr<const StrippedPartition> pli);

  const Relation* relation_ = nullptr;
  const ShardedEncodedRelation* sharded_ = nullptr;
  /// Mutable (unlike the column count): MaintainAppend advances them.
  int num_rows_;
  const int num_columns_;
  uint64_t fingerprint_;
  const Options options_;
  /// Per-column side indexes that make the pinned leaves delta-mergeable;
  /// built lazily on first maintenance (relation/pli_delta.h).
  std::vector<PliDeltaIndex> delta_index_;

  /// Serializes out-of-core materialization in EnsureEncoded.
  std::mutex encode_mu_;

  mutable std::mutex mu_;
  /// Set in the constructor (in-memory) or by EnsureEncoded (out-of-core;
  /// guarded by mu_ until set, stable afterwards).
  std::shared_ptr<const EncodedRelation> encoded_;
  std::unordered_map<AttrSet, Entry, AttrSetHash> entries_;
  /// Unpinned keys, most recently used first.
  std::list<AttrSet> lru_;
  Stats stats_;
  std::shared_ptr<const FdCoverMemo> fd_cover_memo_;
};

}  // namespace famtree

#endif  // FAMTREE_ENGINE_PLI_CACHE_H_
