#ifndef FAMTREE_ENGINE_EVIDENCE_CACHE_H_
#define FAMTREE_ENGINE_EVIDENCE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/evidence.h"
#include "relation/encoded_relation.h"

namespace famtree {

/// A shared, thread-safe, size-bounded LRU store of evidence multisets,
/// keyed by (relation fingerprint, column set, distance config) — the
/// sibling of PliCache one level up: PliCache memoizes partitions, this
/// memoizes the pairwise comparison structure every evidence consumer
/// (FASTDC, DD/MD/NED/MFD, constant-CFD pruning) starts from.
///
/// The fingerprint is the relation's content address (RelationFingerprint,
/// equal to PliCache::fingerprint and ShardedEncodedRelation::fingerprint
/// for the same content): it covers the schema and every Value in row
/// order, so two relations share an entry only when every comparison —
/// equality, order, distance — agrees on every pair. Codes alone would not
/// do: relations with one equality pattern but different values or order
/// have equal code matrices and different order and distance evidence.
///
/// Entries are shared_ptr<const EvidenceSet>, so an evicted set stays alive
/// for callers still holding it. A miss is computed outside the lock; two
/// racing threads build the same (bit-identical) set and the first insert
/// wins.
class EvidenceCache {
 public:
  struct Options {
    size_t max_bytes = 32ull << 20;
  };

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t builds = 0;
    size_t bytes = 0;
  };

  EvidenceCache() : EvidenceCache(Options()) {}
  explicit EvidenceCache(Options options) : options_(options) {}

  /// Canonical cache key of a build request: the relation fingerprint plus
  /// an exact serialization of the column config (attributes and second
  /// order columns, comparison modes, metric names, threshold bit
  /// patterns, track flags). The
  /// enumeration strategy (dense / pruned / thread count) is deliberately
  /// not part of the key — every strategy produces the identical multiset.
  /// The fingerprint is always the first 16 hex characters of the key —
  /// EraseFingerprint and MaintainAppend select entries by that prefix.
  static std::string KeyFor(uint64_t fingerprint,
                            const std::vector<EvidenceColumn>& columns);

  std::shared_ptr<const EvidenceSet> Lookup(const std::string& key);

  /// Inserts under the lock, evicting LRU entries over budget. Returns the
  /// winning entry (an earlier racing insert keeps priority). `config`,
  /// when non-empty, records the column set the entry was built from
  /// (borrowed table pointers sanitized to null) and makes the entry
  /// maintainable across appends; `num_rows` is the relation size the set
  /// ranges over.
  std::shared_ptr<const EvidenceSet> Insert(
      const std::string& key, std::shared_ptr<const EvidenceSet> set,
      std::vector<EvidenceColumn> config = {}, int num_rows = 0);

  /// Advances every maintainable entry of the pre-append relation to the
  /// appended one: builds the new-pair delta per stored config
  /// (BuildEvidenceDelta over `encoded`, the appended encoding), merges it
  /// into the cached multiset, re-inserts under `new_fingerprint`, and
  /// finally drops everything still keyed by `old_fingerprint` (including
  /// non-maintainable entries — stale sets must not survive under a dead
  /// key). The fingerprints are the relation's before and after the append
  /// (PliCache::fingerprint read around its MaintainAppend), so no pass
  /// over the data is spent on them. Bit-identical to evicting and
  /// cold-rebuilding, at new-pairs cost.
  Status MaintainAppend(const EncodedRelation& encoded,
                        uint64_t old_fingerprint, uint64_t new_fingerprint,
                        int old_rows, const EvidenceOptions& options);

  /// Drops every entry keyed by `fingerprint` (the 16-hex key prefix).
  /// DiscoveryEngine's forget paths call this so a forgotten relation's
  /// evidence cannot be served to an unrelated relation that later hashes
  /// to the same address.
  void EraseFingerprint(uint64_t fingerprint);

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const EvidenceSet> set;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_pos;
    /// Rebuild recipe for MaintainAppend; empty for entries inserted
    /// without one (then maintainable is false and appends evict instead).
    std::vector<EvidenceColumn> config;
    int num_rows = 0;
    bool maintainable = false;
  };

  /// Erases one entry by iterator, adjusting stats; returns the next
  /// iterator. Caller holds mu_.
  std::unordered_map<std::string, Entry>::iterator EraseLocked(
      std::unordered_map<std::string, Entry>::iterator it);

  const Options options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // most recently used first
  Stats stats_;
};

/// The consumer-facing entry point: serves the evidence set from `cache`
/// when one is attached (building and inserting on a miss), or builds
/// directly when `cache` is null. `fingerprint` is the RelationFingerprint
/// of the relation `encoded` was built from (unread when `cache` is null).
/// Only all-pairs builds are cacheable; explicit pair lists (FASTDC
/// sampling) bypass the cache.
Result<std::shared_ptr<const EvidenceSet>> GetOrBuildEvidence(
    EvidenceCache* cache, const EncodedRelation& encoded, uint64_t fingerprint,
    const std::vector<EvidenceColumn>& columns,
    const EvidenceOptions& options);

}  // namespace famtree

#endif  // FAMTREE_ENGINE_EVIDENCE_CACHE_H_
