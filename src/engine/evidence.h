#ifndef FAMTREE_ENGINE_EVIDENCE_H_
#define FAMTREE_ENGINE_EVIDENCE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/pli_cache.h"
#include "metric/code_distance.h"
#include "metric/metric.h"
#include "relation/encoded_relation.h"

namespace famtree {

/// How one column participates in the pairwise comparison word.
///
/// Every pairwise miner asks, per row pair, a small set of per-column
/// questions: equal or not (FASTDC Eq/Neq, MD/MFD grouping, CFD support),
/// how the values order (FASTDC Lt/Gt), and which threshold band the metric
/// distance falls in (DD/MD/NED similarity predicates). An EvidenceColumn
/// declares which facets a consumer needs; the kernel packs the answers
/// into contiguous bit fields of a single uint64 word per pair.
struct EvidenceColumn {
  enum class Cmp {
    kNone,      // no comparison facet (distance facets only)
    kEquality,  // 1 bit: 0 = equal, 1 = unequal
    kOrder,     // 2 bits: 0 = equal, 1 = i's value < j's, 2 = >
  };

  int attr = 0;
  Cmp cmp = Cmp::kEquality;

  /// Distance facet: with a metric and a sorted-ascending threshold list,
  /// the word carries the bucket index (smallest j with d <= thresholds[j],
  /// or thresholds.size() when none match). With a metric, `track_max`
  /// additionally folds per-word distance maxima (see
  /// EvidenceSet::Aggregate).
  MetricPtr metric;
  std::vector<double> thresholds;
  bool track_max = false;

  /// Optional borrowed exact-distance table for this (attr, metric); when
  /// null the kernel builds what it needs itself (an exact table when
  /// track_max is set, a byte-wide CodeBucketTable otherwise). Lend one only
  /// if the caller reads it anyway (DD, MFD): it costs a fill even on an
  /// evidence-cache hit. Must outlive the build call.
  const CodeDistanceTable* table = nullptr;
};

/// Total bits the packed comparison word needs; must be <= 64 to build
/// (consumers with wider configs keep their pre-kernel paths).
int EvidenceWordBits(const std::vector<EvidenceColumn>& columns);

struct EvidenceOptions {
  ThreadPool* pool = nullptr;
  /// Optional run limits: the walks poll per tile / work item, the final
  /// multiset charges its footprint at the "evidence_set" site, and each
  /// tile strip probes the "evidence_tile" fault site. A stopped build
  /// returns the latched stop Status — never a partial multiset.
  RunContext* context = nullptr;
  /// Cluster source for the pruned enumeration; single-attribute leaves are
  /// pinned in the PLI store, so borrowing them is free. When null the
  /// kernel counting-sorts clusters from the code arrays.
  PliCache* pli = nullptr;
  /// PLI-based pair pruning: enumerate only pairs that agree on at least
  /// one column (via per-column cluster products, deduplicated at the first
  /// agreeing column) and synthesize the all-unequal word's count by
  /// subtraction. Requires every column to be Cmp::kEquality with no
  /// bucket thresholds (the synthesized word has no well-defined order or
  /// bucket facets); ineligible configs silently use the dense tiled walk,
  /// which produces the identical multiset. The synthesized word carries
  /// zero aggregates — consumers must only read aggregates of words with at
  /// least one equal facet (MFD candidates always have one).
  bool prune_all_unequal = false;
  /// Rows per tile of the dense walk; tiles keep each column's code slices
  /// L2-resident while the pair loop sweeps them.
  int tile_rows = 128;
};

/// Deduplicated pairwise evidence multiset (Hydra/DCFinder style): one
/// entry per distinct comparison word with the number of row pairs that
/// produced it, plus optional per-word distance maxima for the
/// threshold-mining consumers. Self-contained — safe to cache beyond the
/// lifetime of the EncodedRelation it was built from.
///
/// The multiset ranges over unordered pairs {i, j}; order facets are
/// evaluated at the canonical orientation i < j, and MirrorOf converts a
/// word to the opposite orientation for consumers (FASTDC) that mine over
/// ordered pairs. Words are sorted ascending by bit pattern, and both the
/// tiled and the pruned builds produce bit-identical sets at any thread
/// count: every per-word fold (count sum, max, flag or) is commutative, so
/// chunk merge order cannot show.
class EvidenceSet {
 public:
  struct Word {
    uint64_t bits = 0;
    int64_t count = 0;
  };

  /// Distance fold over one tracked column within one word's pairs,
  /// mirroring the row-pair scan folds exactly: max_finite starts at 0.0 and
  /// folds only finite distances (DD bound semantics), max_all is a plain
  /// std::max fold (MFD diameter semantics — +inf is sticky, NaN never
  /// replaces the accumulator), saw_nonfinite flags any non-finite
  /// distance.
  struct Aggregate {
    double max_all = 0.0;
    double max_finite = 0.0;
    bool saw_nonfinite = false;
  };

  struct ColumnLayout {
    int attr = 0;
    EvidenceColumn::Cmp cmp = EvidenceColumn::Cmp::kNone;
    int cmp_shift = 0;
    int bucket_shift = 0;
    int bucket_bits = 0;
    int num_thresholds = 0;
    int track_slot = -1;

    /// Word bits of the comparison facet (0 without one).
    uint64_t cmp_mask() const {
      uint64_t field = cmp == EvidenceColumn::Cmp::kEquality ? 1u
                       : cmp == EvidenceColumn::Cmp::kOrder  ? 3u
                                                             : 0u;
      return field << cmp_shift;
    }
    /// Word bits of the distance-bucket facet (0 without one).
    uint64_t bucket_mask() const {
      return ((uint64_t{1} << bucket_bits) - 1) << bucket_shift;
    }
  };

  const std::vector<Word>& words() const { return words_; }
  int64_t total_pairs() const { return total_pairs_; }
  int num_columns() const { return static_cast<int>(layout_.size()); }
  int num_tracked() const { return num_tracked_; }
  const std::vector<ColumnLayout>& layout() const { return layout_; }

  const Aggregate& agg(size_t word_index, int track_slot) const {
    return aggs_[word_index * num_tracked_ + track_slot];
  }

  /// Comparison facet of config column `col`: 0 equal, 1 unequal/less,
  /// 2 greater. Columns without a facet read as 0.
  int CmpOf(uint64_t word, size_t col) const {
    const ColumnLayout& c = layout_[col];
    if (c.cmp == EvidenceColumn::Cmp::kEquality) {
      return static_cast<int>((word >> c.cmp_shift) & 1u);
    }
    if (c.cmp == EvidenceColumn::Cmp::kOrder) {
      return static_cast<int>((word >> c.cmp_shift) & 3u);
    }
    return 0;
  }

  bool AgreesOn(uint64_t word, size_t col) const {
    return CmpOf(word, col) == 0;
  }

  int BucketOf(uint64_t word, size_t col) const {
    const ColumnLayout& c = layout_[col];
    return static_cast<int>((word >> c.bucket_shift) &
                            ((uint64_t{1} << c.bucket_bits) - 1));
  }

  /// The same pair seen from the opposite orientation: order facets swap
  /// less and greater, everything else is symmetric.
  uint64_t MirrorOf(uint64_t word) const;

  /// The word of a pair disagreeing on every equality facet (the pruned
  /// build's synthesized word).
  uint64_t AllUnequalWord() const;

  size_t footprint_bytes() const;

 private:
  friend class EvidenceBuilder;

  std::vector<ColumnLayout> layout_;
  std::vector<Word> words_;
  std::vector<Aggregate> aggs_;  // words_.size() x num_tracked_
  int64_t total_pairs_ = 0;
  int num_tracked_ = 0;
};

/// Compiled per-pair word evaluator — the kernel's inner layer, exposed for
/// consumers that need pair identities (dedup's union-find) rather than the
/// aggregated multiset. Borrows the encoding and any tables it compiles;
/// keep both alive while using it.
class PairComparator {
 public:
  static Result<std::unique_ptr<PairComparator>> Make(
      const EncodedRelation& encoded, std::vector<EvidenceColumn> columns,
      ThreadPool* pool) {
    return Make(encoded, std::move(columns), pool,
                CodeDistanceTable::kDefaultMaxEntries);
  }

  /// The comparison word of the ordered pair (i, j); `tracked_dists`, when
  /// non-null, receives num_tracked() distances indexed by track slot.
  uint64_t Word(int i, int j, double* tracked_dists = nullptr) const;

  int num_bits() const { return num_bits_; }
  int num_tracked() const { return num_tracked_; }
  const std::vector<EvidenceSet::ColumnLayout>& layout() const {
    return layout_;
  }

 private:
  friend class EvidenceBuilder;

  struct Col {
    const uint32_t* codes = nullptr;
    EvidenceColumn::Cmp cmp = EvidenceColumn::Cmp::kNone;
    int cmp_shift = 0;
    bool const_unequal = false;  // all-distinct column: facet is constant
    std::vector<uint32_t> ranks;  // order facet (CodeRanks)
    const CodeDistanceTable* dist = nullptr;
    std::unique_ptr<CodeDistanceTable> owned_dist;
    std::unique_ptr<CodeBucketTable> owned_bucket;
    const CodeBucketTable* bucket = nullptr;
    std::vector<double> thresholds;  // bucket-from-exact-distance path
    int bucket_shift = 0;
    int track_slot = -1;
  };

  PairComparator() = default;

  /// Make, with the tables it builds itself capped at `max_table_entries`
  /// (larger columns compute each pair's distance on the decoded values).
  static Result<std::unique_ptr<PairComparator>> Make(
      const EncodedRelation& encoded, std::vector<EvidenceColumn> columns,
      ThreadPool* pool, int64_t max_table_entries);

  std::vector<Col> cols_;
  std::vector<EvidenceSet::ColumnLayout> layout_;
  uint64_t base_word_ = 0;  // constant facet bits
  int num_bits_ = 0;
  int num_tracked_ = 0;
};

/// Builds the evidence multiset over all unordered row pairs of `encoded`,
/// tiled and parallelized per EvidenceOptions.
Result<std::shared_ptr<const EvidenceSet>> BuildEvidence(
    const EncodedRelation& encoded, const std::vector<EvidenceColumn>& columns,
    const EvidenceOptions& options);

/// Builds the evidence multiset over an explicit list of ordered pairs
/// (FASTDC's sampling path). Order facets use the given orientation; no
/// mirror words are added. As for deltas, tables larger than the list are
/// not filled.
Result<std::shared_ptr<const EvidenceSet>> BuildEvidenceForPairs(
    const EncodedRelation& encoded, const std::vector<EvidenceColumn>& columns,
    const std::vector<std::pair<int, int>>& pairs,
    const EvidenceOptions& options);

/// Builds the evidence multiset over only the pairs an append created:
/// {i < j : j >= old_rows} — new-vs-all tiles of the dense walk, or the
/// cluster tails of the pruned walk. `encoded` is the *appended* encoding;
/// appends never change prefix codes or the relative Value order of
/// existing codes, so MergeEvidenceSets(base, delta) is bit-identical to a
/// cold BuildEvidence over the appended relation (the old and new pairs
/// partition all pairs, and every per-word fold is commutative). Columns
/// whose code-pair triangle outnumbers the new pairs fill no table.
Result<std::shared_ptr<const EvidenceSet>> BuildEvidenceDelta(
    const EncodedRelation& encoded, const std::vector<EvidenceColumn>& columns,
    int old_rows, const EvidenceOptions& options);

/// Merges two evidence multisets built from disjoint pair populations
/// under the same column config: counts sum, aggregates fold (max / max /
/// or), total_pairs sum, words re-sorted ascending. Fails on mismatched
/// layouts. Charges the merged footprint at "evidence_set".
Result<std::shared_ptr<const EvidenceSet>> MergeEvidenceSets(
    const EvidenceSet& base, const EvidenceSet& delta,
    const EvidenceOptions& options);

}  // namespace famtree

#endif  // FAMTREE_ENGINE_EVIDENCE_H_
