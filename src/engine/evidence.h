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
/// how the values order (FASTDC Lt/Gt, within a column or across two), and
/// which threshold band the metric distance falls in (DD/MD/NED similarity
/// predicates). An EvidenceColumn declares which facets a consumer needs;
/// the kernel packs the answers into bit fields of a comparison word of one
/// or more 64-bit lanes per pair.
struct EvidenceColumn {
  enum class Cmp {
    kNone,      // no comparison facet (distance facets only)
    kEquality,  // 1 bit: 0 = equal, 1 = unequal
    kOrder,     // 2 bits: 0 = equal, 1 = a's value < b's, 2 = >,
                // 3 = unordered (a NaN against a number or a NaN)
  };

  int attr = 0;
  Cmp cmp = Cmp::kEquality;

  /// Order facets only: the column of the pair's second row (tuple b), so
  /// the facet of pair (i, j) compares i's `attr` with j's `b_attr`; -1
  /// compares `attr` on both rows. Both columns rank on one scale, equal
  /// values tied. A config holding (a, b) must also hold (b, a): the two
  /// mirror into each other (EvidenceSet::MirrorOf).
  int b_attr = -1;

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
  /// track_max is set, a CodeBucketTable otherwise). Lend one only if the
  /// caller reads it anyway (DD, MFD): it costs a fill even on an
  /// evidence-cache hit. Must outlive the build call.
  const CodeDistanceTable* table = nullptr;
};

/// Total facet bits of a config. The word packs them column by column, in
/// config order, into 64-bit lanes; a column whose facets do not fit in
/// what is left of a lane starts the next one, so no facet straddles two.
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
  /// Rows per tile of the dense walk: an anchor's partners within one tile
  /// form one strip. Tiles keep each column's code slices L2-resident while
  /// the strips sweep them.
  int tile_rows = 128;
};

/// Deduplicated pairwise evidence multiset (Hydra/DCFinder style): one
/// entry per distinct comparison word with the number of row pairs that
/// produced it, plus optional per-word distance maxima for the
/// threshold-mining consumers. Self-contained — safe to cache beyond the
/// lifetime of the EncodedRelation it was built from.
///
/// A word is num_lanes() 64-bit lanes; word w's lanes are lanes(w), read
/// through CmpOf / BucketOf / AgreesOn. The multiset ranges over unordered
/// pairs {i, j}; order facets are evaluated at the canonical orientation
/// i < j, and MirrorOf converts a word to the opposite orientation for
/// consumers (FASTDC) that mine over ordered pairs. Words are sorted
/// ascending by their lanes (lane 0 first), and both the tiled and the
/// pruned builds produce bit-identical sets at any thread count: every
/// per-word fold (count sum, max, flag or) is commutative, so chunk merge
/// order cannot show.
class EvidenceSet {
 public:
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

  /// Where one config column's facets sit: all of them in lane `lane`, the
  /// shifts and masks within it.
  struct ColumnLayout {
    int attr = 0;
    int b_attr = -1;
    EvidenceColumn::Cmp cmp = EvidenceColumn::Cmp::kNone;
    int lane = 0;
    int cmp_shift = 0;
    int bucket_shift = 0;
    int bucket_bits = 0;
    int num_thresholds = 0;
    int track_slot = -1;
    /// Order facets: the config column holding the (b_attr, attr) facet
    /// (itself for a one-column facet).
    int mirror = -1;

    bool operator==(const ColumnLayout&) const = default;

    /// Lane bits of the comparison facet (0 without one).
    uint64_t cmp_mask() const {
      uint64_t field = cmp == EvidenceColumn::Cmp::kEquality ? 1u
                       : cmp == EvidenceColumn::Cmp::kOrder  ? 3u
                                                             : 0u;
      return field << cmp_shift;
    }
    /// Lane bits of the distance-bucket facet (0 without one).
    uint64_t bucket_mask() const {
      return ((uint64_t{1} << bucket_bits) - 1) << bucket_shift;
    }
    /// Comparison facet of the word in `lanes`: 0 equal, 1 unequal/less,
    /// 2 greater, 3 unordered. Columns without a facet read as 0.
    int CmpOf(const uint64_t* lanes) const {
      return static_cast<int>((lanes[lane] & cmp_mask()) >> cmp_shift);
    }
    int BucketOf(const uint64_t* lanes) const {
      return static_cast<int>((lanes[lane] & bucket_mask()) >> bucket_shift);
    }
  };

  size_t num_words() const { return counts_.size(); }
  int num_lanes() const { return num_lanes_; }
  const uint64_t* lanes(size_t word_index) const {
    return &lanes_[word_index * num_lanes_];
  }
  int64_t count(size_t word_index) const { return counts_[word_index]; }
  int64_t total_pairs() const { return total_pairs_; }
  int num_columns() const { return static_cast<int>(layout_.size()); }
  int num_tracked() const { return num_tracked_; }
  const std::vector<ColumnLayout>& layout() const { return layout_; }

  const Aggregate& agg(size_t word_index, int track_slot) const {
    return aggs_[word_index * num_tracked_ + track_slot];
  }

  /// Facets of config column `col` in word `word_index`.
  int CmpOf(size_t word_index, size_t col) const {
    return layout_[col].CmpOf(lanes(word_index));
  }
  bool AgreesOn(size_t word_index, size_t col) const {
    return CmpOf(word_index, col) == 0;
  }
  int BucketOf(size_t word_index, size_t col) const {
    return layout_[col].BucketOf(lanes(word_index));
  }

  /// The same pair seen from the opposite orientation, into `out`
  /// (num_lanes() lanes): each order facet takes its mirror facet's value
  /// with less and greater swapped (equal and unordered stay); everything
  /// else is symmetric.
  void MirrorOf(const uint64_t* lanes, uint64_t* out) const;

  size_t footprint_bytes() const;

 private:
  friend class EvidenceBuilder;

  std::vector<ColumnLayout> layout_;
  int num_lanes_ = 1;
  std::vector<uint64_t> lanes_;  // num_words() x num_lanes_
  std::vector<int64_t> counts_;
  std::vector<Aggregate> aggs_;  // num_words() x num_tracked_
  int64_t total_pairs_ = 0;
  int num_tracked_ = 0;
};

/// Compiled comparison-word evaluator — the kernel's inner layer, exposed
/// for consumers that need pair identities (dedup's union-find, the
/// violation detector's witnesses) rather than the aggregated multiset.
/// Borrows the encoding and any tables it compiles; keep both alive while
/// using it.
///
/// Strip contract: for one anchor row i and a run of `count` partner rows,
/// `Strip` writes the word of every ordered pair (i, partner) lane-major —
/// lane l of partner k at words[l * count + k] — one column at a time: the
/// equality bit from a code compare, the order field from per-row ranks
/// (materialized once per row in Make), the bucket from the column's
/// CodeBucketTable or CodeDistanceTable strip lookup, each OR-ed into its
/// lane. Partners are either a contiguous row range or an explicit row list
/// (a PLI cluster, one anchor's pair-list partners); any partner may equal
/// or precede i. `Word` is the one-partner strip, so the word layout is
/// packed in exactly one place. Any strip length works; callers bound it
/// (the dense walk's tile_rows, kStripRows elsewhere) so their word buffers
/// stay cache-resident.
///
/// Memory: an order facet holds one 4-byte rank per row and operand column
/// (O(rows), not O(dictionary)), so a comparator over n rows with o order
/// columns adds 4·n·o bytes (twice that for a two-column facet) for its
/// lifetime; the tables are O(dictionary²).
class PairComparator {
 public:
  /// Strip length of every caller but the dense walk (the pruned and
  /// pair-list walks, the detector's and the dedup matcher's anchor
  /// loops); the kernel also works through longer strips in blocks of this
  /// many partners.
  static constexpr int kStripRows = 256;

  static Result<std::unique_ptr<PairComparator>> Make(
      const EncodedRelation& encoded, std::vector<EvidenceColumn> columns,
      ThreadPool* pool) {
    return Make(encoded, std::move(columns), pool,
                CodeDistanceTable::kDefaultMaxEntries);
  }

  /// Words of the ordered pairs (i, j0 + k), k in [0, count), into
  /// words[0, num_lanes() * count) lane-major. `tracked_dists`, when
  /// non-null, receives the distances per track slot:
  /// tracked_dists[slot * count + k].
  void Strip(int i, int j0, int count, uint64_t* words,
             double* tracked_dists = nullptr) const;

  /// Words of the ordered pairs (i, partners[k]), k in [0, count); the
  /// layouts are as above.
  void Strip(int i, const int* partners, int count, uint64_t* words,
             double* tracked_dists = nullptr) const;

  /// The comparison word of the ordered pair (i, j) into lanes[0,
  /// num_lanes()) — the one-partner strip; `tracked_dists`, when non-null,
  /// receives num_tracked() distances indexed by track slot.
  void Word(int i, int j, uint64_t* lanes,
            double* tracked_dists = nullptr) const;

  int num_bits() const { return num_bits_; }
  int num_lanes() const { return static_cast<int>(base_lanes_.size()); }
  int num_tracked() const { return num_tracked_; }
  const std::vector<EvidenceSet::ColumnLayout>& layout() const {
    return layout_;
  }

 private:
  friend class EvidenceBuilder;

  struct Col {
    const uint32_t* codes = nullptr;
    EvidenceColumn::Cmp cmp = EvidenceColumn::Cmp::kNone;
    int lane = 0;
    int cmp_shift = 0;
    bool const_unequal = false;  // all-distinct column: facet is constant
    /// Order facet: per-row ranks of the i side and of the partner side
    /// (empty for a one-column facet: the partner reads row_ranks). With a
    /// NaN present (`unordered`), a pair with a side at `nan_rank` and both
    /// in [numeric_lo, nan_rank] is a NaN against a number.
    std::vector<uint32_t> row_ranks;
    std::vector<uint32_t> b_row_ranks;
    bool unordered = false;
    uint32_t nan_rank = 0;
    uint32_t numeric_lo = 0;
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

  /// The strip kernel: partners are `partners[k]` when non-null, else
  /// j0 + k. Inlined into each entry point, so a one-partner call compiles
  /// to straight-line code, and a one-lane word (kOneLane) to the loops of
  /// a single 64-bit word, which every column ORs into in place.
  template <bool kOneLane>
  void Fill(int i, int j0, const int* partners, int count, uint64_t* words,
            double* tracked_dists) const;

  /// Fill<false>, out of line, so the one-lane copies inlined into Strip
  /// keep the size (and the optimization) of a one-word kernel.
  void FillLanes(int i, int j0, const int* partners, int count,
                 uint64_t* words, double* tracked_dists) const;

  std::vector<Col> cols_;
  std::vector<EvidenceSet::ColumnLayout> layout_;
  std::vector<uint64_t> base_lanes_;  // constant facet bits, per lane
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
