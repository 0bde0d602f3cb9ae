#ifndef FAMTREE_RELATION_PARTITION_H_
#define FAMTREE_RELATION_PARTITION_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/attr_set.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"

namespace famtree {

/// A stripped partition (position list index, PLI) in the style of TANE
/// [Huhtala et al. 1999]: the equivalence classes of rows that agree on an
/// attribute set, with singleton classes removed. Stripped partitions are
/// the workhorse of lattice-based dependency discovery — FD validity,
/// the g3 error of AFDs and key detection all read off them directly.
///
/// Storage is a flat CSR layout: one contiguous `row_indices` array holding
/// every class's rows back to back, plus a `class_offsets` array with one
/// offset per class boundary (size num_classes + 1). Compared to the
/// earlier vector<vector<int>> layout this is one allocation instead of one
/// per class, and Refine walks it with a reusable per-thread scratch probe
/// table instead of a freshly allocated hash map per class — the two moves
/// the discovery hot path needs to run at memory speed.
class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// Builds the partition by a single attribute / an attribute set from the
  /// Value-based grouping on the relation. These are the differential-test
  /// oracle paths; the engine uses the EncodedRelation overloads below.
  static StrippedPartition ForAttribute(const Relation& relation, int attr);
  static StrippedPartition ForAttributeSet(const Relation& relation,
                                           AttrSet attrs);

  /// Encoded fast paths: counting-sort over the dictionary codes (single
  /// attribute) or over dense row keys (attribute set). Classes come out in
  /// first-occurrence order — identical, class for class and row for row,
  /// to the Value-based builders above.
  static StrippedPartition ForAttribute(const EncodedRelation& encoded,
                                        int attr);
  static StrippedPartition ForAttributeSet(const EncodedRelation& encoded,
                                           AttrSet attrs);

  /// Assembles a partition from already-stripped CSR arrays (the
  /// out-of-core run merge). The caller guarantees the invariants: classes
  /// in first-occurrence order, rows ascending within a class, every class
  /// size >= 2, and `class_offsets` of size num_classes + 1 (or empty when
  /// there are no classes).
  static StrippedPartition FromCsr(std::vector<int> row_indices,
                                   std::vector<int> class_offsets) {
    return StrippedPartition(std::move(row_indices),
                             std::move(class_offsets));
  }

  /// Refinement, the one product kernel: splits every class of this
  /// partition (for X) by attribute b's dictionary `codes` (in
  /// [0, num_codes)), giving the partition for X ∪ {b} in time linear in
  /// this partition's rows; b's own partition is never walked.
  /// Class order: this partition's classes in order, each replaced by its
  /// sub-classes in first-touch order, rows ascending, singletons dropped —
  /// not the leaf builders' first-occurrence order, so compare partitions
  /// of different recipes in a canonical form.
  StrippedPartition Refine(const std::vector<uint32_t>& codes,
                           int num_codes) const;

  /// Partition product for X ∪ Y: refines this partition by `other`'s class
  /// ids, stamped into a per-thread scratch (rows outside its classes are
  /// alone). For a leaf `other` it is byte-identical to Refine by the
  /// leaf's codes; for callers without flat codes (out-of-core PLI cache).
  StrippedPartition Product(const StrippedPartition& other,
                            int num_rows) const;

  /// Constancy check: X -> A holds iff every class of this partition (for
  /// X) is constant on A's `codes`. Returns std::nullopt when it holds,
  /// else the head of the first non-constant class and its first row with
  /// a different code. The second overload keys by A's partition `other`
  /// instead (PLI-only callers) and returns the identical pair.
  std::optional<std::pair<int, int>> FirstViolation(
      const std::vector<uint32_t>& codes) const;
  std::optional<std::pair<int, int>> FirstViolation(
      const StrippedPartition& other, int num_rows) const;

  /// Number of equivalence classes of size >= 2.
  int num_classes() const {
    return class_offsets_.empty()
               ? 0
               : static_cast<int>(class_offsets_.size()) - 1;
  }

  /// Sum of the sizes of the stripped classes.
  int num_rows_in_classes() const {
    return static_cast<int>(row_indices_.size());
  }

  /// Total number of equivalence classes including singletons
  /// (== CountDistinct of the underlying attribute set).
  int NumDistinct(int num_rows) const {
    return num_rows - num_rows_in_classes() + num_classes();
  }

  /// TANE's e(X) measure scaled to g3: the minimum fraction of rows to
  /// remove so X becomes a key, i.e. (rows_in_classes - num_classes)/n.
  double KeyError(int num_rows) const {
    if (num_rows == 0) return 0.0;
    return static_cast<double>(num_rows_in_classes() - num_classes()) /
           num_rows;
  }

  /// True iff every class is a singleton (X is a key).
  bool IsKey() const { return row_indices_.empty(); }

  /// Flat CSR access: rows of class `c` are
  /// row_indices()[class_offsets()[c] .. class_offsets()[c+1]).
  const std::vector<int>& row_indices() const { return row_indices_; }
  const std::vector<int>& class_offsets() const { return class_offsets_; }
  int class_size(int c) const {
    return class_offsets_[c + 1] - class_offsets_[c];
  }
  const int* class_begin(int c) const {
    return row_indices_.data() + class_offsets_[c];
  }

  /// Size of the largest stripped class (0 when the set is a key).
  int MaxClassSize() const;

  /// Materialized nested view (one vector per class). For tests and
  /// pretty-printing only — hot paths use the flat accessors.
  std::vector<std::vector<int>> classes() const;

  /// The g3 error of the FD X -> Y (fraction of rows to delete so the FD
  /// holds), computed from this partition (for X) against the `rhs` column
  /// grouping. Matches the paper's Section 2.3.1 definition. The Relation
  /// overload is the Value-based oracle; the code-keyed overload (Y one
  /// attribute, keyed like Refine) counts plurality codes through a scratch
  /// array and returns the identical value.
  double FdError(const Relation& relation, AttrSet rhs) const;
  double FdError(const std::vector<uint32_t>& codes, int num_codes) const;

 private:
  StrippedPartition(std::vector<int> row_indices,
                    std::vector<int> class_offsets)
      : row_indices_(std::move(row_indices)),
        class_offsets_(std::move(class_offsets)) {}

  explicit StrippedPartition(const std::vector<std::vector<int>>& classes);

  /// Shared counting-sort core: builds the stripped CSR arrays from dense
  /// per-row keys (key order == first-occurrence order).
  static StrippedPartition FromRowKeys(const std::vector<uint32_t>& keys,
                                       int num_keys);

  std::vector<int> row_indices_;
  /// Class boundaries; size num_classes + 1 when classes exist, empty for a
  /// default-constructed or classless partition.
  std::vector<int> class_offsets_;
};

}  // namespace famtree

#endif  // FAMTREE_RELATION_PARTITION_H_
