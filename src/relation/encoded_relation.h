#ifndef FAMTREE_RELATION_ENCODED_RELATION_H_
#define FAMTREE_RELATION_ENCODED_RELATION_H_

#include <cstdint>
#include <vector>

#include "common/attr_set.h"
#include "relation/relation.h"
#include "relation/value.h"

namespace famtree {

/// One column's dictionary under construction: Encode gives each cell a
/// dense code in first-occurrence order, the same code iff the Values are
/// equal under Value::operator==. A flat linear-probing table keyed by
/// Value::Hash and always refilled in code order, so a lookup meets equal
/// entries in code order and returns the *lowest* equal code: codes stay
/// deterministic although equality is not transitive above 2^53 (2^53+1 ==
/// 2^53.0 == 2^53 != 2^53+1). A NaN equals nothing: it takes a fresh code
/// and never enters the table. While every entry is an int the key is the
/// int itself (no hash, no variant compare). EncodedRelation's constructor
/// and Appended and the out-of-core ingester all encode through it.
class ValueDictionary {
 public:
  ValueDictionary() = default;
  /// Resumes a dictionary from its values in code order.
  explicit ValueDictionary(std::vector<Value> values);

  uint32_t Encode(const Value& v);

  size_t size() const { return values_.size(); }
  /// The representatives (each code's first occurrence) in code order.
  std::vector<Value> TakeValues() { return std::move(values_); }

 private:
  struct Slot {
    uint64_t key;
    uint32_t code;
  };
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  uint64_t KeyOf(const Value& v) const {
    return int_keys_ ? static_cast<uint64_t>(v.as_int()) : v.Hash();
  }
  size_t Home(uint64_t key) const {
    return (key * 0x9e3779b97f4a7c15ULL) >> shift_;
  }
  /// Refills the table from values_ in code order, at most a quarter full.
  void Rebuild();

  std::vector<Value> values_;
  std::vector<Slot> slots_;
  int shift_ = 64;  // 64 - log2(slots_.size())
  size_t entries_ = 0;
  bool int_keys_ = true;
};

/// Dictionary-encoded columnar view of a Relation: per column, a flat
/// std::vector<uint32_t> of codes plus a code -> Value dictionary. Built
/// once per relation, it turns every equality-driven primitive of the
/// discovery hot path (grouping, partition building, difference sets,
/// evidence sets) into integer array scans instead of std::variant walks
/// and heap-string comparisons.
///
/// Encoding contract: two cells of a column receive the same code iff their
/// Values compare equal under Value::operator== — including the
/// cross-representation numeric rule (Value(1) and Value(1.0) share one
/// code) and null semantics (all nulls of a column share one code). Codes
/// are dense, 0-based, and assigned in first-occurrence row order, so
/// grouping by code reproduces Relation::GroupBy's group order exactly.
/// The Value-based primitives on Relation remain the differential-test
/// oracle for every encoded path (tests/encoded_property_test.cc).
class EncodedRelation {
 public:
  /// Encodes every column of `relation`. The encoding is self-contained
  /// (dictionaries copy the representative Values); `relation` does not
  /// need to outlive the encoding.
  explicit EncodedRelation(const Relation& relation);

  /// Encodes only the columns in `attrs`; the rest get empty code arrays
  /// and dictionaries and must not be touched. For miners that restrict
  /// themselves to a column subset up front (e.g. numeric-only OD
  /// discovery), a local subset encoding skips the dictionary hashing of
  /// every ignored column — the dominant cost for wide mixed-type
  /// relations.
  EncodedRelation(const Relation& relation, AttrSet attrs);

  /// Assembles an encoding from already-built parts (the out-of-core
  /// ingester's shard merge). The caller guarantees the encoding contract:
  /// per column, codes dense and in first-occurrence row order, same code
  /// iff the Values compare equal, dictionaries holding the first
  /// occurrence's representative.
  EncodedRelation(int num_rows, std::vector<std::vector<uint32_t>> columns,
                  std::vector<std::vector<Value>> dicts);

  /// Incremental re-encode after a batch append: `base` must be the full
  /// encoding of `relation`'s first base.num_rows() rows, and `relation`
  /// must have grown by pure row appends since. Copies base's code arrays
  /// and dictionaries, resumes a ValueDictionary from each (O(distinct
  /// values), not O(rows)), and encodes only the appended rows —
  /// bit-identical to EncodedRelation(relation) built cold. Fails on a
  /// subset or mutated (SetCode) base, where the dense first-occurrence
  /// invariant needed for the splice no longer holds.
  static Result<EncodedRelation> Appended(const EncodedRelation& base,
                                          const Relation& relation);

  int num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  /// The flat code array of one column (size num_rows()).
  const std::vector<uint32_t>& codes(int col) const { return columns_[col]; }
  uint32_t code(int row, int col) const { return columns_[col][row]; }

  /// Number of distinct values (== codes) in a column.
  int dict_size(int col) const {
    return static_cast<int>(dicts_[col].size());
  }

  /// The representative Value of a code (the first occurrence's Value).
  const Value& Decode(int col, uint32_t code) const {
    return dicts_[col][code];
  }

  /// Dense per-row keys for the projection onto `attrs`: fills
  /// keys[row] in [0, k) where equal keys correspond exactly to equal
  /// projections, ids assigned in first-occurrence row order. Returns k.
  /// This is the shared primitive behind GroupBy, CountDistinct and the
  /// encoded partition builders. An empty `attrs` puts every row in one
  /// group (mirroring Relation::GroupBy); attributes must be in-schema.
  int RowKeys(AttrSet attrs, std::vector<uint32_t>* keys) const;

  /// Groups row indices by equal projection onto `attrs`; identical output
  /// (content and order) to Relation::GroupBy on the source relation.
  std::vector<std::vector<int>> GroupBy(AttrSet attrs) const;

  /// Number of distinct projections onto `attrs`; identical to
  /// Relation::CountDistinct on the source relation.
  int CountDistinct(AttrSet attrs) const;

  /// Rebinds cell (row, col) to another code that already exists in the
  /// column's dictionary. Repair-style writes copy values that already
  /// occur in the column, so their codes are maintainable in place — no
  /// re-encode of the working copy. After the first rebind the column's
  /// codes are no longer dense in first-occurrence order, so RowKeys /
  /// CountDistinct re-densify that column instead of trusting the
  /// invariant (tracked per column: untouched columns keep the fast
  /// path); the equality contract (same code iff equal Value) is
  /// untouched.
  void SetCode(int row, int col, uint32_t code) {
    columns_[col][row] = code;
    mutated_.Add(col);
  }

 private:
  bool IsMutated(int col) const { return mutated_.Contains(col); }

  int num_rows_ = 0;
  std::vector<std::vector<uint32_t>> columns_;
  std::vector<std::vector<Value>> dicts_;
  AttrSet mutated_;  // one bit per rebound column
};

/// Rank of each dictionary code of `col` under SortsBefore, ties broken by
/// code. Distinct codes hold distinct values, so distinct codes get distinct
/// ranks, and for NaN-free columns rank comparisons reproduce Value's
/// operator< exactly (the order-sensitive consumers — the evidence kernel's
/// order facet, OD, SD, speed cleaning — rely on this). NaN codes rank
/// last, in code order; since no two NaN cells share a code, that is their
/// row order, so a counting sort by rank orders rows as a std::stable_sort
/// by SortsBefore does (Sd::SortedOrder).
std::vector<uint32_t> CodeRanks(const EncodedRelation& enc, int col);

}  // namespace famtree

#endif  // FAMTREE_RELATION_ENCODED_RELATION_H_
