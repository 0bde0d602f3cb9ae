#ifndef FAMTREE_RELATION_RELATION_H_
#define FAMTREE_RELATION_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/attr_set.h"
#include "common/status.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace famtree {

/// Seed for the row-major cell chain of RelationFingerprint.
inline constexpr uint64_t kRelationChainSeed = 0x72656c66;

/// A relation instance: a schema plus column-major cell storage. Columns are
/// stored as vectors of Value so the library can mix categorical,
/// heterogeneous (string) and numerical data in one table — exactly the
/// setting the paper's DCs and CDDs address.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema);

  /// A copy carries the fingerprint chain along; a moved-from relation is
  /// left empty with a reset chain.
  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_columns(); }
  int num_rows() const { return num_rows_; }

  const Value& Get(int row, int col) const { return columns_[col][row]; }
  /// Overwrites one cell. A cell inside the fingerprint chain's prefix
  /// resets the chain, so the next RelationFingerprint rehashes every row.
  void Set(int row, int col, Value v);

  const std::vector<Value>& column(int col) const { return columns_[col]; }

  /// Appends a row; the row must have exactly num_columns() values. The
  /// fingerprint chain is left where it is (builders append row by row and
  /// may never ask for a fingerprint).
  Status AppendRow(std::vector<Value> row);

  /// Batch append: validates every row's arity up front, then appends all
  /// of them (all-or-nothing — a bad row leaves the relation untouched).
  /// Column types are NOT re-inferred; appended cells are expected to fit
  /// the existing schema, as in a monitoring stream. Use
  /// DiscoveryEngine::AppendRows instead when the relation is registered
  /// with an engine, so cached PLIs/evidence are maintained rather than
  /// silently staled. When the fingerprint chain covered every row before
  /// the append, it is advanced over the appended rows, so it stays current
  /// at O(batch) per append.
  Status AppendRows(std::vector<std::vector<Value>> rows);

  /// Folds every row past the fingerprint chain into it, after which
  /// RelationFingerprint costs O(schema) until the next mutation. One pass
  /// over the rows not yet folded; a no-op when the chain is current.
  void AdvanceFingerprintChain();

  /// Materializes one row (used by pretty-printing and tests).
  std::vector<Value> Row(int row) const;

  /// Row restricted to `attrs` in increasing attribute order.
  std::vector<Value> Project(int row, AttrSet attrs) const;

  /// True when rows i and j agree (are equal) on every attribute in `attrs`.
  bool AgreeOn(int i, int j, AttrSet attrs) const;

  /// Number of distinct values in the projection onto `attrs`
  /// (the |dom(X)|_r of the paper's SFD strength measure).
  int CountDistinct(AttrSet attrs) const;

  /// Groups row indices by equal projection onto `attrs`. Each group holds
  /// at least one row; groups are in first-occurrence order.
  std::vector<std::vector<int>> GroupBy(AttrSet attrs) const;

  /// New relation containing only `rows` (in the given order).
  Relation Select(const std::vector<int>& rows) const;

  /// New relation containing only the attributes in `attrs`.
  Relation ProjectColumns(AttrSet attrs) const;

  /// Infers per-column types: kInt/kDouble/kString when uniform (ignoring
  /// nulls), kNull otherwise. Updates the schema in place.
  void InferTypes();

  /// ASCII table rendering (for examples and benches).
  std::string ToPrettyString(int max_rows = 50) const;

 private:
  friend uint64_t RelationFingerprint(const Relation& relation);

  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  int num_rows_ = 0;
  /// RelationRowChain over rows [0, chain_rows_), chain_rows_ <= num_rows_.
  /// Only Set can change a folded cell, and it resets the chain.
  uint64_t chain_ = kRelationChainSeed;
  int chain_rows_ = 0;
};

/// Content fingerprint over the schema (names and types) and every cell.
/// Two relations with the same fingerprint are, for caching purposes, the
/// same data; DiscoveryEngine uses it to detect a relation freed and
/// reallocated at the address of one it still serves, or mutated in place.
///
/// The fingerprint is *append-chainable*: cell hashes fold row-major into a
/// running chain (RelationRowChain), and the schema + shape fold in last
/// (FinalizeRelationFingerprint). Each Relation keeps that chain over a
/// row prefix (advanced by AppendRows and AdvanceFingerprintChain, reset
/// by Set), and this function folds only the rows past it — so on a
/// relation grown through DiscoveryEngine::AppendRows it costs O(schema),
/// not O(cells). It never writes the relation, and its value always equals
/// a full pass over every cell: a freshly built or reallocated relation
/// starts with an empty chain, and a mutated cell resets it.
uint64_t RelationFingerprint(const Relation& relation);

/// Folds the cell hashes of rows [from_row, to_row), row-major, into
/// `chain`. RelationRowChain(r, 0, n, kRelationChainSeed) is the full
/// chain; appending extends it from the previous value.
uint64_t RelationRowChain(const Relation& relation, int from_row, int to_row,
                          uint64_t chain);

/// Folds schema names/types and the shape into a finished chain. Schema
/// folds *after* the cells so an append that widens an inferred column
/// type (int -> double on the sharded path) can refinalize the same cell
/// chain under the refreshed schema.
uint64_t FinalizeRelationFingerprint(uint64_t chain, const Schema& schema,
                                     int num_rows);

/// Builder with a fluent row API:
///   RelationBuilder b({"name", "price"});
///   b.AddRow({Value("Hyatt"), Value(230)});
class RelationBuilder {
 public:
  explicit RelationBuilder(const std::vector<std::string>& names)
      : relation_(Schema::FromNames(names)) {}
  explicit RelationBuilder(Schema schema) : relation_(std::move(schema)) {}

  RelationBuilder& AddRow(std::vector<Value> row);

  /// Finalizes: infers column types and returns the relation. The builder
  /// reports the first row-arity error, if any, here.
  Result<Relation> Build();

 private:
  Relation relation_;
  Status first_error_;
};

}  // namespace famtree

#endif  // FAMTREE_RELATION_RELATION_H_
