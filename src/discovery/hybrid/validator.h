#ifndef FAMTREE_DISCOVERY_HYBRID_VALIDATOR_H_
#define FAMTREE_DISCOVERY_HYBRID_VALIDATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/attr_set.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "discovery/hybrid/fd_tree.h"
#include "engine/pli_cache.h"
#include "relation/encoded_relation.h"
#include "relation/partition.h"

namespace famtree {

/// Frontier validator of the hybrid FD engine: checks exactly the
/// positive-cover entries of one lattice level against PLIs — the HyFD
/// move that replaces level-wide candidate enumeration with the (usually
/// tiny) cover frontier. An entry X -> A is valid iff every stripped class
/// of PLI(X) is constant on A's codes; an invalid entry reports a
/// violating pair, which the driver feeds back to the sampler/inductor as
/// a new violating agree set. Which pair depends on the check:
///  - PLI check: the first non-constant class of PLI(X) in partition
///    order, the class head against the first row disagreeing with it.
///  - Suspect-row check (RestrictToSuspectRows, cover repair after an
///    append): the first suspect row in row order that has a violating
///    partner, and its first such partner in leaf-class order.
/// Any violating pair drives the inductor to the same final cover.
///
/// Suspect-row check (the DynFD move, Schirmer et al., EDBT 2019): when
/// every entry is known to hold on rows [0, s), a violating pair must hold
/// a row r >= s and a partner agreeing with r on X, so on r's class in the
/// leaf PLI of one attribute x of X. For each suspect r the validator
/// takes the x whose leaf class holding r is smallest and fills, once per
/// run and shared by every entry, the distinct agree sets of r with that
/// class's rows (one representative partner each); X -> A is violated iff
/// one of them contains X but not A. Level 0 compares the suspect rows
/// with row 0. An entry whose summed class sizes exceed the row count
/// takes the PLI check instead — a worst-case rule on the input alone.
///
/// Determinism: entries are validated in parallel into index-addressed
/// slots and the caller replays them in the collected (lhs.mask, rhs)
/// order; PLI class content is deterministic (PliCache's recipe), and the
/// suspect-row agree sets are filled before each level's fan-out, so the
/// violating pair of an invalid entry never depends on the thread count.
class FrontierValidator {
 public:
  struct Violation {
    int rhs = 0;
    int row_i = 0;
    int row_j = 0;
  };

  /// Per-entry outcome, rhs slots split into the valid set and the
  /// violations (ascending rhs within the entry).
  struct EntryResult {
    AttrSet valid_rhs;
    std::vector<Violation> violations;
  };

  struct LevelStats {
    int64_t checks = 0;      // (lhs, rhs) frontier validations
    int64_t violations = 0;  // invalid ones among them
  };

  /// Borrows everything; `cache` may be null (PLIs are then built locally
  /// per entry).
  FrontierValidator(const EncodedRelation& encoded, PliCache* cache,
                    ThreadPool* pool, RunContext* ctx)
      : encoded_(encoded), cache_(cache), pool_(pool), ctx_(ctx) {}

  /// Promises that every entry the tree will hold is valid on rows
  /// [0, first_suspect_row), which turns on the suspect-row check. Needs
  /// `cache` (its pinned leaves locate the suspects' classes); without one
  /// this is a no-op.
  void RestrictToSuspectRows(int first_suspect_row);

  /// Collects the level-`level` frontier of `tree` into `entries` (sorted
  /// by lhs.mask) and validates every entry. The level's scratch is charged
  /// at the "hybrid_validate" site on the driver thread before it is
  /// allocated: once per level for the result slots and the worst case of
  /// the new suspect-row agree sets (the unused part is refunded after the
  /// fill), and before that, on a level that pins new leaves or builds the
  /// suspect index, once for those. On a stop the level's results are
  /// abandoned (the driver keeps only fully validated levels).
  Status ValidateLevel(const FdTree& tree, int level,
                       std::vector<FdTree::Entry>* entries,
                       std::vector<EntryResult>* results, LevelStats* stats);

 private:
  /// One distinct agree set of a suspect row with its leaf class, and the
  /// first partner (in class order) that produced it.
  struct AgreeRep {
    AttrSet agree;
    int partner = 0;
  };

  /// PLI check; level 0 (and only level 0) honours the suspect rows.
  Status ValidateEntry(const FdTree::Entry& entry, EntryResult* result) const;
  /// Suspect-row check of an entry with a non-empty LHS, over the filled
  /// (s * num_columns + x) `keys` that planning chose for it, in suspect
  /// order.
  void ValidateSuspects(const FdTree::Entry& entry,
                        const std::vector<int>& keys,
                        EntryResult* result) const;

  /// Pins column x's leaf and records each suspect row's class in it
  /// through an O(dict) code -> class map.
  Status LoadLeaf(int x);
  /// The attribute of `lhs` whose leaf class holding suspect `s` is
  /// smallest (lowest attribute on ties), or -1 when some attribute of
  /// `lhs` holds s alone. Leaves of `lhs` must be loaded.
  int SmallestClassAttr(AttrSet lhs, int s, int* class_size) const;
  /// Distinct agree sets of suspect `s` with its class in x's leaf.
  std::vector<AgreeRep> FillAgreeSets(int s, int x) const;

  const EncodedRelation& encoded_;
  PliCache* cache_;
  ThreadPool* pool_;
  RunContext* ctx_;

  /// Suspect-row check state; first_suspect_ < 0 means PLI checks only.
  int first_suspect_ = -1;
  int num_suspects_ = 0;
  std::vector<std::shared_ptr<const StrippedPartition>> leaves_;
  /// [s * num_columns + x]: class of suspect s in x's leaf, -1 alone.
  /// Allocated, with fill_of_, by the first level that checks suspects.
  std::vector<int> suspect_class_;
  /// [s * num_columns + x]: index into fills_, -1 before the fill.
  std::vector<int> fill_of_;
  std::vector<std::vector<AgreeRep>> fills_;
};

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_HYBRID_VALIDATOR_H_
