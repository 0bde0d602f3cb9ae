#ifndef FAMTREE_DISCOVERY_HYBRID_SAMPLER_H_
#define FAMTREE_DISCOVERY_HYBRID_SAMPLER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/attr_set.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/evidence.h"
#include "engine/pli_cache.h"
#include "relation/encoded_relation.h"
#include "relation/partition.h"

namespace famtree {

/// Tuple-pair sampler of the hybrid FD engine (HyFD's focused sampling):
/// draws candidate violating pairs from single-attribute PLI clusters —
/// rows at window distance w within a cluster — and turns each pair into an
/// agree set through the PR 4 pairwise comparison kernel (one
/// PairComparator word per pair, every column an equality facet).
///
/// Priority-window focusing: each attribute keeps the efficiency of its
/// last pass (new distinct agree sets per compared pair, +inf before the
/// first pass); rounds always run the currently most efficient attribute
/// with its window grown by one, until every attribute's efficiency falls
/// below the configured floor. All sampling runs on the driver thread —
/// pass order, pair order, and therefore the set of sampled agree sets are
/// pure functions of the input, never of the thread count.
///
/// The sampler also owns the global agree-set dedup shared with the
/// validator's violation feedback (MarkSeen), so the induction never
/// reprocesses a set — a proven no-op, skipped for speed.
class HybridSampler {
 public:
  struct Stats {
    int64_t passes = 0;
    int64_t sampled_pairs = 0;
    int64_t new_agree_sets = 0;
  };

  /// Borrows `encoded` (and `cache` when given; single-attribute PLIs are
  /// pinned there, so borrowing them is free). A stopped PLI fetch or
  /// comparator build returns the latched stop Status.
  static Result<std::unique_ptr<HybridSampler>> Make(
      const EncodedRelation& encoded, PliCache* cache, ThreadPool* pool,
      RunContext* ctx);

  /// Runs priority-window passes until the best attribute efficiency drops
  /// below `min_efficiency`, appending newly seen agree sets to `out`.
  /// Checkpoints once per pass (driver thread) and charges the new agree
  /// sets at the "hybrid_sample" site; a stop Status is returned with `out`
  /// holding only fully charged passes.
  Status SampleRounds(double min_efficiency, std::vector<AttrSet>* out,
                      Stats* stats);

  /// Agree set of one explicit row pair — the validator's violation
  /// feedback path.
  AttrSet AgreeSetOf(int i, int j) const;

  /// Global dedup across sampling and feedback; true exactly when the set
  /// was not seen before (and is now recorded).
  bool MarkSeen(AttrSet agree);

  int64_t distinct_agree_sets() const {
    return static_cast<int64_t>(seen_.size());
  }

 private:
  HybridSampler(const EncodedRelation& encoded, RunContext* ctx)
      : encoded_(encoded), ctx_(ctx) {}

  /// One window pass over every cluster of `attr`'s PLI; appends new agree
  /// sets to `out` and returns the number of pairs compared (or a stop
  /// Status from the per-pair Poll).
  Result<int64_t> RunPass(int attr, int window, std::vector<AttrSet>* out);

  /// One comparison word: an equality bit per column, so at most
  /// kMaxAttrs / 64 lanes.
  using Word = std::array<uint64_t, kMaxAttrs / 64>;

  /// Unpacks one comparator word into the agree set.
  AttrSet AgreeFromWord(const Word& word) const;

  const EncodedRelation& encoded_;
  RunContext* ctx_;
  /// One comparison word per pair, an equality facet per column.
  std::unique_ptr<PairComparator> comparator_;
  std::vector<std::shared_ptr<const StrippedPartition>> plis_;
  std::vector<int> window_;
  std::vector<double> efficiency_;
  std::unordered_set<AttrSet, AttrSetHash> seen_;
  /// Prefilter in front of `seen_` for schemas of at most 64 columns: the
  /// one-lane word determines the agree set, so a repeated word can never
  /// produce a fresh set. Probing 8-byte words first keeps the multi-word
  /// AttrSet hash and compare off the per-pair path (the overwhelmingly
  /// common repeat case).
  std::unordered_set<uint64_t> seen_words_;
};

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_HYBRID_SAMPLER_H_
