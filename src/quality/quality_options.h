#ifndef FAMTREE_QUALITY_QUALITY_OPTIONS_H_
#define FAMTREE_QUALITY_QUALITY_OPTIONS_H_

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

/// Engine hooks shared by the quality applications' QualityOptions
/// overloads, following the same convention as the discovery miners: they
/// run on the dictionary-encoded columnar backend, fanning the read-only
/// scans onto the engine thread pool with all order-sensitive merges
/// replayed serially — results are identical at any thread count and to
/// the plain overloads without options, which stay the Value-based
/// reference. `cache` lends its encoding when the application reads the
/// relation it serves (appliers that mutate a working copy re-encode that
/// copy instead). Pairwise matching goes through the shared comparison
/// kernel (engine/evidence.h): similarity predicates compile to per-pair
/// threshold-bucket bits decoded by bitmask per rule, over a word of as
/// many 64-bit lanes as the rule set needs.
struct QualityOptions {
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): applications check-point
  /// at pass/rule boundaries and degrade to a partial result (with
  /// RunReport.exhausted set) when a limit fires.
  RunContext* context = nullptr;
};

}  // namespace famtree

#endif  // FAMTREE_QUALITY_QUALITY_OPTIONS_H_
