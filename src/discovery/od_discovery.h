#ifndef FAMTREE_DISCOVERY_OD_DISCOVERY_H_
#define FAMTREE_DISCOVERY_OD_DISCOVERY_H_

#include <vector>

#include "common/status.h"
#include "deps/od.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

struct OdDiscoveryOptions {
  /// Only consider numeric columns (order on strings is rarely meaningful
  /// for the paper's workloads, but can be enabled).
  bool numeric_only = true;
  int max_results = 10000;
  /// Optional engine hooks (each column is counting-sorted once by
  /// dictionary-code rank and every validity scan compares integer ranks): when
  /// `pool` is set the per-column-pair validity scans run in parallel (results
  /// merged in pair order, so the output is bit-identical at any thread count);
  /// `cache` lends its encoding (ODs sort rather than build partitions).
  ThreadPool* pool = nullptr;
  PliCache* cache = nullptr;
  /// Optional run limits (common/run_context.h): the driver check-points
  /// between deterministic units of work and, when a limit fires, returns
  /// the prefix of its results completed so far with RunReport.exhausted
  /// set. Null means unlimited.
  RunContext* context = nullptr;
};

struct DiscoveredOd {
  Od od;
};

/// Unary OD discovery in the spirit of ORDER [67] / FASTOD [99] restricted
/// to the bidirectional unary case: for every ordered column pair (A, B)
/// reports A^<= -> B^<= (B sorts with A) or A^<= -> B^>= (B sorts against
/// A) when valid. Unary ODs are the workhorse case (index reuse, Table 7's
/// nights/avg-night rule); the validity test sorts once per column pair.
Result<std::vector<DiscoveredOd>> DiscoverUnaryOds(
    const Relation& relation, const OdDiscoveryOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_DISCOVERY_OD_DISCOVERY_H_
