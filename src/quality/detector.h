#ifndef FAMTREE_QUALITY_DETECTOR_H_
#define FAMTREE_QUALITY_DETECTOR_H_

#include <vector>

#include "common/status.h"
#include "deps/dependency.h"
#include "gen/generators.h"
#include "relation/relation.h"

namespace famtree {

class PliCache;
class RunContext;
class ThreadPool;

/// Violations of one dependency on one relation.
struct DetectionResult {
  DependencyPtr dependency;
  ValidationReport report;
};

/// Aggregate outcome of a detection run.
struct DetectionSummary {
  std::vector<DetectionResult> results;
  /// Union of all rows appearing in any violation.
  std::vector<int> flagged_rows;
};

/// The violation-detection application (Table 3): runs a rule set against
/// a relation and aggregates the violating tuples. Works with *any* mix of
/// dependency classes — that is the point of the common interface.
class ViolationDetector {
 public:
  explicit ViolationDetector(std::vector<DependencyPtr> rules)
      : rules_(std::move(rules)) {}

  const std::vector<DependencyPtr>& rules() const { return rules_; }

  /// Validates every rule against `relation`; each report is bit-identical
  /// to the rule's own Validate (witnesses and their order, the cap,
  /// violation_count, holds, measure, descriptions) at any thread count.
  ///
  /// MDs and two-tuple DCs compile into one PairComparator comparison word
  /// over the relation's encoding (the `cache`'s when it serves this
  /// relation, a local one otherwise): one threshold-bucket facet per
  /// distinct (attr, metric) of the MD predicates, one equality bit per
  /// attribute an MD identifies, one equality or order facet per attribute
  /// a DC compares. One pair walk over anchor rows then checks every
  /// compiled rule — MDs over pairs i < j, DCs over ordered pairs i != j —
  /// fanned out on the `pool`. The walk runs in ordered blocks of anchor
  /// rows and buffers only the witnesses a report still lacks, so it holds
  /// at most one block's worth of `max_violations_per_rule` witnesses per
  /// rule (charged to the `context`'s budget until merged). A rule stays on
  /// its Validate when the word cannot express it: single-tuple DCs, DCs
  /// with constants, cross-column or tb-vs-ta predicates; order predicates
  /// on a column whose dictionary holds a NaN; NaN or negative thresholds
  /// and invalid rules (so their Status is unchanged); columns whose cells
  /// differ from their dictionary representative (1 beside 1.0, 0.0 beside
  /// -0.0); rules that would push the word past 64 bits. Those rules, and
  /// every other class, are validated concurrently on the `pool`, one slot
  /// per rule. With a `cache`, FD rules are first checked against the
  /// shared PLI store — a holding FD is confirmed from two cached
  /// partitions without re-grouping the relation; violated FDs fall back
  /// to the full witness-collecting validation.
  ///
  /// With a `context`, the walk check-points between anchor-row batches and
  /// the fallback rules between rule batches: when a deadline,
  /// cancellation, or budget fires, the summary covers the prefix of rules
  /// finished so far — a compiled rule only when the walk finished — which
  /// is the same at any thread count, and the context's RunReport records
  /// the cutoff (exhausted flag, rules done / total).
  Result<DetectionSummary> Detect(const Relation& relation,
                                  int max_violations_per_rule = 1000,
                                  ThreadPool* pool = nullptr,
                                  PliCache* cache = nullptr,
                                  RunContext* context = nullptr) const;

 private:
  std::vector<DependencyPtr> rules_;
};

/// Precision/recall of flagged rows against planted errors — the
/// Section 2.7 discussion quantified: statistical extensions raise recall
/// and drag precision; conditional extensions keep precision high at
/// bounded recall.
struct PrecisionRecall {
  double precision = 1.0;
  double recall = 1.0;
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;
};

PrecisionRecall ScoreDetection(const DetectionSummary& summary,
                               const std::vector<PlantedError>& errors);

/// Human-readable rendering of one violation with the involved tuples'
/// cell values — what a steward sees in a report:
///   violation of address -> region:
///     row 2: (St. Regis Hotel, #3 West Lake Rd., Boston, ...)
///     row 3: (St. Regis, #3 West Lake Rd., Chicago MA, ...)
///   equal on LHS but differ on RHS
std::string FormatViolation(const Relation& relation,
                            const Dependency& dependency,
                            const Violation& violation);

}  // namespace famtree

#endif  // FAMTREE_QUALITY_DETECTOR_H_
