#include "quality/detector.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <typeinfo>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "deps/dc.h"
#include "deps/fd.h"
#include "deps/md.h"
#include "discovery/discovery_util.h"
#include "engine/evidence.h"
#include "engine/pli_cache.h"
#include "quality/similarity_facets.h"

namespace famtree {

namespace {

/// Confirms an exact FD rule straight from the shared PLI store (whose
/// partitions are counting-sorted off the cache's dictionary-encoded
/// backend): X -> Y holds iff pi(X) and pi(X u Y) have equal refinement
/// cost. Returns true
/// (and fills a clean report matching Fd::Validate's holding output) only
/// when the FD holds; violated FDs return false so the caller collects
/// witnesses through the regular path.
bool TryConfirmFdFromCache(const Relation& relation, const Dependency& rule,
                           PliCache* cache, RunContext* context,
                           ValidationReport* report) {
  if (cache == nullptr || cache->relation_or_null() != &relation) return false;
  const auto* fd = dynamic_cast<const Fd*>(&rule);
  if (fd == nullptr || fd->lhs().empty()) return false;
  AttrSet all = fd->lhs().Union(fd->rhs());
  if (!AttrSet::Full(relation.num_columns()).ContainsAll(all)) return false;
  std::shared_ptr<const StrippedPartition> x = cache->Get(fd->lhs(), context);
  std::shared_ptr<const StrippedPartition> xy = cache->Get(all, context);
  if (x == nullptr || xy == nullptr) return false;
  if (!StrippedPartition::FdHolds(*x, *xy)) return false;
  report->holds = true;
  report->violation_count = 0;
  report->violations.clear();
  report->measure = 1.0;
  return true;
}

/// True when every cell of `col` is the very Value its dictionary code
/// stands for (same type; for doubles the same sign of zero). Then a
/// metric on two codes' representatives is the metric on the cells, and —
/// as two equal Values always hash alike — distinct codes hold unequal
/// Values, so code comparisons are exactly Value comparisons. Columns
/// mixing 1 with 1.0, 0.0 with -0.0, or a giant int with the double it
/// equals break this and keep their rules on Validate.
bool CellsMatchCodes(const Relation& relation, const EncodedRelation& encoded,
                     int col) {
  const std::vector<Value>& cells = relation.column(col);
  const std::vector<uint32_t>& codes = encoded.codes(col);
  for (size_t row = 0; row < cells.size(); ++row) {
    const Value& cell = cells[row];
    const Value& rep = encoded.Decode(col, codes[row]);
    if (cell.type() != rep.type()) return false;
    if (cell.type() == ValueType::kDouble &&
        std::signbit(cell.as_double()) != std::signbit(rep.as_double())) {
      return false;
    }
  }
  return true;
}

/// An MD lowered onto the word: similar on the LHS buckets, identified when
/// every RHS comparison field reads "equal" (zero).
struct WordMd {
  int rule = 0;
  SimilarityTest lhs;
  uint64_t rhs_mask = 0;
};

/// A two-tuple DC lowered onto the word. The predicates on one attribute
/// intersect into one accept set over its comparison field (0 equal,
/// 1 less, 2 greater; an equality bit reads 0 or 1 = unequal), and every
/// accept set but {less, greater} on an order field is a pattern of fixed
/// bits: the DC holds on a word when (word & mask) == value and each
/// `nonzero` field reads less or greater. An empty accept set can never
/// hold; it lowers to a zero `nonzero` field.
struct WordDc {
  int rule = 0;
  uint64_t mask = 0;
  uint64_t value = 0;
  std::vector<uint64_t> nonzero;

  bool Holds(uint64_t word) const {
    bool ok = (word & mask) == value;
    for (uint64_t field : nonzero) ok &= (word & field) != 0;
    return ok;
  }

  /// Adds the constraint "the field in `layout` reads a value of `accept`"
  /// (bit t of `accept` = field value t).
  void Require(const EvidenceSet::ColumnLayout& layout, unsigned accept) {
    const uint64_t field = layout.cmp_mask();
    if (layout.cmp == EvidenceColumn::Cmp::kEquality) {
      switch (accept & 0b011) {
        case 0b001: mask |= field; break;
        case 0b010: mask |= field; value |= field; break;
        case 0b011: break;
        default: nonzero.push_back(0); break;
      }
      return;
    }
    const uint64_t lo = field & (field >> 1), hi = field & ~lo;
    switch (accept & 0b111) {
      case 0b001: mask |= field; break;
      case 0b010: mask |= field; value |= lo; break;
      case 0b100: mask |= field; value |= hi; break;
      case 0b011: mask |= hi; break;
      case 0b101: mask |= lo; break;
      case 0b110: nonzero.push_back(field); break;
      case 0b111: break;
      default: nonzero.push_back(0); break;
    }
  }
};

/// Field values (bit t = value t) that satisfy ta.A op tb.A.
unsigned AcceptSet(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return 0b001;
    case CmpOp::kNeq: return 0b110;
    case CmpOp::kLt: return 0b010;
    case CmpOp::kLe: return 0b011;
    case CmpOp::kGt: return 0b100;
    case CmpOp::kGe: return 0b101;
  }
  return 0;
}

bool IsOrderOp(CmpOp op) { return op != CmpOp::kEq && op != CmpOp::kNeq; }

/// Compiles the MD and same-column DC rules of one Detect call into one
/// PairComparator word and validates all of them in one anytime pair walk:
/// one threshold-bucket facet per distinct (attr, metric) of the MD
/// predicates (SimilarityFacets), and one comparison facet per attribute an
/// MD identifies or a DC reads — an order facet when some DC orders it, an
/// equality bit otherwise. Rules whose shape the word cannot express, or
/// that would push it past 64 bits, are left to their Validate.
class PairRuleWord {
 public:
  PairRuleWord(const Relation& relation, const EncodedRelation& encoded)
      : relation_(relation),
        encoded_(encoded),
        faithful_(relation.num_columns(), -1),
        has_nan_(relation.num_columns(), -1) {}

  /// Adds rule `index` when it compiles and still fits; false leaves it to
  /// Validate.
  bool TryAdd(int index, const Dependency& rule) {
    SimilarityFacets facets = facets_;
    std::vector<std::pair<int, EvidenceColumn::Cmp>> cmps = cmps_;
    if (typeid(rule) == typeid(Md)) {
      const auto& md = static_cast<const Md&>(rule);
      if (!MdCompiles(md)) return false;
      facets.Add(md.lhs());
      for (int a : md.rhs().ToVector()) {
        NeedCmp(&cmps, a, EvidenceColumn::Cmp::kEquality);
      }
      if (!Fits(facets, cmps)) return false;
      mds_.push_back(index);
    } else if (typeid(rule) == typeid(Dc)) {
      const auto& dc = static_cast<const Dc&>(rule);
      if (!DcCompiles(dc)) return false;
      for (const DcPredicate& p : dc.predicates()) {
        NeedCmp(&cmps, p.lhs.attr,
                IsOrderOp(p.op) ? EvidenceColumn::Cmp::kOrder
                                : EvidenceColumn::Cmp::kEquality);
      }
      if (!Fits(facets, cmps)) return false;
      dcs_.push_back(index);
    } else {
      return false;
    }
    facets_ = std::move(facets);
    cmps_ = std::move(cmps);
    return true;
  }

  bool empty() const { return mds_.empty() && dcs_.empty(); }

  /// Validates every added rule into `reports` (indexed like `rules`).
  /// Returns true when the walk finished; a run limit cuts it at an anchor
  /// batch (or at the witness charge) and leaves every added rule
  /// unfinished.
  Result<bool> Walk(const std::vector<DependencyPtr>& rules,
                    int max_violations, ThreadPool* pool, RunContext* context,
                    std::vector<ValidationReport>* reports) const {
    std::vector<EvidenceColumn> config = facets_.columns();
    for (const auto& [attr, cmp] : cmps_) {
      EvidenceColumn col;
      col.attr = attr;
      col.cmp = cmp;
      config.push_back(std::move(col));
    }
    FAMTREE_ASSIGN_OR_RETURN(
        std::unique_ptr<PairComparator> pc,
        PairComparator::Make(encoded_, std::move(config), pool));
    const std::vector<EvidenceSet::ColumnLayout>& layout = pc->layout();
    auto cmp_layout = [&](int attr) -> const EvidenceSet::ColumnLayout& {
      size_t k = 0;
      while (cmps_[k].first != attr) ++k;
      return layout[facets_.columns().size() + k];
    };
    std::vector<WordMd> mds;
    for (int index : mds_) {
      const auto& md = static_cast<const Md&>(*rules[index]);
      WordMd w;
      w.rule = index;
      w.lhs = facets_.Compile(md.lhs(), layout);
      for (int a : md.rhs().ToVector()) {
        w.rhs_mask |= cmp_layout(a).cmp_mask();
      }
      mds.push_back(std::move(w));
    }
    std::vector<WordDc> dcs;
    for (int index : dcs_) {
      const auto& dc = static_cast<const Dc&>(*rules[index]);
      WordDc w;
      w.rule = index;
      std::vector<std::pair<int, unsigned>> accepts;  // per attribute
      for (const DcPredicate& p : dc.predicates()) {
        auto it = std::find_if(accepts.begin(), accepts.end(),
                               [&](const auto& a) {
                                 return a.first == p.lhs.attr;
                               });
        if (it == accepts.end()) {
          accepts.emplace_back(p.lhs.attr, AcceptSet(p.op));
        } else {
          it->second &= AcceptSet(p.op);
        }
      }
      for (const auto& [attr, accept] : accepts) {
        w.Require(cmp_layout(attr), accept);
      }
      dcs.push_back(std::move(w));
    }

    const size_t num_mds = mds.size(), num_rules = num_mds + dcs.size();
    std::vector<ValidationReport*> out(num_rules);
    for (size_t m = 0; m < num_mds; ++m) out[m] = &(*reports)[mds[m].rule];
    for (size_t d = 0; d < dcs.size(); ++d) {
      out[num_mds + d] = &(*reports)[dcs[d].rule];
    }
    // Anchors run in ordered blocks of kAnchorBlock rows. In a block, anchor
    // row i checks the MDs over its pairs (i, j > i) and the DCs over its
    // ordered pairs (i, j != i). It counts every violation but buffers, per
    // rule and in j order, only as many witnesses as the rule's report still
    // lacks. The block then merges into the reports in row order, which
    // reproduces Validate's witness order and cap. So the buffer never holds
    // more than kAnchorBlock * max_violations pairs per rule; each block's
    // buffer is charged to the run's budget until it is merged. The counts
    // are sums, so any schedule gives the same totals.
    constexpr int kAnchorBlock = 64;
    const int n = encoded_.num_rows();
    std::vector<std::atomic<int64_t>> violations(num_rules);
    std::vector<std::atomic<int64_t>> similar(num_mds), identified(num_mds);
    std::vector<int64_t> need(num_rules);
    std::vector<std::vector<std::pair<int, int>>> hits(kAnchorBlock);
    for (int b0 = 0; b0 < n; b0 += kAnchorBlock) {
      const int b1 = std::min(n, b0 + kAnchorBlock);
      for (size_t r = 0; r < num_rules; ++r) {
        need[r] = max_violations -
                  static_cast<int64_t>(out[r]->violations.size());
      }
      FAMTREE_ASSIGN_OR_RETURN(
          int64_t anchors_done,
          AnytimeParallelFor(context, pool, b1 - b0, [&](int64_t k) {
            const int i = b0 + static_cast<int>(k);
            std::vector<int64_t> viol(num_rules, 0), sim(num_mds, 0),
                ident(num_mds, 0);
            std::vector<std::pair<int, int>>& hit = hits[k];
            auto record = [&](size_t r, int j) {
              if (viol[r]++ < need[r]) {
                hit.emplace_back(static_cast<int>(r), j);
              }
            };
            for (int j = dcs.empty() ? i + 1 : 0; j < n; ++j) {
              if (j == i) continue;
              const uint64_t w = pc->Word(i, j);
              if (j > i) {
                for (size_t m = 0; m < num_mds; ++m) {
                  if (!mds[m].lhs.Holds(w)) continue;
                  ++sim[m];
                  if ((w & mds[m].rhs_mask) == 0) {
                    ++ident[m];
                  } else {
                    record(m, j);
                  }
                }
              }
              for (size_t d = 0; d < dcs.size(); ++d) {
                if (dcs[d].Holds(w)) record(num_mds + d, j);
              }
            }
            for (size_t r = 0; r < num_rules; ++r) {
              violations[r].fetch_add(viol[r], std::memory_order_relaxed);
            }
            for (size_t m = 0; m < num_mds; ++m) {
              similar[m].fetch_add(sim[m], std::memory_order_relaxed);
              identified[m].fetch_add(ident[m], std::memory_order_relaxed);
            }
            return Status::OK();
          }));
      if (anchors_done < b1 - b0) return false;
      size_t buffered = 0;
      for (int k = 0; k < b1 - b0; ++k) {
        buffered += hits[k].size() * sizeof(hits[k][0]);
      }
      if (!RunContext::ChargeAlloc(context, buffered, "detect_witnesses")
               .ok()) {
        return false;
      }
      for (int k = 0; k < b1 - b0; ++k) {
        for (const auto& [r, j] : hits[k]) {
          if (static_cast<int>(out[r]->violations.size()) >= max_violations) {
            continue;
          }
          out[r]->violations.push_back(
              Violation{{b0 + k, j}, r < static_cast<int>(num_mds)
                                         ? Md::kViolationDescription
                                         : Dc::kPairViolationDescription});
        }
        hits[k].clear();
      }
      if (context != nullptr && context->memory_budget() != nullptr &&
          buffered > 0) {
        context->memory_budget()->Release(buffered);
      }
    }

    for (size_t m = 0; m < num_mds; ++m) {
      Md::Stats stats;
      stats.similar_pairs = similar[m].load(std::memory_order_relaxed);
      stats.identified_pairs = identified[m].load(std::memory_order_relaxed);
      out[m]->measure = stats.confidence();
    }
    for (size_t r = 0; r < num_rules; ++r) {
      out[r]->violation_count = violations[r].load(std::memory_order_relaxed);
      out[r]->holds = out[r]->violation_count == 0;
    }
    return true;
  }

 private:
  /// Validate's own checks pass, and every column the word reads matches
  /// its codes; NaN or negative thresholds stay on Validate (its error, or
  /// its never-similar NaN test).
  bool MdCompiles(const Md& md) {
    int nc = relation_.num_columns();
    if (md.lhs().empty() || md.rhs().empty() ||
        !AttrSet::Full(nc).ContainsAll(md.rhs())) {
      return false;
    }
    for (const SimilarityPredicate& p : md.lhs()) {
      if (p.attr < 0 || p.attr >= nc || p.metric == nullptr ||
          !(p.threshold >= 0) || !Faithful(p.attr)) {
        return false;
      }
    }
    for (int a : md.rhs().ToVector()) {
      if (!Faithful(a)) return false;
    }
    return true;
  }

  /// Two-tuple DCs whose every predicate compares ta.A with tb.A of one
  /// in-schema attribute; order predicates also need a NaN-free column.
  bool DcCompiles(const Dc& dc) {
    if (dc.predicates().empty()) return false;
    int nc = relation_.num_columns();
    for (const DcPredicate& p : dc.predicates()) {
      if (p.lhs.kind != DcOperand::Kind::kTupleA ||
          p.rhs.kind != DcOperand::Kind::kTupleB ||
          p.lhs.attr != p.rhs.attr || p.lhs.attr < 0 || p.lhs.attr >= nc ||
          !Faithful(p.lhs.attr) ||
          (IsOrderOp(p.op) && HasNan(p.lhs.attr))) {
        return false;
      }
    }
    return true;
  }

  bool Faithful(int attr) {
    if (faithful_[attr] < 0) {
      faithful_[attr] = CellsMatchCodes(relation_, encoded_, attr);
    }
    return faithful_[attr] == 1;
  }

  bool HasNan(int attr) {
    if (has_nan_[attr] < 0) has_nan_[attr] = DictHasNan(encoded_, attr);
    return has_nan_[attr] == 1;
  }

  /// Ensures `attr` has a comparison facet at least as strong as `cmp`.
  static void NeedCmp(std::vector<std::pair<int, EvidenceColumn::Cmp>>* cmps,
                      int attr, EvidenceColumn::Cmp cmp) {
    for (auto& [a, c] : *cmps) {
      if (a != attr) continue;
      if (cmp == EvidenceColumn::Cmp::kOrder) c = cmp;
      return;
    }
    cmps->emplace_back(attr, cmp);
  }

  static bool Fits(const SimilarityFacets& facets,
                   const std::vector<std::pair<int, EvidenceColumn::Cmp>>&
                       cmps) {
    int bits = facets.bits();
    for (const auto& [attr, cmp] : cmps) {
      bits += cmp == EvidenceColumn::Cmp::kOrder ? 2 : 1;
    }
    return facets.packable() && bits <= 64;
  }

  const Relation& relation_;
  const EncodedRelation& encoded_;
  // Per-column guards, computed on first use: -1 unknown, 0 no, 1 yes.
  std::vector<int> faithful_;
  std::vector<int> has_nan_;
  SimilarityFacets facets_;
  std::vector<std::pair<int, EvidenceColumn::Cmp>> cmps_;
  std::vector<int> mds_, dcs_;  // rule indices, in rule order
};

}  // namespace

Result<DetectionSummary> ViolationDetector::Detect(
    const Relation& relation, int max_violations_per_rule, ThreadPool* pool,
    PliCache* cache, RunContext* context) const {
  RunContext::BeginRun(context, "detect");
  int num_rules = static_cast<int>(rules_.size());
  std::vector<ValidationReport> reports(num_rules);
  // The pairwise rules compile onto the word over the cache's encoding, or
  // a local one when no cache serves this relation (a cache for another
  // relation counts as absent).
  bool pairwise = false;
  for (const DependencyPtr& rule : rules_) {
    pairwise = pairwise || typeid(*rule) == typeid(Md) ||
               typeid(*rule) == typeid(Dc);
  }
  std::unique_ptr<EncodedRelation> local_encoding;
  const EncodedRelation* encoded = nullptr;
  if (pairwise) {
    if (cache != nullptr && cache->relation_or_null() == &relation) {
      encoded = &cache->encoded();
    } else {
      local_encoding = std::make_unique<EncodedRelation>(relation);
      encoded = local_encoding.get();
    }
  }
  std::vector<char> compiled(num_rules, 0);
  bool walk_done = true;
  if (encoded != nullptr) {
    PairRuleWord word(relation, *encoded);
    for (int i = 0; i < num_rules; ++i) {
      compiled[i] = word.TryAdd(i, *rules_[i]);
    }
    if (!word.empty()) {
      FAMTREE_ASSIGN_OR_RETURN(
          walk_done, word.Walk(rules_, max_violations_per_rule, pool, context,
                               &reports));
    }
  }
  std::vector<int> fallback;
  for (int i = 0; i < num_rules; ++i) {
    if (!compiled[i]) fallback.push_back(i);
  }
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t fallback_done,
      AnytimeParallelFor(
          context, pool, static_cast<int64_t>(fallback.size()),
          [&](int64_t k) {
            int i = fallback[k];
            if (TryConfirmFdFromCache(relation, *rules_[i], cache, context,
                                      &reports[i])) {
              return Status::OK();
            }
            FAMTREE_ASSIGN_OR_RETURN(
                reports[i],
                rules_[i]->Validate(relation, max_violations_per_rule));
            return Status::OK();
          }));
  // The summary covers the finished rule prefix only: a compiled rule is
  // finished when the walk is, a fallback rule when its anytime batch
  // completed. Both cut at deterministic check-points, so the prefix is the
  // same at any thread count.
  int done = 0;
  for (int64_t k = 0; done < num_rules; ++done) {
    if (compiled[done] ? !walk_done : k++ >= fallback_done) break;
  }
  DetectionSummary summary;
  std::set<int> flagged;
  for (int i = 0; i < done; ++i) {
    for (const Violation& v : reports[i].violations) {
      for (int row : v.rows) flagged.insert(row);
    }
    summary.results.push_back(
        DetectionResult{rules_[i], std::move(reports[i])});
  }
  summary.flagged_rows.assign(flagged.begin(), flagged.end());
  if (done < num_rules) {
    RunContext::MarkExhausted(context, RunContext::StopStatus(context), done,
                              num_rules);
  } else {
    RunContext::MarkComplete(context, num_rules);
  }
  return summary;
}

std::string FormatViolation(const Relation& relation,
                            const Dependency& dependency,
                            const Violation& violation) {
  std::string out =
      "violation of " + dependency.ToString(&relation.schema()) + ":\n";
  for (int row : violation.rows) {
    out += "  row " + std::to_string(row) + ": (";
    for (int c = 0; c < relation.num_columns(); ++c) {
      if (c) out += ", ";
      out += relation.Get(row, c).ToString();
    }
    out += ")\n";
  }
  out += "  " + violation.description + "\n";
  return out;
}

PrecisionRecall ScoreDetection(const DetectionSummary& summary,
                               const std::vector<PlantedError>& errors) {
  std::set<int> dirty_rows;
  for (const PlantedError& e : errors) dirty_rows.insert(e.row);
  PrecisionRecall pr;
  std::set<int> flagged(summary.flagged_rows.begin(),
                        summary.flagged_rows.end());
  for (int row : flagged) {
    if (dirty_rows.count(row)) {
      ++pr.true_positives;
    } else {
      ++pr.false_positives;
    }
  }
  for (int row : dirty_rows) {
    if (!flagged.count(row)) ++pr.false_negatives;
  }
  int denom_p = pr.true_positives + pr.false_positives;
  int denom_r = pr.true_positives + pr.false_negatives;
  pr.precision = denom_p == 0 ? 1.0
                              : static_cast<double>(pr.true_positives) /
                                    denom_p;
  pr.recall = denom_r == 0
                  ? 1.0
                  : static_cast<double>(pr.true_positives) / denom_r;
  return pr;
}

}  // namespace famtree
