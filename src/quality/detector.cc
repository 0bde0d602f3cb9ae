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
/// backend): X -> Y holds iff every class of pi(X) is constant on the
/// codes of each attribute of Y. Returns true (and fills a clean report
/// matching Fd::Validate's holding output) only when the FD holds; violated
/// FDs return false so the caller collects witnesses through the regular
/// path.
bool TryConfirmFdFromCache(const Relation& relation, const Dependency& rule,
                           PliCache* cache, RunContext* context,
                           ValidationReport* report) {
  if (cache == nullptr || cache->relation_or_null() != &relation) return false;
  const auto* fd = dynamic_cast<const Fd*>(&rule);
  if (fd == nullptr || fd->lhs().empty()) return false;
  AttrSet all = fd->lhs().Union(fd->rhs());
  if (!AttrSet::Full(relation.num_columns()).ContainsAll(all)) return false;
  std::shared_ptr<const StrippedPartition> x = cache->Get(fd->lhs(), context);
  if (x == nullptr) return false;
  for (int a : fd->rhs().Minus(fd->lhs())) {
    if (x->FirstViolation(cache->encoded().codes(a))) return false;
  }
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

/// A test of one lane's bits: (lane & mask) == value, or != value when
/// `equal` is false.
struct LaneTest {
  int lane = 0;
  uint64_t mask = 0;
  uint64_t value = 0;
  bool equal = true;
};

/// Whether test `t` holds on word k of a lane-major strip of `count` words.
inline bool Passes(const LaneTest& t, const uint64_t* words, int count,
                   int k) {
  return ((words[static_cast<size_t>(t.lane) * count + k] & t.mask) ==
          t.value) == t.equal;
}

/// out[k] = whether every test holds on word k of a lane-major strip of
/// `count` words, one test at a time over the whole strip.
void AllPass(const std::vector<LaneTest>& tests, const uint64_t* words,
             int count, uint8_t* out) {
  std::fill(out, out + count, 1);
  for (const LaneTest& t : tests) {
    const uint64_t* lane = words + static_cast<size_t>(t.lane) * count;
    const uint64_t mask = t.mask, value = t.value;
    if (t.equal) {
      for (int k = 0; k < count; ++k) out[k] &= (lane[k] & mask) == value;
    } else {
      for (int k = 0; k < count; ++k) out[k] &= (lane[k] & mask) != value;
    }
  }
}

/// Adds (mask, value) to the equality test of `lane` in `tests`, one such
/// test per lane.
void AddFixedBits(std::vector<LaneTest>* tests, int lane, uint64_t mask,
                  uint64_t value) {
  for (LaneTest& t : *tests) {
    if (t.lane != lane || !t.equal) continue;
    t.mask |= mask;
    t.value |= value;
    return;
  }
  tests->push_back(LaneTest{lane, mask, value, true});
}

/// An MD lowered onto the word: similar on the LHS buckets, identified when
/// every RHS comparison field reads "equal" (zero).
struct WordMd {
  int rule = 0;
  SimilarityTest lhs;
  std::vector<LaneTest> rhs;
};

/// A two-tuple DC lowered onto the word. The predicates on one attribute
/// intersect into one accept set over its comparison field (0 equal,
/// 1 less, 2 greater, 3 unordered; an equality bit reads 0 or 1 = unequal),
/// and every accept set but {less, greater, unordered} on an order field is
/// a pattern of fixed bits: the DC holds on a word when every lane test
/// does — fixed bits per lane, plus a nonzero test per {less, greater,
/// unordered} field. An empty accept set can never hold; it lowers to a
/// test that no word passes.
struct WordDc {
  int rule = 0;
  std::vector<LaneTest> tests;

  /// Adds the constraint "the field in `layout` reads a value of `accept`"
  /// (bit t of `accept` = field value t).
  void Require(const EvidenceSet::ColumnLayout& layout, unsigned accept) {
    const int lane = layout.lane;
    const uint64_t field = layout.cmp_mask();
    auto fix = [&](uint64_t mask, uint64_t value) {
      AddFixedBits(&tests, lane, mask, value);
    };
    const LaneTest never{lane, 0, 0, false};
    if (layout.cmp == EvidenceColumn::Cmp::kEquality) {
      switch (accept & 0b011) {
        case 0b001: fix(field, 0); break;
        case 0b010: fix(field, field); break;
        case 0b011: break;
        default: tests.push_back(never); break;
      }
      return;
    }
    const uint64_t lo = field & (field >> 1), hi = field & ~lo;
    switch (accept & 0b1111) {
      case 0b0001: fix(field, 0); break;
      case 0b0010: fix(field, lo); break;
      case 0b0100: fix(field, hi); break;
      case 0b0011: fix(hi, 0); break;
      case 0b0101: fix(lo, 0); break;
      case 0b1110: tests.push_back(LaneTest{lane, field, 0, false}); break;
      case 0b1111: break;
      default: tests.push_back(never); break;
    }
  }
};

/// Field values (bit t = value t) that satisfy ta.A op tb.A.
unsigned AcceptSet(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return 0b001;
    case CmpOp::kNeq: return 0b1110;
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
/// equality bit otherwise. Rules whose shape the word cannot express are
/// left to their Validate.
class PairRuleWord {
 public:
  PairRuleWord(const Relation& relation, const EncodedRelation& encoded)
      : relation_(relation),
        encoded_(encoded),
        faithful_(relation.num_columns(), -1) {}

  /// Adds rule `index` when it compiles; false leaves it to Validate.
  bool TryAdd(int index, const Dependency& rule) {
    if (typeid(rule) == typeid(Md)) {
      const auto& md = static_cast<const Md&>(rule);
      if (!MdCompiles(md)) return false;
      facets_.Add(md.lhs());
      for (int a : md.rhs().ToVector()) {
        NeedCmp(a, EvidenceColumn::Cmp::kEquality);
      }
      mds_.push_back(index);
      return true;
    }
    if (typeid(rule) == typeid(Dc)) {
      const auto& dc = static_cast<const Dc&>(rule);
      if (!DcCompiles(dc)) return false;
      for (const DcPredicate& p : dc.predicates()) {
        NeedCmp(p.lhs.attr, IsOrderOp(p.op) ? EvidenceColumn::Cmp::kOrder
                                            : EvidenceColumn::Cmp::kEquality);
      }
      dcs_.push_back(index);
      return true;
    }
    return false;
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
    const int lanes = pc->num_lanes();
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
        const EvidenceSet::ColumnLayout& c = cmp_layout(a);
        AddFixedBits(&w.rhs, c.lane, c.cmp_mask(), 0);
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
            // Partners j < i (DCs only), then j > i, in strips; each rule
            // tests a whole strip, lane by lane, before its hits are
            // recorded in j order.
            auto words = std::make_unique_for_overwrite<uint64_t[]>(
                static_cast<size_t>(lanes) * PairComparator::kStripRows);
            uint8_t hold[PairComparator::kStripRows];
            auto check = [&](int j0, int j1, bool with_mds) {
              for (int s0 = j0; s0 < j1; s0 += PairComparator::kStripRows) {
                const int m = std::min(PairComparator::kStripRows, j1 - s0);
                pc->Strip(i, s0, m, words.get());
                for (size_t r = 0; r < num_mds && with_mds; ++r) {
                  mds[r].lhs.Holds(words.get(), m, hold);
                  for (int k = 0; k < m; ++k) {
                    if (!hold[k]) continue;
                    ++sim[r];
                    bool identified = true;
                    for (const LaneTest& t : mds[r].rhs) {
                      identified &= Passes(t, words.get(), m, k);
                    }
                    if (identified) {
                      ++ident[r];
                    } else {
                      record(r, s0 + k);
                    }
                  }
                }
                for (size_t d = 0; d < dcs.size(); ++d) {
                  AllPass(dcs[d].tests, words.get(), m, hold);
                  for (int k = 0; k < m; ++k) {
                    if (hold[k]) record(num_mds + d, s0 + k);
                  }
                }
              }
            };
            if (!dcs.empty()) check(0, i, false);
            check(i + 1, n, true);
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
  /// in-schema attribute.
  bool DcCompiles(const Dc& dc) {
    if (dc.predicates().empty()) return false;
    int nc = relation_.num_columns();
    for (const DcPredicate& p : dc.predicates()) {
      if (p.lhs.kind != DcOperand::Kind::kTupleA ||
          p.rhs.kind != DcOperand::Kind::kTupleB ||
          p.lhs.attr != p.rhs.attr || p.lhs.attr < 0 || p.lhs.attr >= nc ||
          !Faithful(p.lhs.attr)) {
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

  /// Ensures `attr` has a comparison facet at least as strong as `cmp`.
  void NeedCmp(int attr, EvidenceColumn::Cmp cmp) {
    for (auto& [a, c] : cmps_) {
      if (a != attr) continue;
      if (cmp == EvidenceColumn::Cmp::kOrder) c = cmp;
      return;
    }
    cmps_.emplace_back(attr, cmp);
  }

  const Relation& relation_;
  const EncodedRelation& encoded_;
  // Per-column guard, computed on first use: -1 unknown, 0 no, 1 yes.
  std::vector<int> faithful_;
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
