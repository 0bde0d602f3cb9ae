#include "discovery/fastdc.h"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <map>
#include <memory>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "relation/encoded_relation.h"

namespace famtree {

namespace {

constexpr int kMaxPredicates = 256;
using Bits = std::bitset<kMaxPredicates>;

/// One dictionary entry pre-lowered for order comparisons. `rank` mirrors
/// Value::operator<'s type ranking (null < numeric < string); numeric cells
/// carry both the exact int64 (when integral) and the double image.
struct OrderCell {
  int8_t rank = 0;  // 0 null, 1 numeric, 2 string
  bool is_int = false;
  int64_t i = 0;
  double num = 0.0;
};

/// Exactly Value::operator< for non-string cells: rank order first, then
/// exact int-int, then the double image (how AsNumeric compares).
inline bool CellLess(const OrderCell& x, const OrderCell& y) {
  if (x.rank != y.rank) return x.rank < y.rank;
  if (x.rank != 1) return false;  // null == null; strings never reach here
  if (x.is_int && y.is_int) return x.i < y.i;
  return x.num < y.num;
}

/// Exactly Value::operator== for non-string cells (NaN equals nothing).
inline bool CellEqual(const OrderCell& x, const OrderCell& y) {
  if (x.rank != y.rank) return false;
  if (x.rank != 1) return true;  // null == null
  if (x.is_int && y.is_int) return x.i == y.i;
  return x.num == y.num;
}

/// A predicate lowered onto the encoded backend. Anything the lowering does
/// not cover exactly keeps the Value evaluator (kFallback).
struct CompiledPred {
  enum class Kind { kSameColEq, kSameColNeq, kOrder, kFallback };
  Kind kind = Kind::kFallback;
  int col_a = 0;  // tuple-a operand's column
  int col_b = 0;  // tuple-b operand's column
  CmpOp op = CmpOp::kEq;
};

CompiledPred CompilePred(const DcPredicate& p) {
  CompiledPred out;
  if (p.lhs.kind != DcOperand::Kind::kTupleA ||
      p.rhs.kind != DcOperand::Kind::kTupleB) {
    return out;  // constants / other shapes: fallback
  }
  out.col_a = p.lhs.attr;
  out.col_b = p.rhs.attr;
  out.op = p.op;
  switch (p.op) {
    case CmpOp::kEq:
      out.kind = p.lhs.attr == p.rhs.attr ? CompiledPred::Kind::kSameColEq
                                          : CompiledPred::Kind::kFallback;
      break;
    case CmpOp::kNeq:
      out.kind = p.lhs.attr == p.rhs.attr ? CompiledPred::Kind::kSameColNeq
                                          : CompiledPred::Kind::kFallback;
      break;
    default:
      out.kind = CompiledPred::Kind::kOrder;
      break;
  }
  return out;
}

/// Is pred `p` the negation of pred `q` (same operands, negated op)?
bool AreNegations(const DcPredicate& p, const DcPredicate& q) {
  auto same_operand = [](const DcOperand& a, const DcOperand& b) {
    if (a.kind != b.kind) return false;
    if (a.kind == DcOperand::Kind::kConst) return a.constant == b.constant;
    return a.attr == b.attr;
  };
  return same_operand(p.lhs, q.lhs) && same_operand(p.rhs, q.rhs) &&
         q.op == NegateOp(p.op);
}

struct Evidence {
  Bits bits;
  int64_t count = 0;
};

/// DFS for minimal predicate sets S such that the total count of evidence
/// sets containing S stays within `budget` (0 = valid DC). Branches on the
/// complement of a maximal still-covering evidence set.
class CoverSearch {
 public:
  CoverSearch(const std::vector<DcPredicate>& preds,
              const std::vector<Evidence>& evidence, int max_size,
              int64_t budget, int max_results, RunContext* ctx)
      : preds_(preds),
        evidence_(evidence),
        max_size_(max_size),
        budget_(budget),
        max_results_(max_results),
        ctx_(ctx) {}

  void Run() { Dfs(Bits(), -1); }

  const std::vector<std::pair<Bits, int64_t>>& results() const {
    return results_;
  }

  /// True when the DFS was cut by a run limit; `results()` then holds the
  /// DFS-order prefix mined before the cut (the search is serial, so the
  /// prefix is deterministic).
  bool stopped() const { return stopped_; }
  int64_t nodes_visited() const { return nodes_; }

 private:
  int64_t ViolationCount(const Bits& chosen) const {
    int64_t total = 0;
    for (const Evidence& e : evidence_) {
      if ((chosen & e.bits) == chosen) total += e.count;
    }
    return total;
  }

  bool IsMinimal(const Bits& chosen) const {
    for (int p = 0; p < static_cast<int>(preds_.size()); ++p) {
      if (!chosen[p]) continue;
      Bits reduced = chosen;
      reduced[p] = false;
      if (reduced.none()) continue;
      if (ViolationCount(reduced) <= budget_) return false;
    }
    return true;
  }

  bool HasNegationPair(const Bits& chosen) const {
    std::vector<int> idx;
    for (int p = 0; p < static_cast<int>(preds_.size()); ++p) {
      if (chosen[p]) idx.push_back(p);
    }
    for (size_t i = 0; i + 1 < idx.size(); ++i) {
      for (size_t j = i + 1; j < idx.size(); ++j) {
        if (AreNegations(preds_[idx[i]], preds_[idx[j]])) return true;
      }
    }
    return false;
  }

  void Dfs(Bits chosen, int last) {
    if (stopped_) return;
    // Check-point on a node-count stride: the DFS is serial, so the stride
    // puts an injected cutoff at the same node at any thread count.
    ++nodes_;
    if ((nodes_ & 63) == 0 &&
        RunContext::IsStop(RunContext::Checkpoint(ctx_))) {
      stopped_ = true;
      return;
    }
    if (RunContext::IsStop(RunContext::Poll(ctx_))) {
      stopped_ = true;
      return;
    }
    if (static_cast<int>(results_.size()) >= max_results_) return;
    if (chosen.any()) {
      int64_t violations = ViolationCount(chosen);
      if (violations <= budget_) {
        if (!HasNegationPair(chosen) && IsMinimal(chosen)) {
          results_.push_back({chosen, violations});
        }
        return;  // adding predicates only makes it less minimal
      }
    }
    if (static_cast<int>(chosen.count()) >= max_size_) return;
    for (int p = last + 1; p < static_cast<int>(preds_.size()); ++p) {
      if (stopped_) return;
      Bits next = chosen;
      next[p] = true;
      Dfs(next, p);
    }
  }

  const std::vector<DcPredicate>& preds_;
  const std::vector<Evidence>& evidence_;
  int max_size_;
  int64_t budget_;
  int max_results_;
  RunContext* ctx_;
  bool stopped_ = false;
  int64_t nodes_ = 0;
  std::vector<std::pair<Bits, int64_t>> results_;
};

/// The back half of FASTDC, shared by both evidence producers: minimal
/// cover search over the evidence multiset, then DC assembly.
std::vector<DiscoveredDc> MineCover(const std::vector<DcPredicate>& preds,
                                    const std::vector<Evidence>& evidence,
                                    int64_t total_pairs,
                                    const FastDcOptions& options) {
  RunContext* ctx = options.context;
  int64_t budget =
      static_cast<int64_t>(options.max_violation_fraction * total_pairs);
  CoverSearch search(preds, evidence, options.max_predicates, budget,
                     options.max_results, ctx);
  search.Run();
  std::vector<DiscoveredDc> out;
  for (const auto& [bits, violations] : search.results()) {
    std::vector<DcPredicate> chosen;
    for (size_t p = 0; p < preds.size(); ++p) {
      if (bits[p]) chosen.push_back(preds[p]);
    }
    double fraction = total_pairs == 0
                          ? 0.0
                          : static_cast<double>(violations) / total_pairs;
    out.push_back(DiscoveredDc{Dc(std::move(chosen)), fraction});
  }
  if (search.stopped()) {
    // DCs are emitted in DFS order, so the cut run's list is a prefix of
    // the full run's. Units are DFS nodes (the total is not known up
    // front).
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx),
                              search.nodes_visited(), 0);
  } else {
    RunContext::MarkComplete(ctx, search.nodes_visited());
  }
  return out;
}

bool IsNumericColumn(const Relation& relation, int a) {
  ValueType t = relation.schema().column(a).type;
  return t == ValueType::kInt || t == ValueType::kDouble;
}

/// Decodes one packed comparison word into the satisfied-predicate bitset.
/// Each same-column predicate reads its column's facet: equality bit for
/// categorical columns, order trit (0 equal / 1 less / 2 greater) for
/// numeric ones.
Bits WordToBits(const EvidenceSet& set, uint64_t word,
                const std::vector<DcPredicate>& preds) {
  Bits bits;
  for (size_t p = 0; p < preds.size(); ++p) {
    int t = set.CmpOf(word, preds[p].lhs.attr);
    bool sat = false;
    switch (preds[p].op) {
      case CmpOp::kEq: sat = t == 0; break;
      case CmpOp::kNeq: sat = t != 0; break;
      case CmpOp::kLt: sat = t == 1; break;
      case CmpOp::kLe: sat = t != 2; break;
      case CmpOp::kGt: sat = t == 2; break;
      case CmpOp::kGe: sat = t != 1; break;
    }
    if (sat) bits[p] = true;
  }
  return bits;
}

}  // namespace

std::vector<DcPredicate> BuildPredicateSpace(const Relation& relation,
                                             bool cross_column) {
  std::vector<DcPredicate> preds;
  int nc = relation.num_columns();
  auto is_numeric = [&relation](int a) {
    ValueType t = relation.schema().column(a).type;
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  for (int a = 0; a < nc; ++a) {
    std::vector<CmpOp> ops = {CmpOp::kEq, CmpOp::kNeq};
    if (is_numeric(a)) {
      ops.insert(ops.end(),
                 {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe});
    }
    for (CmpOp op : ops) {
      preds.push_back(
          DcPredicate{DcOperand::TupleA(a), op, DcOperand::TupleB(a)});
    }
  }
  if (cross_column) {
    for (int a = 0; a < nc; ++a) {
      for (int b = a + 1; b < nc; ++b) {
        if (!is_numeric(a) || !is_numeric(b)) continue;
        for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe}) {
          preds.push_back(
              DcPredicate{DcOperand::TupleA(a), op, DcOperand::TupleB(b)});
        }
      }
    }
  }
  return preds;
}

Result<std::vector<DiscoveredDc>> DiscoverDcs(const Relation& relation,
                                              const FastDcOptions& options) {
  std::vector<DcPredicate> preds =
      BuildPredicateSpace(relation, options.cross_column);
  if (static_cast<int>(preds.size()) > kMaxPredicates) {
    return Status::Invalid("predicate space exceeds " +
                           std::to_string(kMaxPredicates) +
                           " predicates; reduce the schema");
  }
  if (options.max_violation_fraction < 0 ||
      options.max_violation_fraction > 1) {
    return Status::Invalid("max_violation_fraction must be in [0, 1]");
  }
  int n = relation.num_rows();
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "fastdc");
  // A stop during evidence construction cuts before the cover search
  // visited any DFS node: the partial result is the empty prefix.
  auto exhausted_early = [&](const Status& stop) {
    RunContext::MarkExhausted(ctx, stop, 0, 0);
    return std::vector<DiscoveredDc>{};
  };
  // Kernel path: one packed word per unordered pair from the shared
  // comparison engine, decoded into predicate bitsets once per distinct
  // word. The ordered-pair evidence FASTDC mines over is the unordered
  // multiset plus its mirror (order trits swapped), so the cover search
  // sees exactly the multiset the per-predicate path would produce.
  // Cross-column predicates, NaN order ties and words wider than 64 bits
  // take the per-predicate path below instead.
  EncodedRelation encoded(relation);
  if (!options.cross_column) {
    std::vector<EvidenceColumn> config;
    bool supported = true;
    for (int a = 0; a < relation.num_columns(); ++a) {
      EvidenceColumn c;
      c.attr = a;
      if (IsNumericColumn(relation, a)) {
        c.cmp = EvidenceColumn::Cmp::kOrder;
        if (DictHasNan(encoded, a)) {
          supported = false;
          break;
        }
      } else {
        c.cmp = EvidenceColumn::Cmp::kEquality;
      }
      config.push_back(c);
    }
    if (supported && EvidenceWordBits(config) <= 64) {
      EvidenceOptions eopts;
      eopts.pool = options.pool;
      eopts.context = ctx;
      std::shared_ptr<const EvidenceSet> set;
      bool exact = n <= options.max_rows_exact;
      if (exact) {
        Result<std::shared_ptr<const EvidenceSet>> set_result =
            GetOrBuildEvidence(options.evidence, encoded, config, eopts);
        if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
          return exhausted_early(set_result.status());
        }
        FAMTREE_ASSIGN_OR_RETURN(set, std::move(set_result));
      } else {
        // The sampled pair stream stays on one serial Rng, so the sample —
        // and everything mined from it — is identical to the fallback
        // path's at any thread count.
        Rng rng(options.seed);
        int64_t samples = static_cast<int64_t>(options.max_rows_exact) *
                          options.max_rows_exact;
        std::vector<std::pair<int, int>> sampled;
        sampled.reserve(samples);
        for (int64_t s = 0; s < samples; ++s) {
          int i = static_cast<int>(rng.Uniform(0, n - 1));
          int j = static_cast<int>(rng.Uniform(0, n - 1));
          if (i != j) sampled.push_back({i, j});
        }
        Result<std::shared_ptr<const EvidenceSet>> set_result =
            BuildEvidenceForPairs(encoded, config, sampled, eopts);
        if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
          return exhausted_early(set_result.status());
        }
        FAMTREE_ASSIGN_OR_RETURN(set, std::move(set_result));
      }
      std::vector<Evidence> evidence;
      evidence.reserve(set->words().size() * (exact ? 2 : 1));
      for (const EvidenceSet::Word& w : set->words()) {
        evidence.push_back(Evidence{WordToBits(*set, w.bits, preds), w.count});
        if (exact) {
          // The opposite orientation of every unordered pair; symmetric
          // words simply contribute their count twice, which sums to the
          // ordered-pair total.
          evidence.push_back(
              Evidence{WordToBits(*set, set->MirrorOf(w.bits), preds),
                       w.count});
        }
      }
      int64_t total_pairs =
          exact ? static_cast<int64_t>(n) * std::max(0, n - 1)
                : set->total_pairs();
      return MineCover(preds, evidence, total_pairs, options);
    }
  }
  // Evidence sets, deduplicated with multiplicities. The ordered pairs are
  // listed up front (sampling draws stay on one serial Rng stream), then
  // evaluated in contiguous chunks — in parallel when a pool is given.
  // Each chunk fills a private map; merging sums counts per evidence
  // bitset, which is commutative, so the merged multiset (and everything
  // derived from it) is independent of the chunk count.
  std::vector<std::pair<int, int>> pairs;
  if (n <= options.max_rows_exact) {
    pairs.reserve(static_cast<size_t>(n) * std::max(0, n - 1));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) pairs.push_back({i, j});
      }
    }
  } else {
    Rng rng(options.seed);
    int64_t samples = static_cast<int64_t>(options.max_rows_exact) *
                      options.max_rows_exact;
    pairs.reserve(samples);
    for (int64_t s = 0; s < samples; ++s) {
      int i = static_cast<int>(rng.Uniform(0, n - 1));
      int j = static_cast<int>(rng.Uniform(0, n - 1));
      if (i != j) pairs.push_back({i, j});
    }
  }
  // Lower the predicate space onto the encoded backend: codes for same-col
  // =/!=, per-dictionary OrderCells for </<=/>/>=. Cells are materialized
  // once per dictionary entry, not per pair, so the quadratic loop touches
  // only flat arrays.
  std::vector<CompiledPred> compiled;
  compiled.reserve(preds.size());
  for (const DcPredicate& p : preds) compiled.push_back(CompilePred(p));
  std::vector<std::vector<OrderCell>> cells(relation.num_columns());
  for (int a = 0; a < relation.num_columns(); ++a) {
    cells[a].resize(encoded.dict_size(a));
    for (int code = 0; code < encoded.dict_size(a); ++code) {
      const Value& v = encoded.Decode(a, code);
      OrderCell& c = cells[a][code];
      switch (v.type()) {
        case ValueType::kNull:
          c.rank = 0;
          break;
        case ValueType::kInt:
          c.rank = 1;
          c.is_int = true;
          c.i = v.as_int();
          c.num = static_cast<double>(v.as_int());
          break;
        case ValueType::kDouble:
          c.rank = 1;
          c.num = v.as_double();
          break;
        case ValueType::kString:
          c.rank = 2;
          break;
      }
    }
  }
  auto eval_pred = [&](size_t p, int i, int j) {
    const CompiledPred& cp = compiled[p];
    switch (cp.kind) {
      case CompiledPred::Kind::kSameColEq:
        return encoded.code(i, cp.col_a) == encoded.code(j, cp.col_a);
      case CompiledPred::Kind::kSameColNeq:
        return encoded.code(i, cp.col_a) != encoded.code(j, cp.col_a);
      case CompiledPred::Kind::kOrder: {
        const OrderCell& x = cells[cp.col_a][encoded.code(i, cp.col_a)];
        const OrderCell& y = cells[cp.col_b][encoded.code(j, cp.col_b)];
        if (x.rank == 2 || y.rank == 2) {
          return preds[p].Eval(relation, i, j);  // string under order op
        }
        switch (cp.op) {
          // Value's <= is (< or ==), not !(>): a NaN cell is neither.
          case CmpOp::kLt: return CellLess(x, y);
          case CmpOp::kLe: return CellLess(x, y) || CellEqual(x, y);
          case CmpOp::kGt: return CellLess(y, x);
          case CmpOp::kGe: return CellLess(y, x) || CellEqual(x, y);
          default: return preds[p].Eval(relation, i, j);
        }
      }
      case CompiledPred::Kind::kFallback:
        return preds[p].Eval(relation, i, j);
    }
    return preds[p].Eval(relation, i, j);
  };
  auto bits_less = [](const Bits& a, const Bits& b) {
    for (int w = kMaxPredicates - 1; w >= 0; --w) {
      if (a[w] != b[w]) return b[w];
    }
    return false;
  };
  using EvidenceMap = std::map<Bits, int64_t, decltype(bits_less)>;
  int num_chunks = options.pool == nullptr
                       ? 1
                       : std::max(1, options.pool->num_threads() * 4);
  num_chunks = std::min<int64_t>(num_chunks,
                                 std::max<int64_t>(1, pairs.size()));
  std::vector<EvidenceMap> chunk_maps(num_chunks, EvidenceMap(bits_less));
  Status chunk_status = ParallelFor(options.pool, num_chunks, [&](int64_t c) {
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
    size_t begin = pairs.size() * c / num_chunks;
    size_t end = pairs.size() * (c + 1) / num_chunks;
    EvidenceMap& local = chunk_maps[c];
    for (size_t s = begin; s < end; ++s) {
      auto [i, j] = pairs[s];
      Bits bits;
      for (size_t p = 0; p < preds.size(); ++p) {
        if (eval_pred(p, i, j)) bits[p] = true;
      }
      ++local[bits];
    }
    return Status::OK();
  });
  if (RunContext::IsStop(chunk_status)) return exhausted_early(chunk_status);
  FAMTREE_RETURN_NOT_OK(chunk_status);
  int64_t total_pairs = static_cast<int64_t>(pairs.size());
  EvidenceMap emap(bits_less);
  for (EvidenceMap& local : chunk_maps) {
    for (const auto& [bits, count] : local) emap[bits] += count;
  }
  std::vector<Evidence> evidence;
  evidence.reserve(emap.size());
  for (const auto& [bits, count] : emap) {
    evidence.push_back(Evidence{bits, count});
  }

  return MineCover(preds, evidence, total_pairs, options);
}

Result<std::vector<DiscoveredDc>> DiscoverConstantDcs(
    const Relation& relation, int min_support) {
  std::vector<DiscoveredDc> out;
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "constant DC discovery"));
  auto is_numeric = [&relation](int a) {
    ValueType t = relation.schema().column(a).type;
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  for (int c = 0; c < nc; ++c) {
    if (is_numeric(c)) continue;  // conditions on categorical columns
    for (const auto& group : relation.GroupBy(AttrSet::Single(c))) {
      if (static_cast<int>(group.size()) < min_support) continue;
      if (relation.Get(group[0], c).is_null()) continue;
      for (int a = 0; a < nc; ++a) {
        if (a == c || !is_numeric(a)) continue;
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        bool any = false;
        for (int r : group) {
          const Value& v = relation.Get(r, a);
          if (!v.is_numeric()) continue;
          lo = std::min(lo, v.AsNumeric());
          hi = std::max(hi, v.AsNumeric());
          any = true;
        }
        if (!any) continue;
        Value cond = relation.Get(group[0], c);
        // not(ta.C = cond and ta.A < lo)
        out.push_back(DiscoveredDc{
            Dc({DcPredicate{DcOperand::TupleA(c), CmpOp::kEq,
                            DcOperand::Const(cond)},
                DcPredicate{DcOperand::TupleA(a), CmpOp::kLt,
                            DcOperand::Const(Value(lo))}}),
            0.0});
        // not(ta.C = cond and ta.A > hi)
        out.push_back(DiscoveredDc{
            Dc({DcPredicate{DcOperand::TupleA(c), CmpOp::kEq,
                            DcOperand::Const(cond)},
                DcPredicate{DcOperand::TupleA(a), CmpOp::kGt,
                            DcOperand::Const(Value(hi))}}),
            0.0});
      }
    }
  }
  return out;
}

}  // namespace famtree
