#include "quality/repair.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "engine/pli_cache.h"
#include "relation/encoded_relation.h"

namespace famtree {

namespace {

/// Plurality value of `col` among `rows`; ties break to first occurrence.
Value PluralityValue(const Relation& relation, const std::vector<int>& rows,
                     int col) {
  std::vector<std::pair<Value, int>> counts;
  for (int r : rows) {
    const Value& v = relation.Get(r, col);
    bool found = false;
    for (auto& [val, count] : counts) {
      if (val == v) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) counts.push_back({v, 1});
  }
  int best = 0;
  Value best_value;
  for (const auto& [val, count] : counts) {
    if (count > best) {
      best = count;
      best_value = val;
    }
  }
  return best_value;
}

/// One FD-repair pass over every LHS group; returns number of changes.
int FdRepairPass(Relation* relation, const Fd& fd,
                 std::vector<CellChange>* changes) {
  int made = 0;
  for (const auto& group : relation->GroupBy(fd.lhs())) {
    if (group.size() < 2) continue;
    for (int col : fd.rhs().ToVector()) {
      Value target = PluralityValue(*relation, group, col);
      for (int r : group) {
        if (!(relation->Get(r, col) == target)) {
          changes->push_back(
              CellChange{r, col, relation->Get(r, col), target});
          relation->Set(r, col, target);
          ++made;
        }
      }
    }
  }
  return made;
}

/// Plurality over integer codes: counts per code, then picks the first
/// row (in group order) whose code reaches the strict maximum — exactly
/// the serial algorithm's first-occurrence tie-break. Returns that row, so
/// the caller reads both the target Value and its code from it (even the
/// representation matches the plain overload's). LHS groups are typically
/// tiny, so a flat first-occurrence-ordered count vector (the plain
/// overload's own shape, minus the Value comparisons) beats hash
/// containers.
int PluralityRowEncoded(const EncodedRelation& enc,
                        const std::vector<int>& rows, int col) {
  std::vector<std::pair<uint32_t, int>> counts;
  counts.reserve(rows.size());
  for (int r : rows) {
    uint32_t c = enc.code(r, col);
    bool found = false;
    for (auto& [code, count] : counts) {
      if (code == c) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) counts.push_back({c, 1});
  }
  int best = 0;
  uint32_t best_code = counts[0].first;
  for (const auto& [code, count] : counts) {
    if (count > best) {
      best = count;
      best_code = code;
    }
  }
  for (int r : rows) {
    if (enc.code(r, col) == best_code) return r;
  }
  return rows[0];
}

/// One FD-repair pass with the plurality targets precomputed in parallel.
/// All (group, column) targets depend only on the pass-start state (groups
/// are disjoint row sets and a column's plurality is untouched by writes
/// to other columns), so they can fan out; the writes replay the serial
/// pass's group/column/row order. The writes also rebind the changed
/// cells' codes — targets are values that already occur in the column, so
/// the encoding stays valid for the next pass with no re-encode.
Result<int> FdRepairPassFast(Relation* relation, const Fd& fd,
                             EncodedRelation* enc, ThreadPool* pool,
                             std::vector<CellChange>* changes) {
  std::vector<std::vector<int>> groups = enc->GroupBy(fd.lhs());
  std::vector<int> rhs_cols = fd.rhs().ToVector();
  // A target is remembered as its plurality row (the Value is read back
  // lazily at write time): groups are disjoint and a group's writes never
  // touch its own plurality row for that column, so the row still holds
  // the target when the replay reaches it. This keeps the fan-out free of
  // per-group Value copies.
  std::vector<std::vector<int>> target_rows(groups.size());
  FAMTREE_RETURN_NOT_OK(ParallelFor(
      pool, static_cast<int64_t>(groups.size()), [&](int64_t g) {
        if (groups[g].size() < 2) return Status::OK();
        target_rows[g].resize(rhs_cols.size());
        for (size_t k = 0; k < rhs_cols.size(); ++k) {
          target_rows[g][k] = PluralityRowEncoded(*enc, groups[g], rhs_cols[k]);
        }
        return Status::OK();
      }));
  int made = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].size() < 2) continue;
    for (size_t k = 0; k < rhs_cols.size(); ++k) {
      int col = rhs_cols[k];
      uint32_t target_code = enc->code(target_rows[g][k], col);
      Value target = relation->Get(target_rows[g][k], col);
      for (int r : groups[g]) {
        // Code inequality ⇔ Value inequality.
        if (enc->code(r, col) == target_code) continue;
        changes->push_back(CellChange{r, col, relation->Get(r, col), target});
        relation->Set(r, col, target);
        enc->SetCode(r, col, target_code);
        ++made;
      }
    }
  }
  return made;
}

}  // namespace

Result<RepairResult> RepairWithFds(const Relation& relation,
                                   const std::vector<Fd>& fds,
                                   int max_passes) {
  RepairResult result;
  result.repaired = relation;
  for (int pass = 0; pass < max_passes; ++pass) {
    int made = 0;
    for (const Fd& fd : fds) {
      made += FdRepairPass(&result.repaired, fd, &result.changes);
    }
    if (made == 0) break;
  }
  for (const Fd& fd : fds) {
    if (!fd.Holds(result.repaired)) ++result.remaining_violations;
  }
  return result;
}

Result<RepairResult> RepairWithFds(const Relation& relation,
                                   const std::vector<Fd>& fds, int max_passes,
                                   const QualityOptions& options) {
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "repair_fds");
  RepairResult result;
  result.repaired = relation;
  // One encoding for the whole repair: every FD-repair write copies a
  // value that already occurs in the same column, so each pass rebinds the
  // changed cells' codes in place (SetCode) instead of re-encoding the
  // working copy after every pass that changed cells. The cache's encoding
  // is copied (flat integer arrays), never mutated. A locally built
  // encoding covers only the columns some FD reads or writes — the passes
  // never touch the others.
  std::unique_ptr<EncodedRelation> enc;
  if (options.cache != nullptr &&
      options.cache->relation_or_null() == &relation) {
    enc = std::make_unique<EncodedRelation>(options.cache->encoded());
  } else {
    AttrSet needed;
    for (const Fd& fd : fds) {
      for (int a : fd.lhs().ToVector()) needed = needed.With(a);
      for (int a : fd.rhs().ToVector()) needed = needed.With(a);
    }
    enc = std::make_unique<EncodedRelation>(result.repaired, needed);
  }
  // Each (pass, fd) step is a deterministic serial-replay unit; a limit
  // firing between steps leaves the working copy exactly as the full run
  // had it after the same prefix of steps — the partial repair.
  const int64_t total_steps = static_cast<int64_t>(max_passes) * fds.size();
  int64_t steps_done = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    int made = 0;
    for (const Fd& fd : fds) {
      Status gate = RunContext::Checkpoint(ctx);
      if (RunContext::IsStop(gate)) {
        RunContext::MarkExhausted(ctx, gate, steps_done, total_steps);
        for (const Fd& f : fds) {
          if (!f.Holds(result.repaired)) ++result.remaining_violations;
        }
        return result;
      }
      FAMTREE_ASSIGN_OR_RETURN(
          int m, FdRepairPassFast(&result.repaired, fd, enc.get(),
                                  options.pool, &result.changes));
      made += m;
      ++steps_done;
    }
    if (made == 0) break;
  }
  RunContext::MarkComplete(ctx, steps_done);
  for (const Fd& fd : fds) {
    if (!fd.Holds(result.repaired)) ++result.remaining_violations;
  }
  return result;
}

Result<RepairResult> RepairWithCfds(const Relation& relation,
                                    const std::vector<Cfd>& cfds,
                                    int max_passes) {
  RepairResult result;
  result.repaired = relation;
  for (int pass = 0; pass < max_passes; ++pass) {
    int made = 0;
    for (const Cfd& cfd : cfds) {
      // Tuples matching the LHS pattern.
      std::vector<int> matching;
      for (int r = 0; r < result.repaired.num_rows(); ++r) {
        if (cfd.pattern().Matches(result.repaired, r, cfd.lhs())) {
          matching.push_back(r);
        }
      }
      // Constant RHS: force the constant.
      for (int col : cfd.rhs().ToVector()) {
        const PatternItem* it = cfd.pattern().Find(col);
        if (it != nullptr && !it->is_wildcard) {
          for (int r : matching) {
            if (!(result.repaired.Get(r, col) == it->constant)) {
              result.changes.push_back(CellChange{
                  r, col, result.repaired.Get(r, col), it->constant});
              result.repaired.Set(r, col, it->constant);
              ++made;
            }
          }
        }
      }
      // Variable RHS: plurality within each LHS group of matching tuples.
      Relation subset = result.repaired.Select(matching);
      for (const auto& local_group : subset.GroupBy(cfd.lhs())) {
        if (local_group.size() < 2) continue;
        std::vector<int> group;
        for (int local : local_group) group.push_back(matching[local]);
        for (int col : cfd.rhs().ToVector()) {
          const PatternItem* it = cfd.pattern().Find(col);
          if (it != nullptr && !it->is_wildcard) continue;  // done above
          Value target = PluralityValue(result.repaired, group, col);
          for (int r : group) {
            if (!(result.repaired.Get(r, col) == target)) {
              result.changes.push_back(
                  CellChange{r, col, result.repaired.Get(r, col), target});
              result.repaired.Set(r, col, target);
              ++made;
            }
          }
        }
      }
    }
    if (made == 0) break;
  }
  for (const Cfd& cfd : cfds) {
    if (!cfd.Holds(result.repaired)) ++result.remaining_violations;
  }
  return result;
}

Result<RepairResult> RepairWithCfds(const Relation& relation,
                                    const std::vector<Cfd>& cfds,
                                    int max_passes,
                                    const QualityOptions& options) {
  if (options.pool == nullptr && options.context == nullptr) {
    return RepairWithCfds(relation, cfds, max_passes);
  }
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "repair_cfds");
  RepairResult result;
  result.repaired = relation;
  // Same anytime contract as the FD repair: units are (pass, cfd) steps.
  const int64_t total_steps = static_cast<int64_t>(max_passes) * cfds.size();
  int64_t steps_done = 0;
  for (int pass = 0; pass < max_passes; ++pass) {
    int made = 0;
    for (const Cfd& cfd : cfds) {
      Status gate = RunContext::Checkpoint(ctx);
      if (RunContext::IsStop(gate)) {
        RunContext::MarkExhausted(ctx, gate, steps_done, total_steps);
        for (const Cfd& c : cfds) {
          if (!c.Holds(result.repaired)) ++result.remaining_violations;
        }
        return result;
      }
      // The LHS-pattern matching scan is read-only on the current state;
      // each row's flag is independent, so it fans out. The serial
      // collection below preserves row order.
      int n = result.repaired.num_rows();
      std::vector<char> matches(n, 0);
      FAMTREE_RETURN_NOT_OK(ParallelFor(options.pool, n, [&](int64_t r) {
        matches[r] = cfd.pattern().Matches(result.repaired,
                                           static_cast<int>(r), cfd.lhs())
                         ? 1
                         : 0;
        return Status::OK();
      }));
      std::vector<int> matching;
      for (int r = 0; r < n; ++r) {
        if (matches[r]) matching.push_back(r);
      }
      // Constant RHS: force the constant.
      for (int col : cfd.rhs().ToVector()) {
        const PatternItem* it = cfd.pattern().Find(col);
        if (it != nullptr && !it->is_wildcard) {
          for (int r : matching) {
            if (!(result.repaired.Get(r, col) == it->constant)) {
              result.changes.push_back(CellChange{
                  r, col, result.repaired.Get(r, col), it->constant});
              result.repaired.Set(r, col, it->constant);
              ++made;
            }
          }
        }
      }
      // Variable RHS: plurality within each LHS group of matching tuples.
      Relation subset = result.repaired.Select(matching);
      for (const auto& local_group : subset.GroupBy(cfd.lhs())) {
        if (local_group.size() < 2) continue;
        std::vector<int> group;
        for (int local : local_group) group.push_back(matching[local]);
        for (int col : cfd.rhs().ToVector()) {
          const PatternItem* it = cfd.pattern().Find(col);
          if (it != nullptr && !it->is_wildcard) continue;  // done above
          Value target = PluralityValue(result.repaired, group, col);
          for (int r : group) {
            if (!(result.repaired.Get(r, col) == target)) {
              result.changes.push_back(
                  CellChange{r, col, result.repaired.Get(r, col), target});
              result.repaired.Set(r, col, target);
              ++made;
            }
          }
        }
      }
      ++steps_done;
    }
    if (made == 0) break;
  }
  RunContext::MarkComplete(ctx, steps_done);
  for (const Cfd& cfd : cfds) {
    if (!cfd.Holds(result.repaired)) ++result.remaining_violations;
  }
  return result;
}

Result<RepairResult> RepairWithDcs(const Relation& relation,
                                   const std::vector<Dc>& dcs,
                                   int max_changes) {
  RepairResult result;
  result.repaired = relation;
  int changes_made = 0;
  bool progress = true;
  while (progress && changes_made < max_changes) {
    progress = false;
    for (const Dc& dc : dcs) {
      auto rep = dc.Validate(result.repaired, 1);
      if (!rep.ok()) return rep.status();
      if (rep->holds || rep->violations.empty()) continue;
      const Violation& v = rep->violations[0];
      // Falsify one predicate of the violating pair/tuple: prefer an
      // equality predicate between the tuples (copy one side), else nudge
      // a numeric order predicate, else blank a constant predicate cell.
      int row_a = v.rows[0];
      int row_b = v.rows.size() > 1 ? v.rows[1] : v.rows[0];
      bool fixed = false;
      // Pass 1: equality between tuple cells -> make RHS-side differ by
      // preferring to change the *second* tuple's cell to a fresh value is
      // wrong (values must come from the domain); instead, for predicates
      // of the form ta.A != tb.A (the FD-violation shape), copy a's value.
      for (const DcPredicate& p : dc.predicates()) {
        if (p.op == CmpOp::kNeq &&
            p.lhs.kind == DcOperand::Kind::kTupleA &&
            p.rhs.kind == DcOperand::Kind::kTupleB &&
            p.lhs.attr == p.rhs.attr) {
          int col = p.lhs.attr;
          result.changes.push_back(CellChange{
              row_b, col, result.repaired.Get(row_b, col),
              result.repaired.Get(row_a, col)});
          result.repaired.Set(row_b, col, result.repaired.Get(row_a, col));
          fixed = true;
          break;
        }
      }
      if (!fixed) {
        // Pass 2: order predicate between numeric cells -> set the two
        // cells equal when that falsifies a strict comparison, else nudge.
        for (const DcPredicate& p : dc.predicates()) {
          bool two_tuple = p.lhs.kind == DcOperand::Kind::kTupleA &&
                           p.rhs.kind == DcOperand::Kind::kTupleB;
          if (!two_tuple) continue;
          if (p.op == CmpOp::kLt || p.op == CmpOp::kGt) {
            int col = p.rhs.attr;
            result.changes.push_back(CellChange{
                row_b, col, result.repaired.Get(row_b, col),
                result.repaired.Get(row_a, p.lhs.attr)});
            result.repaired.Set(row_b, col,
                                result.repaired.Get(row_a, p.lhs.attr));
            fixed = true;
            break;
          }
        }
      }
      if (!fixed) {
        // Pass 3: constant predicate -> move the cell just past the
        // boundary so the comparison flips.
        for (const DcPredicate& p : dc.predicates()) {
          if (p.lhs.kind != DcOperand::Kind::kTupleA ||
              p.rhs.kind != DcOperand::Kind::kConst) {
            continue;
          }
          int col = p.lhs.attr;
          const Value& c = p.rhs.constant;
          Value target;
          switch (p.op) {
            case CmpOp::kLt:
            case CmpOp::kGt:
              target = c;  // v = c falsifies strict comparisons
              break;
            case CmpOp::kLe:
              if (!c.is_numeric()) continue;
              target = Value(c.AsNumeric() + 1);
              break;
            case CmpOp::kGe:
              if (!c.is_numeric()) continue;
              target = Value(c.AsNumeric() - 1);
              break;
            default:
              continue;  // equality against constants: no safe local fix
          }
          result.changes.push_back(CellChange{
              row_a, col, result.repaired.Get(row_a, col), target});
          result.repaired.Set(row_a, col, target);
          fixed = true;
          break;
        }
      }
      if (fixed) {
        ++changes_made;
        progress = true;
      }
    }
  }
  for (const Dc& dc : dcs) {
    auto rep = dc.Validate(result.repaired, 0);
    if (rep.ok() && !rep->holds) ++result.remaining_violations;
  }
  return result;
}

}  // namespace famtree
