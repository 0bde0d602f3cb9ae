#include "quality/holistic.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/run_context.h"
#include "common/thread_pool.h"

namespace famtree {

namespace {

struct CollectedViolation {
  int dc_index;
  std::vector<int> rows;
};

/// Cells feeding a violation: operand cells of every predicate.
std::vector<std::pair<int, int>> CellsOf(const Dc& dc,
                                         const CollectedViolation& v) {
  std::vector<std::pair<int, int>> cells;
  int row_a = v.rows[0];
  int row_b = v.rows.size() > 1 ? v.rows[1] : v.rows[0];
  for (const DcPredicate& p : dc.predicates()) {
    for (const DcOperand* o : {&p.lhs, &p.rhs}) {
      if (o->kind == DcOperand::Kind::kTupleA) {
        cells.push_back({row_a, o->attr});
      } else if (o->kind == DcOperand::Kind::kTupleB) {
        cells.push_back({row_b, o->attr});
      }
    }
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

/// Shared body: `pool == nullptr` is the serial walk; with a pool the
/// per-DC violation collection fans out and is merged in DC order.
Result<RepairResult> RepairHolisticImpl(const Relation& relation,
                                        const std::vector<Dc>& dcs,
                                        int max_changes, ThreadPool* pool,
                                        RunContext* ctx) {
  RunContext::BeginRun(ctx, "repair_holistic");
  RepairResult result;
  result.repaired = relation;
  Relation& r = result.repaired;
  int changes = 0;
  const int kPerDcCap = 512;

  while (changes < max_changes) {
    // One applied cell change per iteration: a serial, deterministic unit,
    // so a limit firing here leaves a prefix of the full run's repair.
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, changes, max_changes);
      for (const Dc& dc : dcs) {
        auto report = dc.Validate(r, 0);
        if (report.ok() && !report->holds) ++result.remaining_violations;
      }
      return result;
    }
    // 1. Collect violations across all DCs (read-only per DC, so the
    // Validates run concurrently; concatenation preserves DC order).
    std::vector<std::vector<CollectedViolation>> per_dc(dcs.size());
    FAMTREE_RETURN_NOT_OK(ParallelFor(
        pool, static_cast<int64_t>(dcs.size()), [&](int64_t d) {
          FAMTREE_ASSIGN_OR_RETURN(ValidationReport report,
                                   dcs[d].Validate(r, kPerDcCap));
          for (const Violation& v : report.violations) {
            per_dc[d].push_back(
                CollectedViolation{static_cast<int>(d), v.rows});
          }
          return Status::OK();
        }));
    std::vector<CollectedViolation> violations;
    for (const auto& list : per_dc) {
      violations.insert(violations.end(), list.begin(), list.end());
    }
    if (violations.empty()) break;

    // 2. Cells ranked by how many violations they feed.
    std::map<std::pair<int, int>, int> cell_count;
    for (const CollectedViolation& v : violations) {
      for (const auto& cell : CellsOf(dcs[v.dc_index], v)) {
        ++cell_count[cell];
      }
    }
    std::vector<std::pair<int, std::pair<int, int>>> ranked;
    for (const auto& [cell, count] : cell_count) {
      ranked.push_back({count, cell});
    }
    std::sort(ranked.rbegin(), ranked.rend());

    // Total violations a given row participates in, across all DCs —
    // the *global* objective a candidate value must improve (counting
    // only the cell's local violations lets an LHS change push the
    // conflict into another group instead of resolving it).
    auto row_violations = [&](int row) {
      int total = 0;
      for (const Dc& dc : dcs) {
        if (dc.IsSingleTuple()) {
          bool bad = true;
          for (const DcPredicate& p : dc.predicates()) {
            if (!p.Eval(r, row, row)) {
              bad = false;
              break;
            }
          }
          total += bad ? 1 : 0;
          continue;
        }
        for (int j = 0; j < r.num_rows(); ++j) {
          if (j == row) continue;
          bool ab = true, ba = true;
          for (const DcPredicate& p : dc.predicates()) {
            if (ab && !p.Eval(r, row, j)) ab = false;
            if (ba && !p.Eval(r, j, row)) ba = false;
            if (!ab && !ba) break;
          }
          total += (ab ? 1 : 0) + (ba ? 1 : 0);
        }
      }
      return total;
    };

    // 3./4. Walk cells by conflict count; apply the first strict global
    // improvement. Stop when no cell can be improved (termination).
    bool applied = false;
    for (const auto& [count, cell] : ranked) {
      auto [row, col] = cell;
      Value original = r.Get(row, col);
      int before = row_violations(row);
      if (before == 0) continue;

      // Candidate values: column domain (sampled) plus constant-predicate
      // boundaries on this column.
      std::vector<Value> candidates;
      std::set<std::string> seen;
      auto add_candidate = [&](const Value& v) {
        std::string key = std::string(ValueTypeName(v.type())) + v.ToString();
        if (seen.insert(key).second) candidates.push_back(v);
      };
      // Conflict partners first: for FD-shaped denials the partner's
      // value is usually the right repair.
      for (const CollectedViolation& v : violations) {
        bool involves = false;
        for (int vr : v.rows) involves |= vr == row;
        if (!involves) continue;
        for (int vr : v.rows) {
          if (vr != row) add_candidate(r.Get(vr, col));
        }
        if (candidates.size() >= 16) break;
      }
      for (int i = 0; i < r.num_rows() && candidates.size() < 24; ++i) {
        add_candidate(r.Get(i, col));
      }
      for (const Dc& dc : dcs) {
        for (const DcPredicate& p : dc.predicates()) {
          if (p.rhs.kind == DcOperand::Kind::kConst &&
              p.lhs.kind != DcOperand::Kind::kConst && p.lhs.attr == col) {
            add_candidate(p.rhs.constant);
            if (p.rhs.constant.is_numeric()) {
              add_candidate(Value(p.rhs.constant.AsNumeric() + 1));
              add_candidate(Value(p.rhs.constant.AsNumeric() - 1));
            }
          }
        }
      }

      int best_after = before;
      Value best_value = original;
      for (const Value& cand : candidates) {
        if (cand == original) continue;
        r.Set(row, col, cand);
        int after = row_violations(row);
        if (after < best_after) {
          best_after = after;
          best_value = cand;
        }
      }
      r.Set(row, col, original);
      if (best_after < before) {
        result.changes.push_back(CellChange{row, col, original, best_value});
        r.Set(row, col, best_value);
        ++changes;
        applied = true;
        break;
      }
    }
    if (!applied) break;
  }
  RunContext::MarkComplete(ctx, changes);

  for (const Dc& dc : dcs) {
    auto report = dc.Validate(r, 0);
    if (report.ok() && !report->holds) ++result.remaining_violations;
  }
  return result;
}

}  // namespace

Result<RepairResult> RepairWithDcsHolistic(const Relation& relation,
                                           const std::vector<Dc>& dcs,
                                           int max_changes) {
  return RepairHolisticImpl(relation, dcs, max_changes, nullptr, nullptr);
}

Result<RepairResult> RepairWithDcsHolistic(const Relation& relation,
                                           const std::vector<Dc>& dcs,
                                           int max_changes,
                                           const QualityOptions& options) {
  return RepairHolisticImpl(relation, dcs, max_changes, options.pool,
                            options.context);
}

}  // namespace famtree
