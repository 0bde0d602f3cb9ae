#include "quality/impute.h"

#include <memory>
#include <vector>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "metric/code_distance.h"

namespace famtree {

Result<ImputeResult> ImputeWithNed(const Relation& relation,
                                   const Ned& rule) {
  if (rule.rhs().size() != 1) {
    return Status::Invalid("imputation takes a single-target NED");
  }
  int target = rule.rhs()[0].attr;
  int n = relation.num_rows();
  ImputeResult result;
  result.imputed = relation;
  for (int i = 0; i < n; ++i) {
    if (!relation.Get(i, target).is_null()) continue;
    // Neighbors: rows agreeing with i on every LHS predicate, with a
    // non-null target value.
    std::vector<int> neighbors;
    for (int j = 0; j < n; ++j) {
      if (j == i || relation.Get(j, target).is_null()) continue;
      bool close = true;
      for (const auto& p : rule.lhs()) {
        double d = p.metric->Distance(relation.Get(i, p.attr),
                                      relation.Get(j, p.attr));
        if (d > p.threshold) {
          close = false;
          break;
        }
      }
      if (close) neighbors.push_back(j);
    }
    if (neighbors.empty()) {
      ++result.unfilled;
      continue;
    }
    // Numeric targets: mean; otherwise plurality.
    bool all_numeric = true;
    for (int j : neighbors) {
      if (!relation.Get(j, target).is_numeric()) {
        all_numeric = false;
        break;
      }
    }
    Value prediction;
    if (all_numeric) {
      double sum = 0;
      for (int j : neighbors) sum += relation.Get(j, target).AsNumeric();
      prediction = Value(sum / neighbors.size());
    } else {
      std::vector<std::pair<Value, int>> counts;
      for (int j : neighbors) {
        const Value& v = relation.Get(j, target);
        bool found = false;
        for (auto& [val, cnt] : counts) {
          if (val == v) {
            ++cnt;
            found = true;
            break;
          }
        }
        if (!found) counts.push_back({v, 1});
      }
      int best = 0;
      for (const auto& [val, cnt] : counts) {
        if (cnt > best) {
          best = cnt;
          prediction = val;
        }
      }
    }
    result.imputed.Set(i, target, prediction);
    ++result.filled;
  }
  return result;
}

Result<ImputeResult> ImputeWithNed(const Relation& relation, const Ned& rule,
                                   const QualityOptions& options) {
  if (rule.rhs().size() != 1) {
    return Status::Invalid("imputation takes a single-target NED");
  }
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "impute_ned");
  int target = rule.rhs()[0].attr;
  int n = relation.num_rows();
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  std::vector<std::unique_ptr<CodeDistanceTable>> tables;
  for (const auto& p : rule.lhs()) {
    tables.push_back(std::make_unique<CodeDistanceTable>(
        *encoded, p.attr, p.metric, options.pool));
  }
  std::vector<char> target_null(n);
  for (int i = 0; i < n; ++i) {
    target_null[i] = relation.Get(i, target).is_null() ? 1 : 0;
  }
  // Every prediction reads only the (unmutated) input relation, so the
  // per-null-cell neighbor scans are independent; the fills apply in row
  // order below.
  struct Prediction {
    bool has_neighbors = false;
    Value value;
  };
  std::vector<Prediction> predictions(n);
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t rows_done,
      AnytimeParallelFor(ctx, options.pool, n, [&](int64_t i) {
    if (!target_null[i]) return Status::OK();
    std::vector<int> neighbors;
    for (int j = 0; j < n; ++j) {
      if (j == i || target_null[j]) continue;
      bool close = true;
      for (size_t k = 0; k < rule.lhs().size(); ++k) {
        if (tables[k]->RowDistance(static_cast<int>(i), j) >
            rule.lhs()[k].threshold) {
          close = false;
          break;
        }
      }
      if (close) neighbors.push_back(j);
    }
    if (neighbors.empty()) return Status::OK();
    predictions[i].has_neighbors = true;
    bool all_numeric = true;
    for (int j : neighbors) {
      if (!relation.Get(j, target).is_numeric()) {
        all_numeric = false;
        break;
      }
    }
    if (all_numeric) {
      double sum = 0;
      for (int j : neighbors) sum += relation.Get(j, target).AsNumeric();
      predictions[i].value = Value(sum / neighbors.size());
    } else {
      std::vector<std::pair<Value, int>> counts;
      for (int j : neighbors) {
        const Value& v = relation.Get(j, target);
        bool found = false;
        for (auto& [val, cnt] : counts) {
          if (val == v) {
            ++cnt;
            found = true;
            break;
          }
        }
        if (!found) counts.push_back({v, 1});
      }
      int best = 0;
      for (const auto& [val, cnt] : counts) {
        if (cnt > best) {
          best = cnt;
          predictions[i].value = val;
        }
      }
    }
    return Status::OK();
      }));
  ImputeResult result;
  result.imputed = relation;
  // Only completed rows are filled or counted: a cut run's fills are the
  // full run's fills restricted to the completed row prefix.
  for (int i = 0; i < static_cast<int>(rows_done); ++i) {
    if (!target_null[i]) continue;
    if (!predictions[i].has_neighbors) {
      ++result.unfilled;
      continue;
    }
    result.imputed.Set(i, target, predictions[i].value);
    ++result.filled;
  }
  if (rows_done < n) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), rows_done, n);
  } else {
    RunContext::MarkComplete(ctx, rows_done);
  }
  return result;
}

}  // namespace famtree
