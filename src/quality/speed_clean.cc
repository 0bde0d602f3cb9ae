#include "quality/speed_clean.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/run_context.h"
#include "common/strings.h"
#include "deps/sd.h"
#include "discovery/discovery_util.h"

namespace famtree {

namespace {

Status CheckArgs(const Relation& relation, int time_attr, int value_attr,
                 const SpeedConstraint& constraint) {
  int nc = relation.num_columns();
  if (time_attr < 0 || time_attr >= nc || value_attr < 0 ||
      value_attr >= nc || time_attr == value_attr) {
    return Status::Invalid("invalid time/value attributes");
  }
  if (constraint.min_speed > constraint.max_speed) {
    return Status::Invalid("empty speed band");
  }
  return Status::OK();
}

/// Numeric view of a column, decoded once per dictionary code. Codes hold
/// the exact column Values, so num[code(row)] == Get(row).AsNumeric().
std::vector<double> CodeNumerics(const EncodedRelation& enc, int col) {
  int k = enc.dict_size(col);
  std::vector<double> num(k);
  for (int c = 0; c < k; ++c) num[c] = enc.Decode(col, c).AsNumeric();
  return num;
}

}  // namespace

Result<std::vector<Violation>> DetectSpeedViolations(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint) {
  FAMTREE_RETURN_NOT_OK(
      CheckArgs(relation, time_attr, value_attr, constraint));
  std::vector<int> order = Sd::SortedOrder(relation, time_attr);
  std::vector<Violation> out;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    double t1 = relation.Get(order[i], time_attr).AsNumeric();
    double t2 = relation.Get(order[i + 1], time_attr).AsNumeric();
    double v1 = relation.Get(order[i], value_attr).AsNumeric();
    double v2 = relation.Get(order[i + 1], value_attr).AsNumeric();
    double dt = t2 - t1;
    if (!std::isfinite(dt) || dt <= 0) continue;  // ties or bad stamps
    double speed = (v2 - v1) / dt;
    // Tolerance: repairs clamp exactly onto the band boundary, and the
    // recomputed (v2 - v1) / dt can land an ulp outside it.
    double eps = 1e-9 * std::max({1.0, std::fabs(constraint.min_speed),
                                  std::fabs(constraint.max_speed),
                                  std::fabs(v1), std::fabs(v2)});
    if (!std::isfinite(speed) || speed < constraint.min_speed - eps ||
        speed > constraint.max_speed + eps) {
      out.push_back(Violation{
          {order[i], order[i + 1]},
          "rate of change " + FormatDouble(speed) + " outside [" +
              FormatDouble(constraint.min_speed) + ", " +
              FormatDouble(constraint.max_speed) + "]"});
    }
  }
  return out;
}

Result<RepairResult> RepairWithSpeedConstraint(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint) {
  FAMTREE_RETURN_NOT_OK(
      CheckArgs(relation, time_attr, value_attr, constraint));
  RepairResult result;
  result.repaired = relation;
  std::vector<int> order = Sd::SortedOrder(relation, time_attr);
  if (order.empty()) return result;
  double prev_t =
      result.repaired.Get(order[0], time_attr).AsNumeric();
  double prev_v =
      result.repaired.Get(order[0], value_attr).AsNumeric();
  for (size_t i = 1; i < order.size(); ++i) {
    int row = order[i];
    double t = result.repaired.Get(row, time_attr).AsNumeric();
    double v = result.repaired.Get(row, value_attr).AsNumeric();
    double dt = t - prev_t;
    if (!std::isfinite(dt) || dt <= 0 || !std::isfinite(v)) {
      prev_t = std::isfinite(t) ? t : prev_t;
      prev_v = std::isfinite(v) ? v : prev_v;
      continue;
    }
    double lo = prev_v + constraint.min_speed * dt;
    double hi = prev_v + constraint.max_speed * dt;
    double clamped = std::clamp(v, lo, hi);
    if (clamped != v) {
      result.changes.push_back(CellChange{
          row, value_attr, result.repaired.Get(row, value_attr),
          Value(clamped)});
      result.repaired.Set(row, value_attr, Value(clamped));
    }
    prev_t = t;
    prev_v = clamped;
  }
  auto remaining = DetectSpeedViolations(result.repaired, time_attr,
                                         value_attr, constraint);
  result.remaining_violations =
      remaining.ok() ? static_cast<int>(remaining->size()) : -1;
  return result;
}

Result<std::vector<Violation>> DetectSpeedViolations(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint, const QualityOptions& options) {
  FAMTREE_RETURN_NOT_OK(
      CheckArgs(relation, time_attr, value_attr, constraint));
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  std::vector<int> order =
      SortedRowOrder(*encoded, time_attr, CodeRanks(*encoded, time_attr));
  std::vector<double> time_num = CodeNumerics(*encoded, time_attr);
  std::vector<double> value_num = CodeNumerics(*encoded, value_attr);
  const std::vector<uint32_t>& tcodes = encoded->codes(time_attr);
  const std::vector<uint32_t>& vcodes = encoded->codes(value_attr);
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "speed_detect");
  const int64_t total_gaps =
      order.empty() ? 0 : static_cast<int64_t>(order.size()) - 1;
  std::vector<Violation> out;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    // Serial scan over time-sorted gaps: a stop here leaves the violation
    // prefix the full run would have emitted by gap i.
    Status poll = RunContext::Poll(ctx);
    if (RunContext::IsStop(poll)) {
      RunContext::MarkExhausted(ctx, poll, i, total_gaps);
      return out;
    }
    double t1 = time_num[tcodes[order[i]]];
    double t2 = time_num[tcodes[order[i + 1]]];
    double v1 = value_num[vcodes[order[i]]];
    double v2 = value_num[vcodes[order[i + 1]]];
    double dt = t2 - t1;
    if (!std::isfinite(dt) || dt <= 0) continue;  // ties or bad stamps
    double speed = (v2 - v1) / dt;
    double eps = 1e-9 * std::max({1.0, std::fabs(constraint.min_speed),
                                  std::fabs(constraint.max_speed),
                                  std::fabs(v1), std::fabs(v2)});
    if (!std::isfinite(speed) || speed < constraint.min_speed - eps ||
        speed > constraint.max_speed + eps) {
      out.push_back(Violation{
          {order[i], order[i + 1]},
          "rate of change " + FormatDouble(speed) + " outside [" +
              FormatDouble(constraint.min_speed) + ", " +
              FormatDouble(constraint.max_speed) + "]"});
    }
  }
  RunContext::MarkComplete(ctx, total_gaps);
  return out;
}

Result<RepairResult> RepairWithSpeedConstraint(
    const Relation& relation, int time_attr, int value_attr,
    const SpeedConstraint& constraint, const QualityOptions& options) {
  FAMTREE_RETURN_NOT_OK(
      CheckArgs(relation, time_attr, value_attr, constraint));
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  std::vector<int> order =
      SortedRowOrder(*encoded, time_attr, CodeRanks(*encoded, time_attr));
  // The scan visits each row exactly once and only ever writes the row it
  // is visiting, so the pre-decoded numerics (which reflect the *input*)
  // stay valid for every read.
  std::vector<double> time_num = CodeNumerics(*encoded, time_attr);
  std::vector<double> value_num = CodeNumerics(*encoded, value_attr);
  const std::vector<uint32_t>& tcodes = encoded->codes(time_attr);
  const std::vector<uint32_t>& vcodes = encoded->codes(value_attr);
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "speed_repair");
  RepairResult result;
  result.repaired = relation;
  if (order.empty()) {
    RunContext::MarkComplete(ctx, 0);
    return result;
  }
  const int64_t total_steps = static_cast<int64_t>(order.size()) - 1;
  bool stopped = false;
  double prev_t = time_num[tcodes[order[0]]];
  double prev_v = value_num[vcodes[order[0]]];
  for (size_t i = 1; i < order.size(); ++i) {
    // The clamp scan is serial in time order, so a stop leaves the exact
    // repair prefix of the full run.
    Status poll = RunContext::Poll(ctx);
    if (RunContext::IsStop(poll)) {
      RunContext::MarkExhausted(ctx, poll, i - 1, total_steps);
      stopped = true;
      break;
    }
    int row = order[i];
    double t = time_num[tcodes[row]];
    double v = value_num[vcodes[row]];
    double dt = t - prev_t;
    if (!std::isfinite(dt) || dt <= 0 || !std::isfinite(v)) {
      prev_t = std::isfinite(t) ? t : prev_t;
      prev_v = std::isfinite(v) ? v : prev_v;
      continue;
    }
    double lo = prev_v + constraint.min_speed * dt;
    double hi = prev_v + constraint.max_speed * dt;
    double clamped = std::clamp(v, lo, hi);
    if (clamped != v) {
      result.changes.push_back(CellChange{
          row, value_attr, result.repaired.Get(row, value_attr),
          Value(clamped)});
      result.repaired.Set(row, value_attr, Value(clamped));
    }
    prev_t = t;
    prev_v = clamped;
  }
  if (!stopped) RunContext::MarkComplete(ctx, total_steps);
  auto remaining = DetectSpeedViolations(result.repaired, time_attr,
                                         value_attr, constraint);
  result.remaining_violations =
      remaining.ok() ? static_cast<int>(remaining->size()) : -1;
  return result;
}

}  // namespace famtree
