#include "discovery/sd_discovery.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"

namespace famtree {

namespace {

/// Per-row numerics of one column, decoded once per dictionary code (pure,
/// so the parallel fill order cannot affect the result).
Result<std::vector<double>> RowNumerics(const EncodedRelation& enc, int col,
                                        ThreadPool* pool) {
  std::vector<double> per_code(enc.dict_size(col));
  FAMTREE_RETURN_NOT_OK(
      ParallelFor(pool, static_cast<int64_t>(per_code.size()), [&](int64_t c) {
        per_code[c] = enc.Decode(col, static_cast<uint32_t>(c)).AsNumeric();
        return Status::OK();
      }));
  const std::vector<uint32_t>& codes = enc.codes(col);
  std::vector<double> out(codes.size());
  for (size_t row = 0; row < codes.size(); ++row) {
    out[row] = per_code[codes[row]];
  }
  return out;
}

/// Sd::Confidence with the sort and the numerics precomputed — the same
/// O(n^2) DP in the same order, so the result is bit-identical.
double ConfidenceFromSorted(const std::vector<int>& order,
                            const std::vector<double>& target_num,
                            const Interval& gap) {
  int n = static_cast<int>(order.size());
  if (n <= 1) return 1.0;
  std::vector<int> best(n, 1);
  int longest = 1;
  for (int i = 1; i < n; ++i) {
    double yi = target_num[order[i]];
    for (int j = 0; j < i; ++j) {
      if (gap.Contains(yi - target_num[order[j]])) {
        best[i] = std::max(best[i], best[j] + 1);
      }
    }
    longest = std::max(longest, best[i]);
  }
  return static_cast<double>(longest) / n;
}

}  // namespace

Result<DiscoveredSd> DiscoverSd(const Relation& relation, int order_attr,
                                int target_attr,
                                const SdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  if (order_attr < 0 || order_attr >= nc || target_attr < 0 ||
      target_attr >= nc) {
    return Status::Invalid("attributes outside the schema");
  }
  if (relation.num_rows() < 2) {
    return Status::Invalid("need at least two rows");
  }
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  // A single-result driver has no partial prefix to return: a fired limit
  // surfaces as the stop status itself, with the report marked exhausted.
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "sd");
  Status gate = RunContext::Checkpoint(ctx);
  if (RunContext::IsStop(gate)) {
    RunContext::MarkExhausted(ctx, gate, 0, 2);
    return gate;
  }
  std::vector<int> order =
      SortedRowOrder(*encoded, order_attr, CodeRanks(*encoded, order_attr));
  FAMTREE_ASSIGN_OR_RETURN(std::vector<double> target_num,
                           RowNumerics(*encoded, target_attr, options.pool));
  std::vector<double> gaps;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    double d = target_num[order[i + 1]] - target_num[order[i]];
    if (std::isfinite(d)) gaps.push_back(d);
  }
  if (gaps.empty()) return Status::NotFound("no numeric gaps to fit");
  std::vector<double> sorted_gaps = gaps;
  std::sort(sorted_gaps.begin(), sorted_gaps.end());
  auto at = [&sorted_gaps](double q) {
    size_t idx = std::min(sorted_gaps.size() - 1,
                          static_cast<size_t>(q * sorted_gaps.size()));
    return sorted_gaps[idx];
  };
  Interval g = Interval::Between(at(options.lo_quantile),
                                 at(options.hi_quantile));
  gate = RunContext::Checkpoint(ctx);
  if (RunContext::IsStop(gate)) {
    RunContext::MarkExhausted(ctx, gate, 1, 2);
    return gate;
  }
  Sd sd(order_attr, target_attr, g);
  double conf = ConfidenceFromSorted(order, target_num, g);
  RunContext::MarkComplete(ctx, 2);
  if (conf < options.min_confidence) {
    return Status::NotFound("no SD meets the confidence bound");
  }
  return DiscoveredSd{std::move(sd), conf};
}

Result<DiscoveredCsd> DiscoverCsdTableau(const Relation& relation,
                                         int order_attr, int target_attr,
                                         const CsdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  if (order_attr < 0 || order_attr >= nc || target_attr < 0 ||
      target_attr >= nc) {
    return Status::Invalid("attributes outside the schema");
  }
  int n = relation.num_rows();
  if (n < 2) return Status::Invalid("need at least two rows");

  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  // Single tableau result; limits stop the run, they cannot shrink it.
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "csd_tableau");
  Status gate = RunContext::Checkpoint(ctx);
  if (RunContext::IsStop(gate)) {
    RunContext::MarkExhausted(ctx, gate, 0, 0);
    return gate;
  }
  std::vector<int> order =
      SortedRowOrder(*encoded, order_attr, CodeRanks(*encoded, order_attr));
  FAMTREE_ASSIGN_OR_RETURN(std::vector<double> order_num,
                           RowNumerics(*encoded, order_attr, options.pool));
  FAMTREE_ASSIGN_OR_RETURN(std::vector<double> target_num,
                           RowNumerics(*encoded, target_attr, options.pool));
  // Distinct order-attribute groups along the sorted sequence.
  std::vector<int> group_start;  // position of each group's first row
  std::vector<double> group_value;
  for (int i = 0; i < n; ++i) {
    double x = order_num[order[i]];
    if (!std::isfinite(x)) {
      return Status::Invalid("CSD discovery needs a numeric order attribute");
    }
    if (group_start.empty() || x != group_value.back()) {
      group_start.push_back(i);
      group_value.push_back(x);
    }
  }
  int k = static_cast<int>(group_start.size());
  auto group_end = [&](int g) {  // one past last sorted position of group g
    return g + 1 < k ? group_start[g + 1] : n;
  };

  // Prefix sums of satisfied consecutive gaps: sat[i] = 1 iff the gap
  // between sorted positions i and i+1 lies in the required interval.
  std::vector<int> sat_prefix(n, 0);
  for (int i = 0; i + 1 < n; ++i) {
    double d = target_num[order[i + 1]] - target_num[order[i]];
    int ok = (std::isfinite(d) && options.gap.Contains(d)) ? 1 : 0;
    sat_prefix[i + 1] = sat_prefix[i] + ok;
  }

  // Candidate interval [a, b] over distinct groups: sorted positions
  // [group_start[a], group_end(b)); gaps inside: count = span - 1.
  auto interval_rows = [&](int a, int b) {
    return group_end(b) - group_start[a];
  };
  auto interval_conf = [&](int a, int b) {
    int lo = group_start[a], hi = group_end(b) - 1;  // gap positions lo..hi-1
    int gaps = hi - lo;
    if (gaps <= 0) return 1.0;
    int satisfied = sat_prefix[hi] - sat_prefix[lo];
    return static_cast<double>(satisfied) / gaps;
  };

  // DP over groups: best[g] = (covered rows, chosen intervals) using
  // groups 0..g-1. Quadratic in k — the Fig. 3 polynomial case.
  std::vector<int> best(k + 1, 0);
  std::vector<std::pair<int, int>> choice(k + 1, {-1, -1});  // interval a..b
  std::vector<int> back(k + 1, 0);
  for (int g = 1; g <= k; ++g) {
    Status poll = RunContext::Poll(ctx);
    if (RunContext::IsStop(poll)) {
      RunContext::MarkExhausted(ctx, poll, g - 1, k);
      return poll;
    }
    best[g] = best[g - 1];
    back[g] = g - 1;
    choice[g] = {-1, -1};
    for (int a = 0; a < g; ++a) {
      int b = g - 1;
      if (interval_rows(a, b) < options.min_interval_rows) continue;
      if (interval_conf(a, b) < options.min_confidence) continue;
      int covered = best[a] + interval_rows(a, b);
      if (covered > best[g]) {
        best[g] = covered;
        back[g] = a;
        choice[g] = {a, b};
      }
    }
  }
  // Reconstruct tableau.
  std::vector<Csd::TableauRow> tableau;
  int g = k;
  while (g > 0) {
    if (choice[g].first >= 0) {
      auto [a, b] = choice[g];
      tableau.push_back(Csd::TableauRow{group_value[a], group_value[b],
                                        options.gap});
      g = back[g];
    } else {
      g = back[g];
    }
  }
  std::reverse(tableau.begin(), tableau.end());
  RunContext::MarkComplete(ctx, k);
  if (tableau.empty()) {
    return Status::NotFound("no qualifying condition interval");
  }
  Csd csd(order_attr, target_attr, std::move(tableau));
  return DiscoveredCsd{std::move(csd), best[k]};
}

}  // namespace famtree
