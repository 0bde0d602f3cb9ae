#include "discovery/cfd_discovery.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"

namespace famtree {

namespace {

/// Builds the pattern "attrs pinned to row's values" over `attrs`.
PatternTuple ConstPatternFromRow(const Relation& relation, int row,
                                 AttrSet attrs) {
  std::vector<PatternItem> items;
  for (int a : attrs.ToVector()) {
    items.push_back(PatternItem::Const(a, relation.Get(row, a)));
  }
  return PatternTuple(std::move(items));
}

/// Row agreement on a projection: integer code comparison (code equality
/// ⇔ Value equality).
bool RowsAgree(const EncodedRelation& encoded, int r1, int r2, AttrSet attrs) {
  for (int a : attrs) {
    if (encoded.code(r1, a) != encoded.code(r2, a)) return false;
  }
  return true;
}

/// Whether the FD lhs -> rhs holds within `rows`: each LHS key maps to one
/// RHS code.
bool HoldsWithin(const std::vector<int>& rows,
                 const std::vector<uint32_t>& lhs_keys,
                 const std::vector<uint32_t>& rhs_codes) {
  std::unordered_map<uint32_t, uint32_t> image;
  image.reserve(rows.size() * 2);
  for (int row : rows) {
    auto [it, inserted] = image.try_emplace(lhs_keys[row], rhs_codes[row]);
    if (!inserted && it->second != rhs_codes[row]) return false;
  }
  return true;
}

/// All general-CFD rows mined for one embedded FD X -> A. The subsumption
/// filter of the serial walk only ever matches CFDs with the same LHS and
/// RHS, so each embedded FD's tableau is fully independent of the others —
/// which is what makes the per-candidate parallel fan-out below exact.
std::vector<DiscoveredCfd> MineGeneralCandidate(
    const Relation& relation, const EncodedRelation& encoded, AttrSet lhs,
    int a, const CfdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  std::vector<DiscoveredCfd> mined;
  // Skip embedded FDs that hold globally — the plain FD subsumes every
  // conditional refinement. Exact FD check: distinct(X) == distinct(XA).
  std::vector<uint32_t> lhs_keys;
  int kx = encoded.RowKeys(lhs, &lhs_keys);
  std::vector<uint32_t> xa_keys;
  if (kx == encoded.RowKeys(lhs.With(a), &xa_keys)) return mined;
  // Condition head rows and attribute sets of the already-mined rows, for
  // the pattern-minimality (subsumption) filter.
  struct MinedInfo {
    int head_row;
    AttrSet cond;
  };
  std::vector<MinedInfo> infos;
  int max_cond = std::min(options.max_condition_attrs, lhs.size());
  for (int cond_size = 1; cond_size <= max_cond; ++cond_size) {
    for (AttrSet cond : AllSubsetsOfSize(nc, cond_size)) {
      if (!lhs.ContainsAll(cond)) continue;
      for (const auto& group : encoded.GroupBy(cond)) {
        if (static_cast<int>(group.size()) < options.min_support) {
          continue;
        }
        // Does the FD hold within the condition group?
        if (!HoldsWithin(group, lhs_keys, encoded.codes(a))) continue;
        // Pattern minimality: skip when an already-mined CFD on this
        // embedded FD has a condition subset matching this group (the
        // broader condition subsumes this one).
        bool subsumed = false;
        for (const MinedInfo& prev : infos) {
          if (cond.ContainsAll(prev.cond) && prev.cond != cond &&
              RowsAgree(encoded, prev.head_row, group[0], prev.cond)) {
            subsumed = true;
            break;
          }
        }
        if (subsumed) continue;
        std::vector<PatternItem> items;
        for (int b : lhs.ToVector()) {
          items.push_back(cond.Contains(b)
                              ? PatternItem::Const(
                                    b, relation.Get(group[0], b))
                              : PatternItem::Wildcard(b));
        }
        items.push_back(PatternItem::Wildcard(a));
        Cfd cfd(lhs, AttrSet::Single(a), PatternTuple(std::move(items)));
        mined.push_back(DiscoveredCfd{std::move(cfd),
                                      static_cast<int>(group.size())});
        infos.push_back(MinedInfo{group[0], cond});
      }
    }
  }
  return mined;
}

}  // namespace

Result<std::vector<DiscoveredCfd>> DiscoverConstantCfds(
    const Relation& relation, const CfdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "CFD discovery"));
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "constant_cfds");
  const int64_t total_levels = options.max_lhs_size;
  int64_t levels_done = 0;
  std::vector<DiscoveredCfd> out;
  // Minimality index: accepted CFDs keyed by (RHS attr, LHS attr mask),
  // each holding the accepted head rows' code tuples projected on
  // LHS + RHS. An emission is non-minimal exactly when some
  // key with a subset LHS and the same RHS holds the emission head row's
  // projection — a few tuple lookups instead of a scan over every
  // accepted CFD.
  struct IndexEntry {
    std::vector<int> attrs;  // LHS attrs, ascending; RHS appended to tuples
    std::set<std::vector<uint32_t>> tuples;
  };
  std::map<std::pair<int, AttrSet>, IndexEntry> index;
  auto project = [&](const IndexEntry& entry, int rhs, int row) {
    std::vector<uint32_t> tuple;
    tuple.reserve(entry.attrs.size() + 1);
    for (int b : entry.attrs) tuple.push_back(encoded->code(row, b));
    tuple.push_back(encoded->code(row, rhs));
    return tuple;
  };
  // One emission candidate: a support-qualified, RHS-uniform group. The
  // expensive grouping and uniformity scans fan out per LHS; the
  // minimality filter depends on the accepted list, so it replays serially
  // in the walk's (lhs, group, rhs) order — bit-identical at any thread
  // count.
  struct Emission {
    int head_row;
    int size;
    int rhs;
  };
  for (int size = 1; size <= options.max_lhs_size; ++size) {
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, levels_done, total_levels);
      return out;
    }
    std::vector<AttrSet> level = AllSubsetsOfSize(nc, size);
    std::vector<std::vector<Emission>> emissions(level.size());
    Status level_status = ParallelFor(
        pool, static_cast<int64_t>(level.size()), [&](int64_t li) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
          AttrSet lhs = level[li];
          for (const auto& group : encoded->GroupBy(lhs)) {
            if (static_cast<int>(group.size()) < options.min_support) {
              continue;
            }
            for (int a = 0; a < nc; ++a) {
              if (lhs.Contains(a)) continue;
              // All group members must agree on a.
              bool uniform = true;
              const std::vector<uint32_t>& codes = encoded->codes(a);
              for (size_t i = 1; i < group.size(); ++i) {
                if (codes[group[i]] != codes[group[0]]) {
                  uniform = false;
                  break;
                }
              }
              if (uniform) {
                emissions[li].push_back(Emission{
                    group[0], static_cast<int>(group.size()), a});
              }
            }
          }
          return Status::OK();
        });
    if (RunContext::IsStop(level_status)) {
      // The interrupted level is discarded whole: `out` still holds only
      // CFDs from completed levels, a prefix of the serial emission order.
      RunContext::MarkExhausted(ctx, level_status, levels_done, total_levels);
      return out;
    }
    FAMTREE_RETURN_NOT_OK(level_status);
    for (size_t li = 0; li < level.size(); ++li) {
      AttrSet lhs = level[li];
      for (const Emission& e : emissions[li]) {
        // Minimality: some accepted CFD with lhs' subset of lhs whose
        // pattern values agree with this group pins the same (a, value)?
        bool minimal = true;
        for (const auto& [key, entry] : index) {
          if (key.first != e.rhs || !lhs.ContainsAll(key.second)) continue;
          if (entry.tuples.count(project(entry, e.rhs, e.head_row)) > 0) {
            minimal = false;
            break;
          }
        }
        if (!minimal) continue;
        PatternTuple pattern = ConstPatternFromRow(relation, e.head_row, lhs);
        std::vector<PatternItem> items = pattern.items();
        items.push_back(
            PatternItem::Const(e.rhs, relation.Get(e.head_row, e.rhs)));
        Cfd cfd(lhs, AttrSet::Single(e.rhs), PatternTuple(std::move(items)));
        out.push_back(DiscoveredCfd{std::move(cfd), e.size});
        IndexEntry& entry = index[{e.rhs, lhs}];
        if (entry.attrs.empty()) entry.attrs = lhs.ToVector();
        entry.tuples.insert(project(entry, e.rhs, e.head_row));
        if (static_cast<int>(out.size()) >= options.max_results) {
          RunContext::MarkComplete(ctx, levels_done);
          return out;
        }
      }
    }
    ++levels_done;
  }
  RunContext::MarkComplete(ctx, levels_done);
  return out;
}

Result<std::vector<DiscoveredCfd>> DiscoverGeneralCfds(
    const Relation& relation, const CfdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "CFD discovery"));
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  // Embedded FD candidates in the serial walk's order; each one's tableau
  // is independent (see MineGeneralCandidate), so the fan-out is per
  // candidate with a serial concatenation.
  struct Candidate {
    AttrSet lhs;
    int rhs;
  };
  std::vector<Candidate> candidates;
  for (int size = 2; size <= options.max_lhs_size; ++size) {
    for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (lhs.Contains(a)) continue;
        candidates.push_back(Candidate{lhs, a});
      }
    }
  }
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "general_cfds");
  std::vector<std::vector<DiscoveredCfd>> mined(candidates.size());
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t done,
      AnytimeParallelFor(
          ctx, pool, static_cast<int64_t>(candidates.size()), [&](int64_t i) {
            mined[i] = MineGeneralCandidate(relation, *encoded,
                                            candidates[i].lhs,
                                            candidates[i].rhs, options);
            return Status::OK();
          }));
  std::vector<DiscoveredCfd> out;
  // Replaying only the completed candidate prefix keeps a cut run's output
  // identical at any thread count.
  for (int64_t c = 0; c < done; ++c) {
    for (DiscoveredCfd& cfd : mined[c]) {
      out.push_back(std::move(cfd));
      if (static_cast<int>(out.size()) >= options.max_results) {
        RunContext::MarkComplete(ctx, c + 1);
        return out;
      }
    }
  }
  if (done < static_cast<int64_t>(candidates.size())) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), done,
                              candidates.size());
  } else {
    RunContext::MarkComplete(ctx, done);
  }
  return out;
}

Result<std::vector<DiscoveredCfd>> BuildGreedyTableau(
    const Relation& relation, AttrSet lhs, int rhs, int condition_attr,
    const TableauOptions& options) {
  int nc = relation.num_columns();
  if (!AttrSet::Full(nc).ContainsAll(lhs) || rhs < 0 || rhs >= nc ||
      !lhs.Contains(condition_attr)) {
    return Status::Invalid(
        "tableau construction needs condition_attr inside the LHS and a "
        "valid RHS");
  }
  if (options.target_coverage < 0 || options.target_coverage > 1) {
    return Status::Invalid("target_coverage must be in [0, 1]");
  }
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  // Candidate patterns: the distinct values of condition_attr, scored by
  // group size, violation-free groups only. The per-group embedded-FD
  // checks are independent, so they fan out; the max_patterns cutoff
  // replays group order.
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "greedy_tableau");
  std::vector<uint32_t> lhs_keys;
  encoded->RowKeys(lhs, &lhs_keys);
  auto groups = encoded->GroupBy(AttrSet::Single(condition_attr));
  std::vector<char> qualifies(groups.size(), 0);
  Status qualify_status = ParallelFor(
      pool, static_cast<int64_t>(groups.size()), [&](int64_t g) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
        qualifies[g] = HoldsWithin(groups[g], lhs_keys, encoded->codes(rhs));
        return Status::OK();
      });
  if (RunContext::IsStop(qualify_status)) {
    // Cut before any pattern was selected: the partial tableau is empty.
    RunContext::MarkExhausted(ctx, qualify_status, 0, groups.size());
    return std::vector<DiscoveredCfd>{};
  }
  FAMTREE_RETURN_NOT_OK(qualify_status);
  struct Candidate {
    int head_row;
    std::vector<int> rows;
  };
  std::vector<Candidate> candidates;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (static_cast<int>(candidates.size()) >= options.max_patterns) break;
    if (!qualifies[g]) continue;
    candidates.push_back(Candidate{groups[g][0], groups[g]});
  }
  std::vector<DiscoveredCfd> tableau;
  std::vector<bool> covered(relation.num_rows(), false);
  int covered_count = 0;
  int target = static_cast<int>(options.target_coverage *
                                relation.num_rows());
  std::vector<bool> used(candidates.size(), false);
  while (covered_count < target) {
    // The greedy selection is serial and deterministic, so a cut mid-loop
    // leaves a prefix of the full run's tableau.
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, tableau.size(), candidates.size());
      return tableau;
    }
    // Greedy: candidate with the largest marginal cover.
    int best = -1, best_gain = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      int gain = 0;
      for (int r : candidates[i].rows) {
        if (!covered[r]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;  // no candidate adds coverage
    used[best] = true;
    for (int r : candidates[best].rows) {
      if (!covered[r]) {
        covered[r] = true;
        ++covered_count;
      }
    }
    std::vector<PatternItem> items;
    for (int b : lhs.ToVector()) {
      items.push_back(
          b == condition_attr
              ? PatternItem::Const(
                    b, relation.Get(candidates[best].head_row, b))
              : PatternItem::Wildcard(b));
    }
    items.push_back(PatternItem::Wildcard(rhs));
    Cfd cfd(lhs, AttrSet::Single(rhs), PatternTuple(std::move(items)));
    tableau.push_back(DiscoveredCfd{
        std::move(cfd), static_cast<int>(candidates[best].rows.size())});
  }
  RunContext::MarkComplete(ctx, tableau.size());
  return tableau;
}

}  // namespace famtree
