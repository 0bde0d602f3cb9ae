#include "discovery/fastfd.h"

#include <algorithm>
#include <set>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "relation/encoded_relation.h"

namespace famtree {

namespace {

/// DFS for minimal hitting sets ("covers" in FastFDs terms) of the
/// difference sets in `diffs`, extending `chosen` with attributes > `last`
/// (the ordering makes each cover generated once).
void FindMinimalCovers(const std::vector<AttrSet>& diffs, AttrSet universe,
                       AttrSet chosen, int last, int max_size,
                       std::vector<AttrSet>* covers, int max_results) {
  if (static_cast<int>(covers->size()) >= max_results) return;
  // Is every difference set hit?
  bool all_hit = true;
  for (const AttrSet& d : diffs) {
    if (!d.Intersects(chosen)) {
      all_hit = false;
      break;
    }
  }
  if (all_hit) {
    // Minimality: removing any chosen attribute must leave some set unhit.
    for (int a : chosen.ToVector()) {
      AttrSet reduced = chosen.Without(a);
      bool still_hits = true;
      for (const AttrSet& d : diffs) {
        if (!d.Intersects(reduced)) {
          still_hits = false;
          break;
        }
      }
      if (still_hits) return;  // non-minimal; a smaller cover exists
    }
    covers->push_back(chosen);
    return;
  }
  if (chosen.size() >= max_size) return;
  // Branch on attributes of the first unhit difference set (classic
  // hitting-set DFS keeps the search focused).
  AttrSet first_unhit;
  for (const AttrSet& d : diffs) {
    if (!d.Intersects(chosen)) {
      first_unhit = d;
      break;
    }
  }
  for (int a : first_unhit.Intersect(universe).ToVector()) {
    if (a <= last && chosen.Contains(a)) continue;
    FindMinimalCovers(diffs, universe, chosen.With(a), a, max_size, covers,
                      max_results);
  }
}

}  // namespace

Result<std::vector<DiscoveredFd>> DiscoverFdsFastFd(
    const Relation& relation, const FastFdOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "FastFDs"));
  int n = relation.num_rows();
  // Difference sets of all tuple pairs, deduplicated and reduced to the
  // minimal ones (a superset of a difference set is redundant for covers).
  // The pair loop is chunked over leading rows; each chunk collects a
  // private mask set and the union of sets is order-independent, so the
  // chunk count cannot change the result. The per-cell comparison is one
  // uint32 compare over flat code arrays (code equality is exactly Value
  // equality).
  EncodedRelation encoded(relation);
  std::vector<const std::vector<uint32_t>*> codes;
  for (int a = 0; a < nc; ++a) codes.push_back(&encoded.codes(a));
  int num_chunks = options.pool == nullptr
                       ? 1
                       : std::max(1, options.pool->num_threads() * 4);
  num_chunks = std::min(num_chunks, std::max(1, n));
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "fastfd");
  std::vector<std::set<AttrSet>> chunk_masks(num_chunks);
  Status diff_status = ParallelFor(options.pool, num_chunks, [&](int64_t c) {
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
    int begin = static_cast<int>(static_cast<int64_t>(n) * c / num_chunks);
    int end = static_cast<int>(static_cast<int64_t>(n) * (c + 1) / num_chunks);
    std::set<AttrSet>& local = chunk_masks[c];
    for (int i = begin; i < end; ++i) {
      for (int j = i + 1; j < n; ++j) {
        AttrSet d;
        for (int a = 0; a < nc; ++a) {
          if ((*codes[a])[i] != (*codes[a])[j]) d.Add(a);
        }
        if (!d.empty()) local.insert(d);
      }
    }
    return Status::OK();
  });
  if (RunContext::IsStop(diff_status)) {
    // Cut during difference-set construction: no RHS was searched, so the
    // partial result is the empty prefix.
    RunContext::MarkExhausted(ctx, diff_status, 0, nc);
    return std::vector<DiscoveredFd>{};
  }
  FAMTREE_RETURN_NOT_OK(diff_status);
  std::set<AttrSet> diff_masks;
  for (const std::set<AttrSet>& local : chunk_masks) {
    diff_masks.insert(local.begin(), local.end());
  }
  std::vector<AttrSet> all_diffs(diff_masks.begin(), diff_masks.end());

  // Per-RHS cover searches are independent; run them concurrently into
  // per-attribute slots, then concatenate in attribute order (the serial
  // emission order) with the same result cap.
  std::vector<std::vector<DiscoveredFd>> per_rhs(nc);
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t rhs_done,
      AnytimeParallelFor(ctx, options.pool, nc, [&](int64_t ai) {
    int a = static_cast<int>(ai);
    // Difference sets relevant for RHS a: those containing a, minus a.
    std::vector<AttrSet> diffs;
    for (const AttrSet& d : all_diffs) {
      if (d.Contains(a)) {
        AttrSet rest = d.Without(a);
        diffs.push_back(rest);
      }
    }
    // If some pair differs *only* on a, no FD X -> a exists (the empty
    // difference set cannot be hit).
    bool impossible = false;
    for (const AttrSet& d : diffs) {
      if (d.empty()) {
        impossible = true;
        break;
      }
    }
    if (impossible) return Status::OK();
    if (diffs.empty()) {
      // No pair ever disagrees on a: the column is constant, {} -> a.
      per_rhs[a].push_back(DiscoveredFd{AttrSet(), a, 0.0});
      return Status::OK();
    }
    // Keep only minimal difference sets (supersets are hit automatically).
    std::vector<AttrSet> minimal;
    for (const AttrSet& d : diffs) {
      bool has_subset = false;
      for (const AttrSet& e : diffs) {
        if (e != d && d.ContainsAll(e)) {
          has_subset = true;
          break;
        }
      }
      if (!has_subset) minimal.push_back(d);
    }
    std::sort(minimal.begin(), minimal.end());
    minimal.erase(std::unique(minimal.begin(), minimal.end()), minimal.end());

    std::vector<AttrSet> covers;
    FindMinimalCovers(minimal, AttrSet::Full(nc).Without(a), AttrSet(), -1,
                      options.max_lhs_size, &covers, options.max_results);
    std::sort(covers.begin(), covers.end());
    covers.erase(std::unique(covers.begin(), covers.end()), covers.end());
    for (const AttrSet& x : covers) {
      per_rhs[a].push_back(DiscoveredFd{x, a, 0.0});
    }
    return Status::OK();
      }));
  std::vector<DiscoveredFd> out;
  // The concatenation replays the completed RHS prefix only, so a cut run
  // emits the same FDs at any thread count.
  for (int a = 0; a < static_cast<int>(rhs_done); ++a) {
    for (const DiscoveredFd& fd : per_rhs[a]) {
      out.push_back(fd);
      // The cap applies to cover-derived FDs; constant columns (empty LHS)
      // bypass it, mirroring the serial emission exactly.
      if (!fd.lhs.empty() &&
          static_cast<int>(out.size()) >= options.max_results) {
        RunContext::MarkComplete(ctx, a + 1);
        return out;
      }
    }
  }
  if (rhs_done < nc) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx), rhs_done, nc);
  } else {
    RunContext::MarkComplete(ctx, rhs_done);
  }
  return out;
}

}  // namespace famtree
