#include "discovery/hybrid/hybrid_md.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/hybrid/cover.h"
#include "discovery/hybrid/fd_tree.h"
#include "discovery/md_setup.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"

namespace famtree {

Result<std::vector<DiscoveredMd>> DiscoverMdsHybrid(
    const Relation& relation, AttrSet rhs, const MdDiscoveryOptions& options,
    HybridMdStats* stats) {
  // The cover tree answers exact validity (confidence == 1); approximate
  // confidence bounds go to the lattice miner.
  if (options.min_confidence != 1.0) {
    return DiscoverMds(relation, rhs, options);
  }
  md_internal::MdSetup setup;
  FAMTREE_RETURN_NOT_OK(md_internal::Prepare(relation, rhs, options, &setup));
  // One predicate bit per (attribute, sorted-unique threshold).
  int nc = relation.num_columns();
  std::vector<int> pbit_base(nc, -1);
  int pbits = 0;
  for (int a = 0; a < nc; ++a) {
    if (rhs.Contains(a)) continue;
    pbit_base[a] = pbits;
    pbits += static_cast<int>(setup.attr_th[a].size());
  }
  // Predicate sets wider than the cover tree's AttrSet capacity take the
  // lattice miner's candidate evaluation on the same setup (identical
  // output).
  if (pbits > kMaxAttrs) {
    return md_internal::Mine(&setup, options);
  }

  ThreadPool* pool = options.pool;
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "hybrid_md");
  int64_t num_candidates = static_cast<int64_t>(setup.lhs_sets.size());
  auto exhausted_early = [&](const Status& stop, int64_t total) {
    RunContext::MarkExhausted(ctx, stop, 0, total);
    return std::vector<DiscoveredMd>{};
  };
  // No borrowed distance table: a cache hit fills nothing, a miss lets the
  // kernel fill its own bucket tables.
  EvidenceOptions eopts;
  eopts.pool = pool;
  eopts.context = ctx;
  Result<std::shared_ptr<const EvidenceSet>> set_result =
      GetOrBuildEvidence(options.evidence, *setup.encoded, setup.fingerprint,
                         setup.config, eopts);
  if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
    return exhausted_early(set_result.status(), num_candidates);
  }
  FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                           std::move(set_result));
  const size_t num_words = set->num_words();
  std::vector<char> identified(num_words);
  for (size_t wi = 0; wi < num_words; ++wi) {
    bool id = true;
    for (int col : setup.rhs_cols) {
      if (!set->AgreesOn(wi, col)) {
        id = false;
        break;
      }
    }
    identified[wi] = id ? 1 : 0;
  }

  // --- Cover-tree induction over the violating (non-identified) words —
  // the MD analog of the FD engine's sampling stage. A word's satisfied
  // predicate set is upward-closed per attribute (closure of its bucket),
  // so plain subset tests implement MD generalization exactly.
  Status barrier = RunContext::Checkpoint(ctx);
  if (RunContext::IsStop(barrier)) {
    return exhausted_early(barrier, num_candidates);
  }
  FAMTREE_RETURN_NOT_OK(barrier);
  Status charged = RunContext::ChargeAlloc(
      ctx, num_words * sizeof(AttrSet), "hybrid_sample");
  if (RunContext::IsStop(charged)) {
    return exhausted_early(charged, num_candidates);
  }
  FAMTREE_RETURN_NOT_OK(charged);
  // closure(a, ti): predicate ti of attribute a plus every looser one —
  // bits [pbit_base + ti, pbit_base + #thresholds).
  const std::vector<std::vector<double>>& attr_th = setup.attr_th;
  const std::vector<int>& cfg_of = setup.cfg_of;
  auto closure = [&](int a, int ti) {
    int nth = static_cast<int>(attr_th[a].size());
    return AttrSet::Range(pbit_base[a] + ti, pbit_base[a] + nth);
  };
  std::vector<AttrSet> attr_pred_mask(nc);
  for (int a = 0; a < nc; ++a) {
    if (cfg_of[a] >= 0 && !attr_th[a].empty()) {
      attr_pred_mask[a] = closure(a, 0);
    }
  }
  int lhs_cap = std::clamp(options.max_lhs_attrs, 1, 2);
  auto keep = [&](AttrSet s) {
    int attrs = 0;
    for (int a = 0; a < nc; ++a) {
      if (s.Intersects(attr_pred_mask[a])) ++attrs;
    }
    return attrs <= lhs_cap;
  };
  FdTree positive(pbits);
  positive.Add(AttrSet(), 0);
  NegativeCover negative(pbits);
  Inductor inductor(&positive);
  std::vector<AttrSet> exts;
  int64_t violating_words = 0;
  for (size_t wi = 0; wi < num_words; ++wi) {
    if (identified[wi]) continue;
    ++violating_words;
    AttrSet sat;
    exts.clear();
    for (int a = 0; a < nc; ++a) {
      if (cfg_of[a] < 0 || attr_th[a].empty()) continue;
      int bucket = set->BucketOf(wi, cfg_of[a]);
      int nth = static_cast<int>(attr_th[a].size());
      if (bucket < nth) sat = sat.Union(closure(a, bucket));
      // The loosest unsatisfied threshold is the minimal way to exclude
      // this word via attribute a.
      if (bucket >= 1) exts.push_back(closure(a, bucket - 1));
    }
    if (!negative.AddMaximal(sat, 0)) continue;
    inductor.SpecializeAgainst(sat, 0, exts, keep);
  }

  // --- Candidate evaluation: validity is one cover-tree lookup; only the
  // support fold still walks the words (identified == similar for valid
  // candidates, and invalid ones are filtered on confidence below).
  std::vector<AttrSet> cand_bits(num_candidates);
  for (int64_t c = 0; c < num_candidates; ++c) {
    for (const auto& p : setup.lhs_sets[c]) {
      const std::vector<double>& th = attr_th[p.attr];
      int ti = static_cast<int>(std::find(th.begin(), th.end(), p.threshold) -
                                th.begin());
      cand_bits[c] = cand_bits[c].Union(closure(p.attr, ti));
    }
  }
  charged = RunContext::ChargeAlloc(
      ctx, num_candidates * (sizeof(Md::Stats) + sizeof(char)),
      "hybrid_validate");
  if (RunContext::IsStop(charged)) {
    return exhausted_early(charged, num_candidates);
  }
  FAMTREE_RETURN_NOT_OK(charged);
  std::vector<Md::Stats> cstats(num_candidates);
  std::vector<char> valid(num_candidates);
  int64_t candidates_done = 0;
  FAMTREE_ASSIGN_OR_RETURN(
      candidates_done,
      AnytimeParallelFor(ctx, pool, num_candidates, [&](int64_t c) {
        // The tree is immutable here; concurrent lookups are pure reads.
        valid[c] =
            positive.ContainsGeneralization(cand_bits[c], 0) ? 1 : 0;
        Md::Stats& st = cstats[c];
        st.total_pairs = set->total_pairs();
        for (size_t wi = 0; wi < num_words; ++wi) {
          bool similar = true;
          for (const auto& [col, ti] : setup.lhs_buckets[c]) {
            if (set->BucketOf(wi, col) > ti) {
              similar = false;
              break;
            }
          }
          if (similar) st.similar_pairs += set->count(wi);
        }
        if (valid[c]) st.identified_pairs = st.similar_pairs;
        return Status::OK();
      }));

  if (stats != nullptr) {
    stats->used_cover_tree = true;
    stats->predicate_bits = pbits;
    stats->evidence_words = static_cast<int64_t>(num_words);
    stats->violating_words = violating_words;
    stats->negative_cover_size = negative.size();
    stats->positive_cover_size = positive.CountEntries();
    stats->candidates = num_candidates;
    for (int64_t c = 0; c < candidates_done; ++c) {
      if (valid[c]) ++stats->valid_candidates;
    }
  }

  return md_internal::Replay(&setup, cstats, candidates_done, options);
}

}  // namespace famtree
