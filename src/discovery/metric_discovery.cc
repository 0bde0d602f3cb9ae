#include "discovery/metric_discovery.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "discovery/discovery_util.h"
#include "engine/evidence.h"
#include "engine/evidence_cache.h"
#include "metric/code_distance.h"
#include "metric/metric.h"

namespace famtree {

namespace {

/// The max finite pairwise distance from the code-count histogram: every
/// cross-code pair with both codes present occurs among the row pairs, and
/// a diagonal pair needs its code on at least two rows — so the fold over
/// occurring code pairs equals the O(n^2) row-pair fold.
double GlobalDiameterFromCodes(const EncodedRelation& encoded, int attr,
                               const CodeDistanceTable& table) {
  const std::vector<uint32_t>& codes = encoded.codes(attr);
  int k = encoded.dict_size(attr);
  std::vector<int64_t> count(k, 0);
  for (uint32_t c : codes) ++count[c];
  double diameter = 0.0;
  for (int c1 = 0; c1 < k; ++c1) {
    if (count[c1] == 0) continue;
    if (count[c1] >= 2) {
      double d = table.Distance(c1, c1);
      if (std::isfinite(d)) diameter = std::max(diameter, d);
    }
    for (int c2 = c1 + 1; c2 < k; ++c2) {
      if (count[c2] == 0) continue;
      double d = table.Distance(c1, c2);
      if (std::isfinite(d)) diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

}  // namespace

Result<std::vector<DiscoveredMfd>> DiscoverMfds(
    const Relation& relation, const MfdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "MFD discovery"));
  if (options.max_delta_ratio <= 0 || options.max_delta_ratio > 1) {
    return Status::Invalid("max_delta_ratio must be in (0, 1]");
  }
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  std::vector<MetricPtr> metrics(nc);
  for (int a = 0; a < nc; ++a) {
    metrics[a] = DefaultMetricFor(relation.schema().column(a).type);
  }
  // Code-pair distance tables, one per attribute, built before any outer
  // ParallelFor (each fill parallelizes internally on the same pool).
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "mfds");
  // A stop during the shared precomputation cuts before any candidate was
  // evaluated: the partial result is the empty prefix.
  auto exhausted_early = [&](const Status& stop, int64_t total) {
    RunContext::MarkExhausted(ctx, stop, 0, total);
    return std::vector<DiscoveredMfd>{};
  };
  std::vector<std::unique_ptr<CodeDistanceTable>> tables(nc);
  for (int a = 0; a < nc; ++a) {
    Status st = RunContext::Poll(ctx);
    if (RunContext::IsStop(st)) return exhausted_early(st, 0);
    tables[a] =
        std::make_unique<CodeDistanceTable>(*encoded, a, metrics[a], pool);
  }
  std::vector<double> global(nc);
  Status global_status = ParallelFor(pool, nc, [&](int64_t a) {
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
    global[a] =
        GlobalDiameterFromCodes(*encoded, static_cast<int>(a), *tables[a]);
    return Status::OK();
  });
  if (RunContext::IsStop(global_status)) {
    return exhausted_early(global_status, 0);
  }
  FAMTREE_RETURN_NOT_OK(global_status);
  // Per-candidate diameters fill index-addressed slots in the serial walk's
  // (LHS, attr) order; the vacuity and max_results filters replay that
  // order below, so the output is bit-identical at any thread count.
  struct Candidate {
    AttrSet lhs;
    int attr = 0;
    double diameter = 0.0;
  };
  std::vector<Candidate> candidates;
  for (int size = 1; size <= options.max_lhs_size; ++size) {
    for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
      for (int a = 0; a < nc; ++a) {
        if (lhs.Contains(a)) continue;
        candidates.push_back(Candidate{lhs, a, 0.0});
      }
    }
  }
  // One PLI-pruned kernel build (equality bit + tracked distance max per
  // attribute); a candidate's diameter is then the max of its attribute's
  // per-word maxima over the words whose LHS bits all agree. Those words
  // cover exactly the within-group pairs, and a max of group maxes is the
  // group-pair max, so the diameters are bit-identical to per-candidate
  // GroupBy scans. The synthesized all-unequal word disagrees with every
  // (non-empty) LHS, so its zeroed aggregates are never read.
  std::vector<EvidenceColumn> config(nc);
  for (int a = 0; a < nc; ++a) {
    config[a].attr = a;
    config[a].cmp = EvidenceColumn::Cmp::kEquality;
    config[a].metric = metrics[a];
    config[a].track_max = true;
    config[a].table = tables[a].get();
  }
  EvidenceOptions eopts;
  eopts.pool = pool;
  eopts.pli = options.cache;
  eopts.prune_all_unequal = true;
  eopts.context = ctx;
  Result<std::shared_ptr<const EvidenceSet>> set_result = GetOrBuildEvidence(
      options.evidence, *encoded,
      EvidenceKeyFingerprint(options.evidence, relation, options.cache),
      config, eopts);
  if (!set_result.ok() && RunContext::IsStop(set_result.status())) {
    return exhausted_early(set_result.status(),
                           static_cast<int64_t>(candidates.size()));
  }
  FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EvidenceSet> set,
                           std::move(set_result));
  // Per-word attribute-agreement masks, shared by every candidate: the
  // word's pairs lie in one LHS group exactly when the mask covers the LHS.
  std::vector<AttrSet> agree(set->num_words());
  for (size_t wi = 0; wi < set->num_words(); ++wi) {
    for (int a = 0; a < nc; ++a) {
      if (set->AgreesOn(wi, a)) agree[wi].Add(a);
    }
  }
  FAMTREE_ASSIGN_OR_RETURN(
      int64_t candidates_done,
      AnytimeParallelFor(
          ctx, pool, static_cast<int64_t>(candidates.size()), [&](int64_t i) {
            Candidate& c = candidates[i];
            double diameter = 0.0;
            for (size_t wi = 0; wi < set->num_words(); ++wi) {
              if (!agree[wi].ContainsAll(c.lhs)) continue;
              diameter = std::max(diameter, set->agg(wi, c.attr).max_all);
            }
            c.diameter = diameter;
            return Status::OK();
          }));
  std::vector<DiscoveredMfd> out;
  // The vacuity / max_results filters replay the completed candidate prefix
  // only, so a cut run emits the same MFDs at any thread count.
  for (int64_t i = 0; i < candidates_done; ++i) {
    const Candidate& c = candidates[i];
    if (!std::isfinite(c.diameter)) continue;
    if (global[c.attr] > 0 &&
        c.diameter > options.max_delta_ratio * global[c.attr]) {
      continue;  // vacuous: the "metric FD" barely constrains
    }
    Mfd mfd(c.lhs, {MetricConstraint{c.attr, metrics[c.attr], c.diameter}});
    out.push_back(DiscoveredMfd{std::move(mfd), c.diameter});
    if (static_cast<int>(out.size()) >= options.max_results) {
      RunContext::MarkComplete(ctx, i + 1);
      return out;
    }
  }
  if (candidates_done < static_cast<int64_t>(candidates.size())) {
    RunContext::MarkExhausted(ctx, RunContext::StopStatus(ctx),
                              candidates_done,
                              static_cast<int64_t>(candidates.size()));
  } else {
    RunContext::MarkComplete(ctx, candidates_done);
  }
  return out;
}

Result<std::vector<DiscoveredFfd>> DiscoverFfds(
    const Relation& relation, std::vector<ResemblancePtr> resemblances,
    const FfdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  if (static_cast<int>(resemblances.size()) != nc) {
    return Status::Invalid("need one resemblance per attribute (or null)");
  }
  for (auto& r : resemblances) {
    if (r == nullptr) r = GetCrispResemblance();
  }
  std::vector<DiscoveredFfd> out;
  std::vector<std::vector<Ffd::FuzzyAttr>> lhs_sets;
  for (int a = 0; a < nc; ++a) {
    lhs_sets.push_back({Ffd::FuzzyAttr{a, resemblances[a]}});
  }
  if (options.max_lhs_attrs >= 2) {
    for (int a = 0; a < nc; ++a) {
      for (int b = a + 1; b < nc; ++b) {
        lhs_sets.push_back({Ffd::FuzzyAttr{a, resemblances[a]},
                            Ffd::FuzzyAttr{b, resemblances[b]}});
      }
    }
  }
  for (const auto& lhs : lhs_sets) {
    AttrSet lhs_attrs;
    for (const auto& fa : lhs) lhs_attrs.Add(fa.attr);
    for (int a = 0; a < nc; ++a) {
      if (lhs_attrs.Contains(a)) continue;
      Ffd ffd(lhs, {Ffd::FuzzyAttr{a, resemblances[a]}});
      FAMTREE_ASSIGN_OR_RETURN(ValidationReport report,
                               ffd.Validate(relation, 0));
      if (!report.holds) continue;
      out.push_back(DiscoveredFfd{std::move(ffd), report.measure});
      if (static_cast<int>(out.size()) >= options.max_results) return out;
    }
  }
  return out;
}

Result<InstantiatedPac> InstantiatePac(const Relation& training,
                                       const PacTemplate& rule_template,
                                       const PacDiscoveryOptions& options) {
  int nc = training.num_columns();
  if (rule_template.lhs_attrs.empty() || rule_template.rhs_attrs.empty()) {
    return Status::Invalid("PAC template needs LHS and RHS attributes");
  }
  for (int a : rule_template.lhs_attrs) {
    if (a < 0 || a >= nc) return Status::Invalid("template attr outside schema");
  }
  for (int a : rule_template.rhs_attrs) {
    if (a < 0 || a >= nc) return Status::Invalid("template attr outside schema");
  }
  auto metric_for = [&training](int a) {
    return DefaultMetricFor(training.schema().column(a).type);
  };
  auto quantile_of = [](std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return values[std::min(values.size() - 1,
                           static_cast<size_t>(q * values.size()))];
  };
  int n = training.num_rows();
  // 1. Delta: per-LHS-attribute distance quantile over all pairs.
  std::vector<Pac::Tolerance> lhs;
  for (int a : rule_template.lhs_attrs) {
    MetricPtr m = metric_for(a);
    std::vector<double> dists;
    for (int i = 0; i + 1 < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double d = m->Distance(training.Get(i, a), training.Get(j, a));
        if (std::isfinite(d)) dists.push_back(d);
      }
    }
    lhs.push_back(Pac::Tolerance{a, m,
                                 quantile_of(std::move(dists),
                                             options.lhs_quantile)});
  }
  // 2. eps: per-RHS-attribute distance quantile among LHS-close pairs.
  std::vector<Pac::Tolerance> rhs;
  for (int b : rule_template.rhs_attrs) {
    MetricPtr m = metric_for(b);
    std::vector<double> dists;
    for (int i = 0; i + 1 < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        bool close = true;
        for (const auto& t : lhs) {
          if (t.metric->Distance(training.Get(i, t.attr),
                                 training.Get(j, t.attr)) > t.tolerance) {
            close = false;
            break;
          }
        }
        if (!close) continue;
        double d = m->Distance(training.Get(i, b), training.Get(j, b));
        if (std::isfinite(d)) dists.push_back(d);
      }
    }
    rhs.push_back(Pac::Tolerance{b, m,
                                 quantile_of(std::move(dists),
                                             options.rhs_quantile)});
  }
  // 3. delta: the measured confidence on the training data.
  double confidence = Pac::MinRhsProbability(training, lhs, rhs);
  InstantiatedPac out{Pac(lhs, rhs, confidence), confidence};
  return out;
}

}  // namespace famtree
