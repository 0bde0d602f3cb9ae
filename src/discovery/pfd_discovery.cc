#include "discovery/pfd_discovery.h"

#include <memory>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "deps/pfd.h"
#include "discovery/discovery_util.h"

namespace famtree {

namespace {

/// One lattice candidate X -> A with its probability slot (written by
/// exactly one ParallelFor iteration).
struct PfdCandidate {
  AttrSet lhs;
  int rhs = 0;
  double probability = 0.0;
};

/// Enumerates one level's candidates in the serial walk's order.
std::vector<PfdCandidate> LevelCandidates(int nc, int size) {
  std::vector<PfdCandidate> candidates;
  for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
    for (int a = 0; a < nc; ++a) {
      if (lhs.Contains(a)) continue;
      candidates.push_back(PfdCandidate{lhs, a, 0.0});
    }
  }
  return candidates;
}

bool IsMinimal(const std::vector<DiscoveredPfd>& out, AttrSet lhs, int rhs) {
  for (const DiscoveredPfd& p : out) {
    if (p.rhs == rhs && lhs.ContainsAll(p.lhs)) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<DiscoveredPfd>> DiscoverPfds(
    const Relation& relation, const PfdDiscoveryOptions& options) {
  int nc = relation.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "PFD discovery"));
  if (options.min_probability < 0 || options.min_probability > 1) {
    return Status::Invalid("min_probability must be in [0, 1]");
  }
  ThreadPool* pool = options.pool;
  std::unique_ptr<EncodedRelation> local_encoding;
  FAMTREE_ASSIGN_OR_RETURN(
      const EncodedRelation* encoded,
      ResolveEncoding(relation, options.cache, &local_encoding));
  auto probability = [&](AttrSet lhs, int a) {
    return Pfd::Probability(*encoded, lhs, AttrSet::Single(a));
  };
  std::vector<DiscoveredPfd> out;
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "pfds");
  const int64_t total_levels = options.max_lhs_size;
  int64_t levels_done = 0;
  for (int size = 1; size <= options.max_lhs_size; ++size) {
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, levels_done, total_levels);
      return out;
    }
    // An interrupted level is discarded whole (truncated back to
    // level_start) so a cut run always returns the PFDs of its completed
    // levels — the same prefix at any thread count.
    size_t level_start = out.size();
    if (pool == nullptr) {
      // Serial walk: the minimality filter prunes a candidate before its
      // probability is ever computed.
      for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
        for (int a = 0; a < nc; ++a) {
          if (lhs.Contains(a)) continue;
          Status st = RunContext::Poll(ctx);
          if (RunContext::IsStop(st)) {
            out.resize(level_start);
            RunContext::MarkExhausted(ctx, st, levels_done, total_levels);
            return out;
          }
          if (!IsMinimal(out, lhs, a)) continue;
          double prob = probability(lhs, a);
          if (prob >= options.min_probability) {
            out.push_back(DiscoveredPfd{lhs, a, prob});
            if (static_cast<int>(out.size()) >= options.max_results) {
              RunContext::MarkComplete(ctx, levels_done);
              return out;
            }
          }
        }
      }
    } else {
      // Parallel walk: compute every candidate probability of the level up
      // front (some are wasted on non-minimal candidates), then replay the
      // serial walk's filters in candidate order — bit-identical output at
      // any thread count.
      std::vector<PfdCandidate> candidates = LevelCandidates(nc, size);
      Status level_status = ParallelFor(
          pool, static_cast<int64_t>(candidates.size()), [&](int64_t i) {
            FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
            candidates[i].probability =
                probability(candidates[i].lhs, candidates[i].rhs);
            return Status::OK();
          });
      if (RunContext::IsStop(level_status)) {
        RunContext::MarkExhausted(ctx, level_status, levels_done,
                                  total_levels);
        return out;
      }
      FAMTREE_RETURN_NOT_OK(level_status);
      for (const PfdCandidate& c : candidates) {
        if (!IsMinimal(out, c.lhs, c.rhs)) continue;
        if (c.probability >= options.min_probability) {
          out.push_back(DiscoveredPfd{c.lhs, c.rhs, c.probability});
          if (static_cast<int>(out.size()) >= options.max_results) {
            RunContext::MarkComplete(ctx, levels_done);
            return out;
          }
        }
      }
    }
    ++levels_done;
  }
  RunContext::MarkComplete(ctx, levels_done);
  return out;
}

Result<std::vector<DiscoveredPfd>> DiscoverPfdsMultiSource(
    const std::vector<Relation>& sources,
    const PfdDiscoveryOptions& options) {
  if (sources.empty()) return Status::Invalid("no sources given");
  int nc = sources[0].num_columns();
  for (const Relation& s : sources) {
    if (s.num_columns() != nc) {
      return Status::Invalid("sources must share a schema");
    }
  }
  ThreadPool* pool = options.pool;
  RunContext* ctx = options.context;
  RunContext::BeginRun(ctx, "pfds_multi_source");
  const int64_t total_levels = options.max_lhs_size;
  // The PliCache is keyed to a single relation, so the multi-source merge
  // only uses per-source local encodings.
  std::vector<std::unique_ptr<EncodedRelation>> encodings(sources.size());
  Status encode_status = ParallelFor(
      pool, static_cast<int64_t>(sources.size()), [&](int64_t i) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
        encodings[i] = std::make_unique<EncodedRelation>(sources[i]);
        return Status::OK();
      });
  if (RunContext::IsStop(encode_status)) {
    RunContext::MarkExhausted(ctx, encode_status, 0, total_levels);
    return std::vector<DiscoveredPfd>{};
  }
  FAMTREE_RETURN_NOT_OK(encode_status);
  long long total_rows = 0;
  for (const Relation& s : sources) total_rows += s.num_rows();
  std::vector<DiscoveredPfd> out;
  if (total_rows == 0) return out;
  // Tuple-count weighted average across sources, accumulated in source
  // order.
  auto merged_probability = [&](AttrSet lhs, int a) {
    double merged = 0.0;
    for (size_t s = 0; s < sources.size(); ++s) {
      if (sources[s].num_rows() == 0) continue;
      double prob = Pfd::Probability(*encodings[s], lhs, AttrSet::Single(a));
      merged += prob * sources[s].num_rows() / total_rows;
    }
    return merged;
  };
  int64_t levels_done = 0;
  for (int size = 1; size <= options.max_lhs_size; ++size) {
    Status gate = RunContext::Checkpoint(ctx);
    if (RunContext::IsStop(gate)) {
      RunContext::MarkExhausted(ctx, gate, levels_done, total_levels);
      return out;
    }
    size_t level_start = out.size();
    if (pool == nullptr) {
      for (AttrSet lhs : AllSubsetsOfSize(nc, size)) {
        for (int a = 0; a < nc; ++a) {
          if (lhs.Contains(a)) continue;
          Status st = RunContext::Poll(ctx);
          if (RunContext::IsStop(st)) {
            out.resize(level_start);
            RunContext::MarkExhausted(ctx, st, levels_done, total_levels);
            return out;
          }
          if (!IsMinimal(out, lhs, a)) continue;
          double merged = merged_probability(lhs, a);
          if (merged >= options.min_probability) {
            out.push_back(DiscoveredPfd{lhs, a, merged});
            if (static_cast<int>(out.size()) >= options.max_results) {
              RunContext::MarkComplete(ctx, levels_done);
              return out;
            }
          }
        }
      }
    } else {
      std::vector<PfdCandidate> candidates = LevelCandidates(nc, size);
      Status level_status = ParallelFor(
          pool, static_cast<int64_t>(candidates.size()), [&](int64_t i) {
            FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx));
            candidates[i].probability =
                merged_probability(candidates[i].lhs, candidates[i].rhs);
            return Status::OK();
          });
      if (RunContext::IsStop(level_status)) {
        RunContext::MarkExhausted(ctx, level_status, levels_done,
                                  total_levels);
        return out;
      }
      FAMTREE_RETURN_NOT_OK(level_status);
      for (const PfdCandidate& c : candidates) {
        if (!IsMinimal(out, c.lhs, c.rhs)) continue;
        if (c.probability >= options.min_probability) {
          out.push_back(DiscoveredPfd{c.lhs, c.rhs, c.probability});
          if (static_cast<int>(out.size()) >= options.max_results) {
            RunContext::MarkComplete(ctx, levels_done);
            return out;
          }
        }
      }
    }
    ++levels_done;
  }
  RunContext::MarkComplete(ctx, levels_done);
  return out;
}

}  // namespace famtree
