#include "discovery/hybrid/sampler.h"

#include <limits>
#include <utility>

namespace famtree {

Result<std::unique_ptr<HybridSampler>> HybridSampler::Make(
    const EncodedRelation& encoded, PliCache* cache, ThreadPool* pool,
    RunContext* ctx) {
  std::unique_ptr<HybridSampler> sampler(new HybridSampler(encoded, ctx));
  int nc = encoded.num_columns();
  FAMTREE_RETURN_NOT_OK(CheckAttrCapacity(nc, "the hybrid sampler"));
  std::vector<EvidenceColumn> columns(nc);
  for (int a = 0; a < nc; ++a) {
    columns[a].attr = a;
    columns[a].cmp = EvidenceColumn::Cmp::kEquality;
  }
  FAMTREE_ASSIGN_OR_RETURN(
      sampler->comparator_,
      PairComparator::Make(encoded, std::move(columns), pool));
  sampler->plis_.resize(nc);
  for (int a = 0; a < nc; ++a) {
    if (cache != nullptr) {
      sampler->plis_[a] = cache->Get(AttrSet::Single(a), ctx);
      if (sampler->plis_[a] == nullptr) {
        Status stop = RunContext::StopStatus(ctx);
        return RunContext::IsStop(stop)
                   ? stop
                   : Status::Invalid("single-attribute PLI unavailable");
      }
    } else {
      sampler->plis_[a] = std::make_shared<StrippedPartition>(
          StrippedPartition::ForAttribute(encoded, a));
    }
  }
  sampler->window_.assign(nc, 0);
  sampler->efficiency_.assign(nc, std::numeric_limits<double>::infinity());
  return sampler;
}

AttrSet HybridSampler::AgreeFromWord(const Word& word) const {
  AttrSet agree;
  for (const EvidenceSet::ColumnLayout& col : comparator_->layout()) {
    if (col.CmpOf(word.data()) == 0) agree.Add(col.attr);
  }
  return agree;
}

AttrSet HybridSampler::AgreeSetOf(int i, int j) const {
  Word word;
  comparator_->Word(i, j, word.data());
  return AgreeFromWord(word);
}

bool HybridSampler::MarkSeen(AttrSet agree) {
  return seen_.insert(agree).second;
}

Result<int64_t> HybridSampler::RunPass(int attr, int window,
                                       std::vector<AttrSet>* out) {
  const StrippedPartition& pli = *plis_[attr];
  const bool one_lane = comparator_->num_lanes() == 1;
  int64_t pairs = 0;
  for (int c = 0; c < pli.num_classes(); ++c) {
    const int* rows = pli.class_begin(c);
    int size = pli.class_size(c);
    for (int k = 0; k + window < size; ++k) {
      if ((pairs & 0xFFF) == 0) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx_));
      }
      ++pairs;
      Word word;
      comparator_->Word(rows[k], rows[k + window], word.data());
      // Word-level prefilter on one-lane words: a word seen before decodes
      // to an agree set seen before, so only fresh words pay the unpack +
      // set probe.
      if (one_lane && !seen_words_.insert(word[0]).second) continue;
      AttrSet agree = AgreeFromWord(word);
      if (MarkSeen(agree)) out->push_back(agree);
    }
  }
  return pairs;
}

Status HybridSampler::SampleRounds(double min_efficiency,
                                   std::vector<AttrSet>* out, Stats* stats) {
  int nc = encoded_.num_columns();
  while (true) {
    // Most efficient attribute next; ties break to the lowest index, so
    // round order is deterministic.
    int best = -1;
    for (int a = 0; a < nc; ++a) {
      if (best < 0 || efficiency_[a] > efficiency_[best]) best = a;
    }
    // A retired attribute (efficiency 0) never runs again even under a
    // zero floor; fresh attributes start at +inf and always get one pass.
    if (best < 0 || efficiency_[best] <= 0.0 ||
        efficiency_[best] < min_efficiency) {
      break;
    }
    FAMTREE_RETURN_NOT_OK(RunContext::Checkpoint(ctx_));
    size_t before = out->size();
    ++window_[best];
    FAMTREE_ASSIGN_OR_RETURN(int64_t pairs,
                             RunPass(best, window_[best], out));
    int64_t fresh = static_cast<int64_t>(out->size() - before);
    // The sampled agree sets are the pass's lasting allocation; charge them
    // before the pass is considered complete.
    Status charged = RunContext::ChargeAlloc(
        ctx_, static_cast<size_t>(fresh) * sizeof(AttrSet), "hybrid_sample");
    if (!charged.ok()) {
      out->resize(before);
      return charged;
    }
    efficiency_[best] =
        pairs == 0 ? 0.0 : static_cast<double>(fresh) / pairs;
    if (stats != nullptr) {
      ++stats->passes;
      stats->sampled_pairs += pairs;
      stats->new_agree_sets += fresh;
    }
  }
  return Status::OK();
}

}  // namespace famtree
