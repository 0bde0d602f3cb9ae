#include "discovery/hybrid/validator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

namespace famtree {

void FrontierValidator::RestrictToSuspectRows(int first_suspect_row) {
  if (cache_ == nullptr) return;
  first_suspect_ = std::clamp(first_suspect_row, 0, encoded_.num_rows());
  num_suspects_ = encoded_.num_rows() - first_suspect_;
  leaves_.assign(encoded_.num_columns(), nullptr);
  suspect_class_.clear();
  fill_of_.clear();
  fills_.clear();
}

Status FrontierValidator::LoadLeaf(int x) {
  std::shared_ptr<const StrippedPartition> leaf =
      cache_->Get(AttrSet::Single(x), ctx_);
  if (leaf == nullptr) {
    Status stop = RunContext::StopStatus(ctx_);
    return RunContext::IsStop(stop)
               ? stop
               : Status::Invalid("single-attribute PLI unavailable");
  }
  const std::vector<uint32_t>& codes = encoded_.codes(x);
  std::vector<int> class_of_code(encoded_.dict_size(x), -1);
  for (int c = 0; c < leaf->num_classes(); ++c) {
    class_of_code[codes[leaf->class_begin(c)[0]]] = c;
  }
  int nc = encoded_.num_columns();
  for (int s = 0; s < num_suspects_; ++s) {
    suspect_class_[static_cast<size_t>(s) * nc + x] =
        class_of_code[codes[first_suspect_ + s]];
  }
  leaves_[x] = std::move(leaf);
  return Status::OK();
}

int FrontierValidator::SmallestClassAttr(AttrSet lhs, int s,
                                         int* class_size) const {
  const int* classes =
      suspect_class_.data() + static_cast<size_t>(s) * encoded_.num_columns();
  int best = -1;
  int best_size = std::numeric_limits<int>::max();
  for (int x : lhs) {
    if (classes[x] < 0) return -1;  // no row shares r's value of x
    int size = leaves_[x]->class_size(classes[x]);
    if (size < best_size) {
      best = x;
      best_size = size;
    }
  }
  *class_size = best_size;
  return best;
}

std::vector<FrontierValidator::AgreeRep> FrontierValidator::FillAgreeSets(
    int s, int x) const {
  int nc = encoded_.num_columns();
  int r = first_suspect_ + s;
  int cls = suspect_class_[static_cast<size_t>(s) * nc + x];
  const int* rows = leaves_[x]->class_begin(cls);
  int size = leaves_[x]->class_size(cls);
  std::vector<AgreeRep> reps;
  std::unordered_set<AttrSet, AttrSetHash> seen;
  for (int k = 0; k < size; ++k) {
    int p = rows[k];
    if (p == r) continue;
    AttrSet agree;
    for (int a = 0; a < nc; ++a) {
      const std::vector<uint32_t>& codes = encoded_.codes(a);
      if (codes[r] == codes[p]) agree.Add(a);
    }
    if (seen.insert(agree).second) reps.push_back(AgreeRep{agree, p});
  }
  return reps;
}

void FrontierValidator::ValidateSuspects(const FdTree::Entry& entry,
                                         const std::vector<int>& keys,
                                         EntryResult* result) const {
  int nc = encoded_.num_columns();
  AttrSet pending = entry.rhs_bits;
  for (size_t k = 0; k < keys.size() && !pending.empty(); ++k) {
    int s = keys[k] / nc;
    for (const AgreeRep& rep : fills_[fill_of_[keys[k]]]) {
      if (!rep.agree.ContainsAll(entry.lhs)) continue;
      AttrSet broken = pending.Minus(rep.agree);
      for (int a : broken) {
        result->violations.push_back(
            Violation{a, rep.partner, first_suspect_ + s});
      }
      pending = pending.Minus(broken);
      if (pending.empty()) break;
    }
  }
  result->valid_rhs = pending;
  std::sort(result->violations.begin(), result->violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.rhs < b.rhs;
            });
}

Status FrontierValidator::ValidateEntry(const FdTree::Entry& entry,
                                        EntryResult* result) const {
  int num_rows = encoded_.num_rows();
  if (entry.lhs.empty()) {
    // Level 0: {} -> a holds iff column a is constant (one class of all
    // rows; trivially valid on an empty relation). With suspects, the
    // column was constant on the rows before them.
    for (int a : entry.rhs_bits) {
      const std::vector<uint32_t>& codes = encoded_.codes(a);
      int bad = -1;
      for (int row = std::max(first_suspect_, 1); row < num_rows; ++row) {
        if (codes[row] != codes[0]) {
          bad = row;
          break;
        }
      }
      if (bad < 0) {
        result->valid_rhs.Add(a);
      } else {
        result->violations.push_back(Violation{a, 0, bad});
      }
    }
    return Status::OK();
  }
  std::shared_ptr<const StrippedPartition> pli;
  if (cache_ != nullptr) {
    pli = cache_->Get(entry.lhs, ctx_);
    if (pli == nullptr) {
      Status stop = RunContext::StopStatus(ctx_);
      return RunContext::IsStop(stop)
                 ? stop
                 : Status::Invalid("frontier PLI unavailable");
    }
  } else {
    pli = std::make_shared<StrippedPartition>(
        StrippedPartition::ForAttributeSet(encoded_, entry.lhs));
  }
  for (int a : entry.rhs_bits) {
    std::optional<std::pair<int, int>> bad =
        pli->FirstViolation(encoded_.codes(a));
    if (!bad) {
      result->valid_rhs.Add(a);
    } else {
      result->violations.push_back(Violation{a, bad->first, bad->second});
    }
  }
  return Status::OK();
}

Status FrontierValidator::ValidateLevel(const FdTree& tree, int level,
                                        std::vector<FdTree::Entry>* entries,
                                        std::vector<EntryResult>* results,
                                        LevelStats* stats) {
  entries->clear();
  results->clear();
  tree.CollectLevel(level, entries);
  size_t scratch_bytes =
      entries->size() * (sizeof(FdTree::Entry) + sizeof(EntryResult));
  // Per entry: the suspect-row (s * nc + x) keys it reads, or none for the
  // PLI check (level 0 always takes the latter, which starts at the first
  // suspect row).
  std::vector<std::vector<int>> suspect_keys(entries->size());
  std::vector<char> use_suspects(entries->size(), 0);
  std::vector<int> pending;  // keys to fill before the fan-out
  size_t fill_bound = 0;     // bytes the pending fills can reach
  if (first_suspect_ >= 0) {
    // Suspect-row check, prepared on the driver thread. First charge and
    // build the index arrays (first level only) and the code -> class maps
    // of the leaves this level pins.
    int nc = encoded_.num_columns();
    bool indexed = suspect_class_.size() ==
                   static_cast<size_t>(num_suspects_) * nc;
    AttrSet to_load;
    for (const FdTree::Entry& entry : *entries) {
      for (int x : entry.lhs) {
        if (leaves_[x] == nullptr) to_load.Add(x);
      }
    }
    size_t prepare_bytes =
        indexed ? 0 : 2 * static_cast<size_t>(num_suspects_) * nc * sizeof(int);
    for (int x : to_load) prepare_bytes += encoded_.dict_size(x) * sizeof(int);
    if (prepare_bytes > 0) {
      FAMTREE_RETURN_NOT_OK(
          RunContext::ChargeAlloc(ctx_, prepare_bytes, "hybrid_validate"));
    }
    if (!indexed) {
      suspect_class_.assign(static_cast<size_t>(num_suspects_) * nc, -1);
      fill_of_.assign(static_cast<size_t>(num_suspects_) * nc, -1);
    }
    for (int x : to_load) FAMTREE_RETURN_NOT_OK(LoadLeaf(x));
    // Pick each entry's check by the worst-case rule (the summed smallest
    // classes of the suspects against the row count) and queue the fills
    // the chosen entries read. A class of k rows yields at most k - 1
    // agree sets, which bounds the fill before it is allocated.
    for (size_t e = 0; e < entries->size(); ++e) {
      AttrSet lhs = (*entries)[e].lhs;
      if (lhs.empty()) continue;
      int64_t cost = 0;
      std::vector<int> keys;
      for (int s = 0; s < num_suspects_; ++s) {
        int size;
        int x = SmallestClassAttr(lhs, s, &size);
        if (x < 0) continue;
        cost += size;
        keys.push_back(s * nc + x);
      }
      if (cost > encoded_.num_rows()) continue;  // the PLI check is cheaper
      use_suspects[e] = 1;
      for (int key : keys) {
        if (fill_of_[key] != -1) continue;
        fill_of_[key] = -2;  // queued
        pending.push_back(key);
        int cls = suspect_class_[key];
        fill_bound += sizeof(std::vector<AgreeRep>) +
                      (leaves_[key % nc]->class_size(cls) - 1) *
                          sizeof(AgreeRep);
      }
      scratch_bytes += keys.size() * sizeof(int);
      suspect_keys[e] = std::move(keys);
    }
  }
  // One driver-thread charge per level, before any fan-out: the level's
  // result slots and the worst case of its new suspect-row agree sets.
  // Charging here keeps the injected-fault site count independent of the
  // thread count and stops a tight budget before the fill allocates.
  FAMTREE_RETURN_NOT_OK(RunContext::ChargeAlloc(
      ctx_, scratch_bytes + fill_bound, "hybrid_validate"));
  if (!pending.empty()) {
    int nc = encoded_.num_columns();
    size_t first_new = fills_.size();
    fills_.resize(first_new + pending.size());
    FAMTREE_RETURN_NOT_OK(ParallelFor(
        pool_, static_cast<int64_t>(pending.size()), [&](int64_t i) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx_));
          fills_[first_new + i] =
              FillAgreeSets(pending[i] / nc, pending[i] % nc);
          return Status::OK();
        }));
    size_t filled = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      fill_of_[pending[i]] = static_cast<int>(first_new + i);
      filled += sizeof(std::vector<AgreeRep>) +
                fills_[first_new + i].size() * sizeof(AgreeRep);
    }
    // Refund the part of the worst case the fill did not use.
    if (ctx_ != nullptr && ctx_->memory_budget() != nullptr) {
      ctx_->memory_budget()->Release(fill_bound - filled);
    }
  }
  results->resize(entries->size());
  FAMTREE_RETURN_NOT_OK(ParallelFor(
      pool_, static_cast<int64_t>(entries->size()), [&](int64_t e) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(ctx_));
        if (use_suspects[e]) {
          ValidateSuspects((*entries)[e], suspect_keys[e], &(*results)[e]);
          return Status::OK();
        }
        return ValidateEntry((*entries)[e], &(*results)[e]);
      }));
  if (stats != nullptr) {
    for (size_t e = 0; e < entries->size(); ++e) {
      stats->checks += (*entries)[e].rhs_bits.size();
      stats->violations +=
          static_cast<int64_t>((*results)[e].violations.size());
    }
  }
  return Status::OK();
}

}  // namespace famtree
