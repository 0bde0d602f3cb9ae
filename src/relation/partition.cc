#include "relation/partition.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"

namespace famtree {

namespace {

/// Reusable per-thread scratch for the refinement, constancy and encoded
/// FdError kernels. All arrays grow monotonically and are restored to their
/// neutral state before a call returns (owner validity via epoch stamps,
/// counters via the touched list), so no call ever pays a full-size zeroing
/// pass and results are independent of which pool thread runs the call.
struct PartitionScratch {
  /// Class ids stamped by StampKey: owner[row] is valid iff
  /// owner_epoch[row] == epoch.
  std::vector<int> owner;
  std::vector<uint32_t> owner_epoch;
  uint32_t epoch = 0;

  /// Probe table over the refining keys (Refine, Product) or over RHS
  /// codes (FdError). Zero outside calls; reset via `touched`.
  std::vector<int> count;
  std::vector<int> cursor;
  std::vector<int> touched;

  void StampOwners(int num_rows) {
    if (static_cast<int>(owner.size()) < num_rows) {
      owner.resize(num_rows);
      owner_epoch.resize(num_rows, 0);
    }
    if (++epoch == 0) {  // epoch wrapped: invalidate all stamps at once
      std::fill(owner_epoch.begin(), owner_epoch.end(), 0u);
      epoch = 1;
    }
  }

  void EnsureCounters(int n) {
    if (static_cast<int>(count.size()) < n) {
      count.resize(n, 0);
      cursor.resize(n);
    }
  }
};

thread_local PartitionScratch g_scratch;

}  // namespace

StrippedPartition::StrippedPartition(
    const std::vector<std::vector<int>>& classes) {
  class_offsets_.reserve(classes.size() + 1);
  class_offsets_.push_back(0);
  size_t total = 0;
  for (const auto& c : classes) total += c.size();
  row_indices_.reserve(total);
  for (const auto& c : classes) {
    row_indices_.insert(row_indices_.end(), c.begin(), c.end());
    class_offsets_.push_back(static_cast<int>(row_indices_.size()));
  }
}

StrippedPartition StrippedPartition::FromRowKeys(
    const std::vector<uint32_t>& keys, int num_keys) {
  std::vector<int> count(num_keys, 0);
  for (uint32_t k : keys) ++count[k];
  // Keys are dense ids in first-occurrence order, so emitting surviving
  // keys in id order reproduces the Value-based grouping's class order.
  std::vector<int> class_of_key(num_keys, -1);
  std::vector<int> offsets;
  offsets.push_back(0);
  int total = 0;
  for (int k = 0; k < num_keys; ++k) {
    if (count[k] >= 2) {
      class_of_key[k] = static_cast<int>(offsets.size()) - 1;
      total += count[k];
      offsets.push_back(total);
    }
  }
  std::vector<int> rows(total);
  std::vector<int> cursor(offsets.begin(), offsets.end() - 1);
  for (int row = 0; row < static_cast<int>(keys.size()); ++row) {
    int c = class_of_key[keys[row]];
    if (c >= 0) rows[cursor[c]++] = row;
  }
  return StrippedPartition(std::move(rows), std::move(offsets));
}

StrippedPartition StrippedPartition::ForAttribute(const Relation& relation,
                                                  int attr) {
  return ForAttributeSet(relation, AttrSet::Single(attr));
}

StrippedPartition StrippedPartition::ForAttributeSet(const Relation& relation,
                                                     AttrSet attrs) {
  std::vector<std::vector<int>> groups = relation.GroupBy(attrs);
  std::vector<std::vector<int>> stripped;
  for (auto& g : groups) {
    if (g.size() >= 2) stripped.push_back(std::move(g));
  }
  return StrippedPartition(stripped);
}

StrippedPartition StrippedPartition::ForAttribute(
    const EncodedRelation& encoded, int attr) {
  return FromRowKeys(encoded.codes(attr), encoded.dict_size(attr));
}

StrippedPartition StrippedPartition::ForAttributeSet(
    const EncodedRelation& encoded, AttrSet attrs) {
  std::vector<int> av = attrs.ToVector();
  if (av.size() == 1) return ForAttribute(encoded, av[0]);
  std::vector<uint32_t> keys;
  int num_keys = encoded.RowKeys(attrs, &keys);
  return FromRowKeys(keys, num_keys);
}

namespace {

/// The kernels below take a per-row key: key(row) is the row's class
/// under the refining attribute, or -1 when no other row shares it.
auto CodeKey(const std::vector<uint32_t>& codes) {
  return [codes = codes.data()](int row) {
    return static_cast<int>(codes[row]);
  };
}

/// Stamps `p`'s class ids into the scratch and keys rows by them.
auto StampKey(const StrippedPartition& p, int num_rows) {
  PartitionScratch& s = g_scratch;
  s.StampOwners(num_rows);
  for (int c = 0; c < p.num_classes(); ++c) {
    const int* begin = p.class_begin(c);
    for (const int* it = begin; it != begin + p.class_size(c); ++it) {
      s.owner[*it] = c;
      s.owner_epoch[*it] = s.epoch;
    }
  }
  return [owner = s.owner.data(), stamp = s.owner_epoch.data(),
          epoch = s.epoch](int row) {
    return stamp[row] == epoch ? owner[row] : -1;
  };
}

/// TANE's linear-time refinement: each class of `p` is split by key through
/// the scratch probe table, sub-classes emitted in first-touch order.
template <typename Key>
StrippedPartition RefineBy(const StrippedPartition& p, Key key,
                           int num_keys) {
  PartitionScratch& s = g_scratch;
  s.EnsureCounters(num_keys);
  std::vector<int> out_rows(p.num_rows_in_classes());
  int used = 0;
  std::vector<int> out_offsets;
  out_offsets.push_back(0);
  for (int c = 0; c < p.num_classes(); ++c) {
    const int size = p.class_size(c);
    const int* begin = p.class_begin(c);
    const int* end = begin + size;
    s.touched.clear();
    for (const int* it = begin; it != end; ++it) {
      int k = key(*it);
      if (k >= 0 && s.count[k]++ == 0) s.touched.push_back(k);
    }
    // Reserve one output slot range per surviving key, in first-touch
    // order, then place the rows through per-key cursors.
    for (int k : s.touched) {
      if (s.count[k] >= 2) {
        s.cursor[k] = used;
        used += s.count[k];
        out_offsets.push_back(used);
      } else {
        s.cursor[k] = -1;
      }
      s.count[k] = 0;
    }
    for (const int* it = begin; it != end; ++it) {
      int k = key(*it);
      if (k >= 0 && s.cursor[k] >= 0) out_rows[s.cursor[k]++] = *it;
    }
  }
  out_rows.resize(used);
  return StrippedPartition::FromCsr(std::move(out_rows),
                                    std::move(out_offsets));
}

template <typename Key>
std::optional<std::pair<int, int>> FirstViolationBy(
    const StrippedPartition& p, Key key) {
  for (int c = 0; c < p.num_classes(); ++c) {
    const int* rows = p.class_begin(c);
    int head = key(rows[0]);
    for (int k = 1; k < p.class_size(c); ++k) {
      if (head < 0 || key(rows[k]) != head) {
        return std::make_pair(rows[0], rows[k]);
      }
    }
  }
  return std::nullopt;
}

}  // namespace

StrippedPartition StrippedPartition::Refine(
    const std::vector<uint32_t>& codes, int num_codes) const {
  return RefineBy(*this, CodeKey(codes), num_codes);
}

StrippedPartition StrippedPartition::Product(const StrippedPartition& other,
                                             int num_rows) const {
  return RefineBy(*this, StampKey(other, num_rows), other.num_classes());
}

std::optional<std::pair<int, int>> StrippedPartition::FirstViolation(
    const std::vector<uint32_t>& codes) const {
  return FirstViolationBy(*this, CodeKey(codes));
}

std::optional<std::pair<int, int>> StrippedPartition::FirstViolation(
    const StrippedPartition& other, int num_rows) const {
  return FirstViolationBy(*this, StampKey(other, num_rows));
}

int StrippedPartition::MaxClassSize() const {
  int largest = 0;
  for (int c = 0; c < num_classes(); ++c) {
    largest = std::max(largest, class_size(c));
  }
  return largest;
}

std::vector<std::vector<int>> StrippedPartition::classes() const {
  std::vector<std::vector<int>> out(num_classes());
  for (int c = 0; c < num_classes(); ++c) {
    out[c].assign(class_begin(c), class_begin(c) + class_size(c));
  }
  return out;
}

double StrippedPartition::FdError(const Relation& relation,
                                  AttrSet rhs) const {
  // g3(X -> Y): within each X-class, keep the plurality Y-value; all other
  // rows must be removed. Singleton X-classes never violate.
  int to_remove = 0;
  std::unordered_map<size_t, std::vector<std::pair<int, int>>> buckets;
  for (int c = 0; c < num_classes(); ++c) {
    const int* begin = class_begin(c);
    const int* end = begin + class_size(c);
    buckets.clear();  // hash -> list of (head row, count), collision-safe
    int best = 0;
    for (const int* it = begin; it != end; ++it) {
      int row = *it;
      size_t h = 0x9e3779b9;
      for (int a : rhs.ToVector()) {
        h = HashCombine(h, relation.Get(row, a).Hash());
      }
      auto& bucket = buckets[h];
      bool placed = false;
      for (auto& [head, count] : bucket) {
        if (relation.AgreeOn(head, row, rhs)) {
          best = std::max(best, ++count);
          placed = true;
          break;
        }
      }
      if (!placed) {
        bucket.push_back({row, 1});
        best = std::max(best, 1);
      }
    }
    to_remove += class_size(c) - best;
  }
  int n = relation.num_rows();
  return n == 0 ? 0.0 : static_cast<double>(to_remove) / n;
}

double StrippedPartition::FdError(const std::vector<uint32_t>& codes,
                                  int num_codes) const {
  // Same g3 computation over dictionary codes: the plurality count per
  // X-class comes out of a scratch counter array indexed by RHS code — no
  // hashing, no Value comparisons, no per-class map allocation. Equal
  // codes are exactly equal Values, so the removal count (and the returned
  // error) is bit-identical to the Value-based overload.
  PartitionScratch& s = g_scratch;
  s.EnsureCounters(num_codes);
  int to_remove = 0;
  for (int c = 0; c < num_classes(); ++c) {
    const int* begin = class_begin(c);
    const int* end = begin + class_size(c);
    s.touched.clear();
    int best = 0;
    for (const int* it = begin; it != end; ++it) {
      uint32_t code = codes[*it];
      if (s.count[code]++ == 0) s.touched.push_back(static_cast<int>(code));
      best = std::max(best, s.count[code]);
    }
    for (int code : s.touched) s.count[code] = 0;
    to_remove += class_size(c) - best;
  }
  return codes.empty() ? 0.0
                      : static_cast<double>(to_remove) / codes.size();
}

}  // namespace famtree
