#include "relation/encoded_relation.h"

#include <algorithm>
#include <unordered_map>

namespace famtree {

EncodedRelation::EncodedRelation(const Relation& relation)
    : EncodedRelation(relation, AttrSet::Full(relation.num_columns())) {}

EncodedRelation::EncodedRelation(int num_rows,
                                 std::vector<std::vector<uint32_t>> columns,
                                 std::vector<std::vector<Value>> dicts)
    : num_rows_(num_rows),
      columns_(std::move(columns)),
      dicts_(std::move(dicts)) {}

EncodedRelation::EncodedRelation(const Relation& relation, AttrSet attrs)
    : num_rows_(relation.num_rows()) {
  int nc = relation.num_columns();
  columns_.resize(nc);
  dicts_.resize(nc);
  // Dictionary build per column: bucket by Value::Hash, resolve collisions
  // by full Value comparison so distinct-but-colliding values never share a
  // code, while cross-representation equal numerics (1 vs 1.0) always do.
  std::unordered_map<size_t, std::vector<uint32_t>> buckets;
  for (int c = 0; c < nc; ++c) {
    if (!attrs.Contains(c)) continue;
    const std::vector<Value>& cells = relation.column(c);
    std::vector<uint32_t>& codes = columns_[c];
    std::vector<Value>& dict = dicts_[c];
    codes.resize(cells.size());
    buckets.clear();
    buckets.reserve(cells.size() * 2);
    for (size_t row = 0; row < cells.size(); ++row) {
      const Value& v = cells[row];
      std::vector<uint32_t>& candidates = buckets[v.Hash()];
      uint32_t code = 0;
      bool found = false;
      for (uint32_t cand : candidates) {
        if (dict[cand] == v) {
          code = cand;
          found = true;
          break;
        }
      }
      if (!found) {
        code = static_cast<uint32_t>(dict.size());
        dict.push_back(v);
        candidates.push_back(code);
      }
      codes[row] = code;
    }
  }
}

Result<EncodedRelation> EncodedRelation::Appended(const EncodedRelation& base,
                                                  const Relation& relation) {
  int nc = relation.num_columns();
  int old_rows = base.num_rows();
  int new_rows = relation.num_rows();
  if (base.num_columns() != nc) {
    return Status::Invalid("appended encoding: column count changed");
  }
  if (new_rows < old_rows) {
    return Status::Invalid("appended encoding: relation shrank");
  }
  if (!base.mutated_.empty()) {
    return Status::Invalid("appended encoding: base was mutated via SetCode");
  }
  EncodedRelation out(new_rows, base.columns_, base.dicts_);
  std::unordered_map<size_t, std::vector<uint32_t>> buckets;
  for (int c = 0; c < nc; ++c) {
    std::vector<uint32_t>& codes = out.columns_[c];
    std::vector<Value>& dict = out.dicts_[c];
    if (static_cast<int>(codes.size()) != old_rows) {
      return Status::Invalid(
          "appended encoding: base is a subset encoding");
    }
    // Rebuild the hash buckets from the dictionary: every existing code is
    // reachable under its representative's hash, exactly as the cold
    // encoder left them.
    buckets.clear();
    buckets.reserve(dict.size() * 2);
    for (uint32_t code = 0; code < dict.size(); ++code) {
      buckets[dict[code].Hash()].push_back(code);
    }
    codes.resize(new_rows);
    const std::vector<Value>& cells = relation.column(c);
    for (int row = old_rows; row < new_rows; ++row) {
      const Value& v = cells[row];
      std::vector<uint32_t>& candidates = buckets[v.Hash()];
      uint32_t code = 0;
      bool found = false;
      for (uint32_t cand : candidates) {
        if (dict[cand] == v) {
          code = cand;
          found = true;
          break;
        }
      }
      if (!found) {
        code = static_cast<uint32_t>(dict.size());
        dict.push_back(v);
        candidates.push_back(code);
      }
      codes[row] = code;
    }
  }
  return out;
}

int EncodedRelation::RowKeys(AttrSet attrs, std::vector<uint32_t>* keys) const {
  std::vector<int> av = attrs.ToVector();
  if (av.empty()) {
    // Empty projection: every row agrees, mirroring Relation::GroupBy.
    keys->assign(num_rows_, 0);
    return num_rows_ > 0 ? 1 : 0;
  }
  // Start from the first column's codes (already dense ids in
  // first-occurrence order), then fold in one column at a time: each pass
  // re-densifies (prev_key, code) pairs, assigning new ids in row-scan
  // order, which preserves first-occurrence order end to end.
  std::unordered_map<uint64_t, uint32_t> remap;
  int num_keys;
  if (!IsMutated(av[0])) {
    keys->assign(columns_[av[0]].begin(), columns_[av[0]].end());
    num_keys = dict_size(av[0]);
  } else {
    // SetCode broke the dense first-occurrence order, so the first column
    // gets the same densifying fold as every later one.
    const std::vector<uint32_t>& codes = columns_[av[0]];
    keys->resize(num_rows_);
    remap.reserve(dicts_[av[0]].size() * 2);
    uint32_t next = 0;
    for (int row = 0; row < num_rows_; ++row) {
      auto [it, inserted] = remap.try_emplace(codes[row], next);
      if (inserted) ++next;
      (*keys)[row] = it->second;
    }
    num_keys = static_cast<int>(next);
  }
  for (size_t k = 1; k < av.size(); ++k) {
    const std::vector<uint32_t>& codes = columns_[av[k]];
    uint64_t stride = static_cast<uint64_t>(dict_size(av[k]));
    remap.clear();
    remap.reserve(static_cast<size_t>(num_keys) * 2);
    uint32_t next = 0;
    for (int row = 0; row < num_rows_; ++row) {
      uint64_t combined = static_cast<uint64_t>((*keys)[row]) * stride +
                          codes[row];
      auto [it, inserted] = remap.try_emplace(combined, next);
      if (inserted) ++next;
      (*keys)[row] = it->second;
    }
    num_keys = static_cast<int>(next);
  }
  return num_keys;
}

std::vector<std::vector<int>> EncodedRelation::GroupBy(AttrSet attrs) const {
  std::vector<uint32_t> keys;
  int num_keys = RowKeys(attrs, &keys);
  std::vector<std::vector<int>> groups(num_keys);
  // Counting pass so each group vector is allocated exactly once.
  std::vector<int> counts(num_keys, 0);
  for (uint32_t k : keys) ++counts[k];
  for (int k = 0; k < num_keys; ++k) groups[k].reserve(counts[k]);
  for (int row = 0; row < num_rows_; ++row) {
    groups[keys[row]].push_back(row);
  }
  return groups;
}

int EncodedRelation::CountDistinct(AttrSet attrs) const {
  if (attrs.size() == 1 && !IsMutated(attrs.ToVector()[0])) {
    return dict_size(attrs.ToVector()[0]);
  }
  std::vector<uint32_t> keys;
  return RowKeys(attrs, &keys);
}

std::vector<uint32_t> CodeRanks(const EncodedRelation& enc, int col) {
  int k = enc.dict_size(col);
  std::vector<uint32_t> by_value(k);
  for (int i = 0; i < k; ++i) by_value[i] = static_cast<uint32_t>(i);
  std::sort(by_value.begin(), by_value.end(), [&](uint32_t x, uint32_t y) {
    const Value& a = enc.Decode(col, x);
    const Value& b = enc.Decode(col, y);
    if (SortsBefore(a, b)) return true;
    if (SortsBefore(b, a)) return false;
    return x < y;
  });
  std::vector<uint32_t> rank(k);
  for (int i = 0; i < k; ++i) rank[by_value[i]] = static_cast<uint32_t>(i);
  return rank;
}

}  // namespace famtree
