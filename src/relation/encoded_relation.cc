#include "relation/encoded_relation.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

namespace famtree {

namespace {

bool IsNan(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.as_double());
}

}  // namespace

ValueDictionary::ValueDictionary(std::vector<Value> values)
    : values_(std::move(values)) {
  int_keys_ = std::all_of(values_.begin(), values_.end(), [](const Value& v) {
    return v.type() == ValueType::kInt || IsNan(v);
  });
  Rebuild();
}

void ValueDictionary::Rebuild() {
  size_t capacity = 16;
  while (capacity < 4 * (values_.size() + 1)) capacity <<= 1;
  slots_.assign(capacity, Slot{0, kEmpty});
  shift_ = 64 - std::countr_zero(capacity);
  entries_ = 0;
  for (uint32_t code = 0; code < values_.size(); ++code) {
    if (IsNan(values_[code])) continue;
    uint64_t key = KeyOf(values_[code]);
    size_t i = Home(key);
    while (slots_[i].code != kEmpty) i = (i + 1) & (capacity - 1);
    slots_[i] = Slot{key, code};
    ++entries_;
  }
}

uint32_t ValueDictionary::Encode(const Value& v) {
  const uint32_t next = static_cast<uint32_t>(values_.size());
  if (IsNan(v)) {  // equal to nothing: a fresh code, kept out of the table
    values_.push_back(v);
    return next;
  }
  if (int_keys_ && v.type() != ValueType::kInt) {
    int_keys_ = false;
    Rebuild();
  } else if (2 * (entries_ + 1) > slots_.size()) {
    Rebuild();
  }
  const uint64_t key = KeyOf(v);
  size_t i = Home(key);
  for (; slots_[i].code != kEmpty; i = (i + 1) & (slots_.size() - 1)) {
    if (slots_[i].key == key && (int_keys_ || values_[slots_[i].code] == v)) {
      return slots_[i].code;
    }
  }
  slots_[i] = Slot{key, next};
  ++entries_;
  values_.push_back(v);
  return next;
}

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
  for (int c = 0; c < nc; ++c) {
    if (!attrs.Contains(c)) continue;
    const std::vector<Value>& cells = relation.column(c);
    columns_[c].resize(cells.size());
    ValueDictionary dict;
    for (size_t row = 0; row < cells.size(); ++row) {
      columns_[c][row] = dict.Encode(cells[row]);
    }
    dicts_[c] = dict.TakeValues();
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
  for (int c = 0; c < nc; ++c) {
    std::vector<uint32_t>& codes = out.columns_[c];
    if (static_cast<int>(codes.size()) != old_rows) {
      return Status::Invalid(
          "appended encoding: base is a subset encoding");
    }
    // Resuming from the dictionary reaches every existing code exactly as
    // the cold encoder left it.
    ValueDictionary dict(std::move(out.dicts_[c]));
    codes.resize(new_rows);
    const std::vector<Value>& cells = relation.column(c);
    for (int row = old_rows; row < new_rows; ++row) {
      codes[row] = dict.Encode(cells[row]);
    }
    out.dicts_[c] = dict.TakeValues();
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
