#include "relation/relation.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"

namespace famtree {

namespace {

/// Hash of a row's projection onto `attrs`.
size_t ProjectionHash(const Relation& r, int row, const std::vector<int>& attrs) {
  size_t h = 0x12345;
  for (int a : attrs) h = HashCombine(h, r.Get(row, a).Hash());
  return h;
}

}  // namespace

Relation::Relation(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::exchange(other.schema_, Schema())),
      columns_(std::exchange(other.columns_, {})),
      num_rows_(std::exchange(other.num_rows_, 0)),
      chain_(std::exchange(other.chain_, kRelationChainSeed)),
      chain_rows_(std::exchange(other.chain_rows_, 0)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    schema_ = std::exchange(other.schema_, Schema());
    columns_ = std::exchange(other.columns_, {});
    num_rows_ = std::exchange(other.num_rows_, 0);
    chain_ = std::exchange(other.chain_, kRelationChainSeed);
    chain_rows_ = std::exchange(other.chain_rows_, 0);
  }
  return *this;
}

void Relation::Set(int row, int col, Value v) {
  columns_[col][row] = std::move(v);
  if (row < chain_rows_) {
    chain_ = kRelationChainSeed;
    chain_rows_ = 0;
  }
}

void Relation::AdvanceFingerprintChain() {
  chain_ = RelationRowChain(*this, chain_rows_, num_rows_, chain_);
  chain_rows_ = num_rows_;
}

Status Relation::AppendRow(std::vector<Value> row) {
  if (static_cast<int>(row.size()) != num_columns()) {
    return Status::Invalid("row has " + std::to_string(row.size()) +
                           " values, schema has " +
                           std::to_string(num_columns()));
  }
  for (int c = 0; c < num_columns(); ++c) {
    columns_[c].push_back(std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Relation::AppendRows(std::vector<std::vector<Value>> rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int>(rows[i].size()) != num_columns()) {
      return Status::Invalid("append row " + std::to_string(i) + " has " +
                             std::to_string(rows[i].size()) +
                             " values, schema has " +
                             std::to_string(num_columns()));
    }
  }
  const bool chain_current = chain_rows_ == num_rows_;
  for (auto& row : rows) {
    for (int c = 0; c < num_columns(); ++c) {
      columns_[c].push_back(std::move(row[c]));
    }
    ++num_rows_;
  }
  if (chain_current) AdvanceFingerprintChain();
  return Status::OK();
}

std::vector<Value> Relation::Row(int row) const {
  std::vector<Value> out;
  out.reserve(num_columns());
  for (int c = 0; c < num_columns(); ++c) out.push_back(Get(row, c));
  return out;
}

std::vector<Value> Relation::Project(int row, AttrSet attrs) const {
  std::vector<Value> out;
  for (int a : attrs.ToVector()) out.push_back(Get(row, a));
  return out;
}

bool Relation::AgreeOn(int i, int j, AttrSet attrs) const {
  for (int a : attrs.ToVector()) {
    if (!(Get(i, a) == Get(j, a))) return false;
  }
  return true;
}

int Relation::CountDistinct(AttrSet attrs) const {
  // Count groups without materializing them: buckets hold only one head
  // row per distinct projection (collision-safe via full comparison).
  std::vector<int> av = attrs.ToVector();
  std::unordered_map<size_t, std::vector<int>> heads;
  heads.reserve(static_cast<size_t>(num_rows_) * 2);
  int distinct = 0;
  for (int row = 0; row < num_rows_; ++row) {
    std::vector<int>& candidates = heads[ProjectionHash(*this, row, av)];
    bool seen = false;
    for (int head : candidates) {
      if (AgreeOn(head, row, attrs)) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      candidates.push_back(row);
      ++distinct;
    }
  }
  return distinct;
}

std::vector<std::vector<int>> Relation::GroupBy(AttrSet attrs) const {
  std::vector<int> av = attrs.ToVector();
  std::vector<std::vector<int>> groups;
  // Hash rows by projection; resolve collisions by full comparison.
  std::unordered_map<size_t, std::vector<int>> buckets;  // hash -> group ids
  buckets.reserve(static_cast<size_t>(num_rows_) * 2);
  for (int row = 0; row < num_rows_; ++row) {
    size_t h = ProjectionHash(*this, row, av);
    auto& candidates = buckets[h];
    bool placed = false;
    for (int gid : candidates) {
      if (AgreeOn(groups[gid][0], row, attrs)) {
        groups[gid].push_back(row);
        placed = true;
        break;
      }
    }
    if (!placed) {
      candidates.push_back(static_cast<int>(groups.size()));
      groups.push_back({row});
    }
  }
  return groups;
}

Relation Relation::Select(const std::vector<int>& rows) const {
  Relation out(schema_);
  for (int r : rows) {
    std::vector<Value> row = Row(r);
    // AppendRow cannot fail here: the arity matches by construction.
    out.AppendRow(std::move(row)).ok();
  }
  return out;
}

Relation Relation::ProjectColumns(AttrSet attrs) const {
  std::vector<int> av = attrs.ToVector();
  std::vector<Column> cols;
  for (int a : av) cols.push_back(schema_.column(a));
  Relation out{Schema(std::move(cols))};
  for (int r = 0; r < num_rows_; ++r) {
    std::vector<Value> row;
    row.reserve(av.size());
    for (int a : av) row.push_back(Get(r, a));
    out.AppendRow(std::move(row)).ok();
  }
  return out;
}

void Relation::InferTypes() {
  std::vector<Column> cols = schema_.columns();
  for (int c = 0; c < num_columns(); ++c) {
    ValueType t = ValueType::kNull;
    bool mixed = false;
    for (const Value& v : columns_[c]) {
      if (v.is_null()) continue;
      ValueType vt = v.type();
      // int and double merge to double.
      if (t == ValueType::kNull) {
        t = vt;
      } else if (t != vt) {
        if ((t == ValueType::kInt && vt == ValueType::kDouble) ||
            (t == ValueType::kDouble && vt == ValueType::kInt)) {
          t = ValueType::kDouble;
        } else {
          mixed = true;
          break;
        }
      }
    }
    cols[c].type = mixed ? ValueType::kNull : t;
  }
  schema_ = Schema(std::move(cols));
}

std::string Relation::ToPrettyString(int max_rows) const {
  std::vector<size_t> widths(num_columns());
  for (int c = 0; c < num_columns(); ++c) {
    widths[c] = schema_.name(c).size();
  }
  int shown = std::min(num_rows_, max_rows);
  for (int r = 0; r < shown; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      widths[c] = std::max(widths[c], Get(r, c).ToString().size());
    }
  }
  std::string out;
  for (int c = 0; c < num_columns(); ++c) {
    out += (c ? " | " : "| ") + PadRight(schema_.name(c), widths[c]);
  }
  out += " |\n";
  for (int c = 0; c < num_columns(); ++c) {
    out += (c ? "-+-" : "+-") + std::string(widths[c], '-');
  }
  out += "-+\n";
  for (int r = 0; r < shown; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      out += (c ? " | " : "| ") + PadRight(Get(r, c).ToString(), widths[c]);
    }
    out += " |\n";
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

uint64_t RelationRowChain(const Relation& relation, int from_row, int to_row,
                          uint64_t chain) {
  size_t h = static_cast<size_t>(chain);
  for (int r = from_row; r < to_row; ++r) {
    for (int c = 0; c < relation.num_columns(); ++c) {
      h = HashCombine(h, relation.Get(r, c).Hash());
    }
  }
  return static_cast<uint64_t>(h);
}

uint64_t FinalizeRelationFingerprint(uint64_t chain, const Schema& schema,
                                     int num_rows) {
  size_t h = HashCombine(static_cast<size_t>(chain),
                         static_cast<size_t>(num_rows));
  h = HashCombine(h, static_cast<size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    for (char ch : schema.name(c)) {
      h = HashCombine(h, static_cast<size_t>(ch));
    }
    h = HashCombine(h, static_cast<size_t>(schema.column(c).type));
  }
  return static_cast<uint64_t>(h);
}

uint64_t RelationFingerprint(const Relation& relation) {
  uint64_t chain = RelationRowChain(relation, relation.chain_rows_,
                                    relation.num_rows(), relation.chain_);
  return FinalizeRelationFingerprint(chain, relation.schema(),
                                     relation.num_rows());
}

RelationBuilder& RelationBuilder::AddRow(std::vector<Value> row) {
  if (first_error_.ok()) {
    Status st = relation_.AppendRow(std::move(row));
    if (!st.ok()) first_error_ = st;
  }
  return *this;
}

Result<Relation> RelationBuilder::Build() {
  if (!first_error_.ok()) return first_error_;
  relation_.InferTypes();
  return std::move(relation_);
}

}  // namespace famtree
