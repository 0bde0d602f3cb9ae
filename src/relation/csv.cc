#include "relation/csv.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/hash.h"
#include "common/strings.h"

namespace famtree {

namespace {

/// Tracks the bytes charged at "csv_rows" for one read so a failed parse
/// releases them: the charge pays for the relation under construction, and a
/// failed read constructs nothing.
class ScopedCsvCharge {
 public:
  explicit ScopedCsvCharge(RunContext* ctx) : ctx_(ctx) {}
  ScopedCsvCharge(const ScopedCsvCharge&) = delete;
  ScopedCsvCharge& operator=(const ScopedCsvCharge&) = delete;

  Status Charge(size_t bytes) {
    Status st = RunContext::ChargeAlloc(ctx_, bytes, "csv_rows");
    if (st.ok()) charged_ += bytes;
    return st;
  }

  void Commit() { committed_ = true; }

  ~ScopedCsvCharge() {
    if (!committed_ && ctx_ != nullptr && ctx_->memory_budget() != nullptr) {
      ctx_->memory_budget()->Release(charged_);
    }
  }

 private:
  RunContext* ctx_;
  size_t charged_ = 0;
  bool committed_ = false;
};

/// Bytes of `w` that are zero, flagged in their high bits; the lowest flag
/// is exact (a borrow only flags bytes above a real zero byte).
uint64_t ZeroBytes(uint64_t w) {
  return (w - 0x0101010101010101ULL) & ~w & 0x8080808080808080ULL;
}

/// The first byte of [p, end) in the `special` class, or end: eight bytes
/// per step on little-endian hosts, then the byte-class table.
const char* ScanPlain(const char* p, const char* end, char separator,
                      const bool* special) {
  if constexpr (std::endian::native == std::endian::little) {
    const uint64_t ones = 0x0101010101010101ULL;
    const uint64_t sep = ones * static_cast<uint8_t>(separator);
    for (; end - p >= 8; p += 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      uint64_t hit = ZeroBytes(w ^ sep) | ZeroBytes(w ^ (ones * '"')) |
                     ZeroBytes(w ^ (ones * '\r')) |
                     ZeroBytes(w ^ (ones * '\n'));
      if (hit != 0) return p + (std::countr_zero(hit) >> 3);
    }
  }
  while (p < end && !special[static_cast<unsigned char>(*p)]) ++p;
  return p;
}

/// Pulls chunks from `next` (empty view = end of input), charging each chunk
/// before it is parsed, and adopts the decoded columns as the relation.
/// `total_bytes` (the input size) sizes the columns once from the first
/// chunk's bytes per row, so they do not regrow cell by cell.
Result<Relation> ReadCsvChunks(const CsvChunkSource& next,
                               const CsvOptions& options,
                               size_t total_bytes) {
  ScopedCsvCharge charge(options.context);
  CsvRowDecoder decoder(options);
  for (bool first = true;; first = false) {
    FAMTREE_ASSIGN_OR_RETURN(std::string_view chunk, next());
    if (chunk.empty()) break;
    FAMTREE_RETURN_NOT_OK(charge.Charge(chunk.size()));
    FAMTREE_RETURN_NOT_OK(decoder.Feed(chunk));
    if (first && decoder.rows() > 0 && total_bytes > chunk.size()) {
      size_t rows = static_cast<size_t>(decoder.rows()) * total_bytes /
                    chunk.size();
      for (auto& col : decoder.columns()) col.reserve(rows + rows / 64 + 16);
    }
  }
  FAMTREE_RETURN_NOT_OK(decoder.Finish());
  charge.Commit();
  return Relation(decoder.schema(), std::move(decoder.columns()),
                  decoder.chain());
}

}  // namespace

CsvStreamParser::CsvStreamParser(char separator) : separator_(separator) {
  for (char c : {separator, '"', '\r', '\n'}) {
    special_[static_cast<unsigned char>(c)] = true;
  }
}

int CsvStreamParser::ToCarry(std::string_view text) {
  if (carry_used_ == static_cast<int>(carry_.size())) carry_.emplace_back();
  carry_[carry_used_].assign(text);
  return carry_used_++;
}

void CsvStreamParser::Append(const char* data, size_t size) {
  if (carry_index_ < 0) {
    std::string_view& text = field_.text;
    if (text.empty() || text.data() + text.size() == data) {
      text = std::string_view(text.empty() ? data : text.data(),
                              text.size() + size);
      return;
    }
    carry_index_ = ToCarry(text);
  }
  carry_[carry_index_].append(data, size);
}

void CsvStreamParser::EndField() {
  if (carry_index_ >= 0) field_.text = carry_[carry_index_];
  fields_.push_back(field_);
  field_ = CsvField();
  carry_index_ = -1;
}

Status CsvStreamParser::Emit(const RecordFn& emit) {
  EndField();
  record_open_ = false;
  Status st = emit(fields_);
  fields_.clear();
  chunk_fields_ = 0;
  carry_used_ = 0;
  return st;
}

Status CsvStreamParser::Feed(std::string_view chunk, const RecordFn& emit) {
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p < end) {
    if (skip_lf_) {
      skip_lf_ = false;
      if (*p == '\n') {
        ++p;
        continue;
      }
    }
    if (quote_pending_) {
      quote_pending_ = false;
      if (*p == '"') {  // an escaped quote: the second one is the literal
        Append(p++, 1);
        record_open_ = true;
        continue;
      }
      in_quotes_ = false;  // the pending quote closed the region
    }
    // Inside quotes only a quote stops the scan; outside, any special byte.
    const char* q =
        in_quotes_ ? static_cast<const char*>(memchr(p, '"', end - p))
                   : ScanPlain(p, end, separator_, special_);
    if (q == nullptr) q = end;
    if (q > p) {
      Append(p, q - p);
      record_open_ = true;
    }
    if (q == end) break;  // chunk consumed
    char c = *q;
    p = q + 1;
    record_open_ = true;
    if (in_quotes_) {
      // A quote inside quotes is ambiguous until the next byte, which may
      // live in the next chunk.
      quote_pending_ = true;
    } else if (c == separator_) {
      EndField();
    } else if (c == '"') {
      in_quotes_ = true;
      field_.quoted = true;
    } else {
      if (c == '\r') skip_lf_ = true;
      FAMTREE_RETURN_NOT_OK(Emit(emit));
    }
  }
  // Views die with the chunk: the open record's fields move to the carry.
  for (size_t i = chunk_fields_; i < fields_.size(); ++i) {
    fields_[i].text = carry_[ToCarry(fields_[i].text)];
  }
  chunk_fields_ = fields_.size();
  if (carry_index_ < 0 && !field_.text.empty()) {
    carry_index_ = ToCarry(field_.text);
  }
  return Status::OK();
}

Status CsvStreamParser::Finish(const RecordFn& emit) {
  if (quote_pending_) {
    // A quote at end of input closes its region.
    quote_pending_ = false;
    in_quotes_ = false;
  }
  if (in_quotes_) {
    return Status::Invalid("unterminated quoted field at end of CSV input");
  }
  skip_lf_ = false;
  if (record_open_) return Emit(emit);
  return Status::OK();
}

Value ParseCsvField(const CsvField& field, const CsvOptions& options) {
  if (field.quoted) return Value(std::string(field.text));
  if (field.text.empty() || field.text == options.null_literal) {
    return Value::Null();
  }
  if (options.infer_types) {
    long long iv;
    if (ParseInt64(field.text, &iv)) return Value(static_cast<int64_t>(iv));
    double dv;
    if (ParseDouble(field.text, &dv)) return Value(dv);
  }
  return Value(std::string(field.text));
}

std::string EscapeCsvField(const std::string& field, const CsvOptions& options,
                           bool from_string_value) {
  bool needs_quotes = field.empty() || field == options.null_literal ||
                      field.find(options.separator) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes && from_string_value && options.infer_types) {
    long long iv;
    double dv;
    needs_quotes = ParseInt64(field, &iv) || ParseDouble(field, &dv);
  }
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

CsvRowDecoder::CsvRowDecoder(const CsvOptions& options,
                             std::vector<ColumnTypeFold> folds,
                             uint64_t chain)
    : options_(options),
      parser_(options.separator),
      folds_(std::move(folds)),
      chain_(chain) {}

Status CsvRowDecoder::Feed(std::string_view chunk) {
  return parser_.Feed(chunk, [this](const std::vector<CsvField>& fields) {
    return OnRecord(fields);
  });
}

Status CsvRowDecoder::Finish() {
  FAMTREE_RETURN_NOT_OK(
      parser_.Finish([this](const std::vector<CsvField>& fields) {
        return OnRecord(fields);
      }));
  if (options_.has_header && !saw_header_) {
    return Status::Invalid("empty CSV input");
  }
  return Status::OK();
}

Schema CsvRowDecoder::schema() const {
  std::vector<Column> cols(names_.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c].name = names_[c];
    cols[c].type = folds_[c].result();
  }
  return Schema(std::move(cols));
}

void CsvRowDecoder::FixWidth() {
  if (folds_.empty()) folds_.resize(names_.size());
  columns_.resize(folds_.size());
}

Status CsvRowDecoder::OnRecord(const std::vector<CsvField>& fields) {
  if (options_.has_header && !saw_header_) {
    saw_header_ = true;
    for (const CsvField& f : fields) names_.emplace_back(Trim(f.text));
    FixWidth();
    return Status::OK();
  }
  // A record that is a single unquoted empty field is a blank line; a quoted
  // "" is a real one-cell record holding the empty string.
  if (fields.size() == 1 && !fields[0].quoted && Trim(fields[0].text).empty()) {
    return Status::OK();
  }
  if ((rows_ & 255) == 0) {
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(options_.context));
  }
  if (names_.empty()) {
    // No header: the first data row fixes the width.
    for (size_t i = 0; i < fields.size(); ++i) {
      names_.push_back("c" + std::to_string(i));
    }
    FixWidth();
  }
  if (fields.size() != names_.size()) {
    return Status::Invalid("row " + std::to_string(rows_ + 1) + " has " +
                           std::to_string(fields.size()) +
                           " fields, expected " +
                           std::to_string(names_.size()));
  }
  if (fields.size() != folds_.size()) {
    // Only when continuing a decode: rows must fit the earlier relation.
    return Status::Invalid("append row has " + std::to_string(fields.size()) +
                           " values, relation has " +
                           std::to_string(folds_.size()) + " columns");
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    Value v = ParseCsvField(fields[c], options_);
    folds_[c].Add(v.type());
    chain_ = HashCombine(chain_, v.Hash());
    columns_[c].push_back(std::move(v));
  }
  ++rows_;
  return Status::OK();
}

CsvChunkSource StringChunks(const std::string& text, size_t stride) {
  return [&text, stride, pos = size_t{0}]() mutable
         -> Result<std::string_view> {
    std::string_view chunk(text.data() + pos,
                           std::min(text.size() - pos, stride));
    pos += chunk.size();
    return chunk;
  };
}

CsvChunkSource StreamChunks(std::istream& in, std::vector<char>* buf) {
  return [&in, buf]() -> Result<std::string_view> {
    in.read(buf->data(), static_cast<std::streamsize>(buf->size()));
    if (in.bad()) return Status::IoError("read failed");
    return std::string_view(buf->data(), static_cast<size_t>(in.gcount()));
  };
}

Result<Relation> ReadCsvString(const std::string& text,
                               const CsvOptions& options) {
  return ReadCsvChunks(StringChunks(text, kCsvIoChunkBytes), options,
                       text.size());
}

Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::streamoff size = in.tellg();
  in.seekg(0);
  std::vector<char> buf(kCsvIoChunkBytes);
  return ReadCsvChunks(StreamChunks(in, &buf), options,
                       size > 0 ? static_cast<size_t>(size) : 0);
}

std::string WriteCsvString(const Relation& relation,
                           const CsvOptions& options) {
  std::string out;
  for (int c = 0; c < relation.num_columns(); ++c) {
    if (c) out += options.separator;
    // Header cells are never null-detected or type-inferred on read, so
    // they only need structural quoting.
    out += EscapeCsvField(relation.schema().name(c), options,
                          /*from_string_value=*/false);
  }
  out += '\n';
  for (int r = 0; r < relation.num_rows(); ++r) {
    for (int c = 0; c < relation.num_columns(); ++c) {
      if (c) out += options.separator;
      const Value& v = relation.Get(r, c);
      if (v.is_null()) {
        out += options.null_literal;
      } else {
        out += EscapeCsvField(v.ToString(), options, v.is_string());
      }
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const Relation& relation, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << WriteCsvString(relation, options);
  return out.good() ? Status::OK() : Status::IoError("write failed: " + path);
}

}  // namespace famtree
