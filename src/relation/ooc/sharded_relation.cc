#include "relation/ooc/sharded_relation.h"

#include <string.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <utility>


namespace famtree {

namespace {

/// Approximate resident bytes of one new dictionary entry (the budget is an
/// accrual account, not an allocator; close is good enough).
size_t DictEntryBytes(const Value& v) {
  return sizeof(Value) + (v.is_string() ? v.as_string().size() : 0);
}

}  // namespace

/// Streaming builder: feeds each chunk to the CSV decoder (which folds the
/// column types and the fingerprint chain), then encodes the decoded rows
/// against per-column ValueDictionaries, exactly as EncodedRelation does,
/// and closes fixed-size shards that stay resident under the budget or
/// spill.
class ShardedEncodedRelation::Ingester {
 public:
  explicit Ingester(IngestOptions options)
      : options_(std::move(options)),
        owned_(new ShardedEncodedRelation()),
        rel_(owned_.get()),
        decoder_(MakeCsvOptions()) {
    rel_->force_spill_ = options_.force_spill;
    rel_->spill_dir_ =
        options_.spill_dir.empty() ? DefaultSpillDir() : options_.spill_dir;
    MemoryBudget* budget =
        options_.context ? options_.context->memory_budget() : nullptr;
    rel_->ingest_budget_ = budget;
    if (options_.shard_rows < 1) options_.shard_rows = 1;
  }

  /// Append-resume mode: continues an existing relation's encoder state —
  /// dictionaries, type fold, row counter, and fingerprint chain — so the
  /// delta rows get codes exactly as they would have in one uninterrupted
  /// ingest.
  Ingester(ShardedEncodedRelation* existing, IngestOptions options)
      : options_(std::move(options)),
        rel_(existing),
        decoder_(MakeCsvOptions(), existing->fold_, existing->chain_) {
    if (options_.shard_rows < 1) options_.shard_rows = 1;
    // Spill settings stay the relation's own. Adopt the append context's
    // budget as the residency account only if ingest never had one;
    // otherwise the append must run under the original budget.
    if (rel_->ingest_budget_ == nullptr && options_.context != nullptr) {
      rel_->ingest_budget_ = options_.context->memory_budget();
    }
    num_rows_ = rel_->num_rows_;
    for (const std::vector<Value>& dict : rel_->dicts_) {
      dicts_.emplace_back(dict);
    }
  }

  Status Run(const CsvChunkSource& next) {
    MemoryBudget* budget =
        options_.context ? options_.context->memory_budget() : nullptr;
    for (;;) {
      FAMTREE_ASSIGN_OR_RETURN(std::string_view chunk, next());
      if (chunk.empty()) break;
      // The raw input is transient: charged while the chunk is being
      // parsed/encoded, then released — only the encoded shards and
      // dictionaries stay on the books. This is what lets a file larger
      // than the whole budget stream through. Resident shards yield
      // (spill) when the chunk needs the headroom they occupy.
      FAMTREE_RETURN_NOT_OK(
          rel_->ChargeWithSpill(options_.context, chunk.size(), "csv_rows"));
      Status st = EncodeAfter(decoder_.Feed(chunk));
      if (budget != nullptr) budget->Release(chunk.size());
      FAMTREE_RETURN_NOT_OK(st);
      rel_->stats_.bytes_read += static_cast<int64_t>(chunk.size());
    }
    return EncodeAfter(decoder_.Finish());
  }

  Result<std::shared_ptr<ShardedEncodedRelation>> Finish() {
    FAMTREE_RETURN_NOT_OK(CloseShard());
    FAMTREE_RETURN_NOT_OK(FlushDictCharge());
    rel_->schema_ = decoder_.schema();
    Seal();
    return std::move(owned_);
  }

  /// Append-mode finish: validates the delta's header against the existing
  /// schema, refreshes the inferred column types (an append can widen
  /// int -> double or break uniformity), and refinalizes the fingerprint
  /// from the extended cell chain.
  Status FinishAppend() {
    FAMTREE_RETURN_NOT_OK(CloseShard());
    FAMTREE_RETURN_NOT_OK(FlushDictCharge());
    int nc = rel_->num_columns();
    if (nc > 0 && options_.csv.has_header && !decoder_.names().empty()) {
      if (static_cast<int>(decoder_.names().size()) != nc) {
        return Status::Invalid("append header has " +
                               std::to_string(decoder_.names().size()) +
                               " columns, relation has " + std::to_string(nc));
      }
      for (int c = 0; c < nc; ++c) {
        if (decoder_.names()[c] != rel_->schema_.name(c)) {
          return Status::Invalid("append header column " + std::to_string(c) +
                                 " is '" + decoder_.names()[c] +
                                 "', relation has '" + rel_->schema_.name(c) +
                                 "'");
        }
      }
    }
    if (nc == 0 && num_rows_ > 0) {
      // Appending onto an empty, schema-less relation is a plain ingest.
      rel_->schema_ = decoder_.schema();
    } else {
      std::vector<Column> cols = rel_->schema_.columns();
      for (int c = 0; c < nc; ++c) cols[c].type = decoder_.folds()[c].result();
      rel_->schema_ = Schema(std::move(cols));
    }
    Seal();
    return Status::OK();
  }

 private:
  CsvOptions MakeCsvOptions() {
    CsvOptions csv = options_.csv;
    csv.context = options_.context;
    return csv;
  }

  /// Encodes the rows `decoded` left in the decoder's columns, in row
  /// order, before reporting `decoded`: the rows a failed chunk decoded
  /// first are encoded exactly as a row-at-a-time ingest would have, and
  /// an encode failure among them is the first error.
  Status EncodeAfter(const Status& decoded) {
    std::vector<std::vector<Value>>& cells = decoder_.columns();
    int nc = static_cast<int>(cells.size());
    size_t rows = nc == 0 ? 0 : cells[0].size();
    if (rows > 0 && cur_cols_.empty()) {
      dicts_.resize(nc);
      cur_cols_.resize(nc);
      for (auto& col : cur_cols_) col.reserve(options_.shard_rows);
    }
    for (size_t r = 0; r < rows; ++r) {
      if (num_rows_ == std::numeric_limits<int>::max()) {
        return Status::Invalid("relation exceeds 2^31 - 1 rows");
      }
      for (int c = 0; c < nc; ++c) {
        const Value& v = cells[c][r];
        size_t before = dicts_[c].size();
        cur_cols_[c].push_back(dicts_[c].Encode(v));
        if (dicts_[c].size() > before) dict_pending_bytes_ += DictEntryBytes(v);
      }
      ++num_rows_;
      if (static_cast<int>(cur_cols_[0].size()) >= options_.shard_rows) {
        FAMTREE_RETURN_NOT_OK(CloseShard());
      }
      if (dict_pending_bytes_ >= kDictChargeStride) {
        FAMTREE_RETURN_NOT_OK(FlushDictCharge());
      }
    }
    for (auto& col : cells) col.clear();
    return decoded;
  }

  Status FlushDictCharge() {
    if (dict_pending_bytes_ == 0) return Status::OK();
    size_t bytes = dict_pending_bytes_;
    dict_pending_bytes_ = 0;
    // Dictionaries must stay resident, but shard residency can still make
    // room for them.
    return rel_->ChargeWithSpill(options_.context, bytes, "ingest_dict");
  }

  Status CloseShard() {
    int rows =
        cur_cols_.empty() ? 0 : static_cast<int>(cur_cols_[0].size());
    if (rows == 0) return Status::OK();
    int nc = static_cast<int>(cur_cols_.size());
    Shard shard;
    shard.row_begin = num_rows_ - rows;
    shard.rows = rows;
    shard.cols = std::move(cur_cols_);
    cur_cols_.clear();
    cur_cols_.resize(nc);
    for (auto& col : cur_cols_) col.reserve(options_.shard_rows);
    rel_->shards_.push_back(std::move(shard));
    Shard* s = &rel_->shards_.back();
    size_t bytes = static_cast<size_t>(rows) * nc * sizeof(uint32_t);
    MemoryBudget* budget =
        options_.context ? options_.context->memory_budget() : nullptr;
    std::lock_guard<std::mutex> lock(rel_->mu_);
    if (rel_->force_spill_ || (budget != nullptr && !budget->TryCharge(bytes))) {
      // Over budget (or forced): this shard goes to disk instead of
      // latching kResourceExhausted.
      return rel_->SpillShardLocked(options_.context, s);
    }
    s->charged = budget != nullptr ? bytes : 0;
    return Status::OK();
  }

  /// Shared tail of Finish/FinishAppend: commits counters, dictionaries
  /// and the append-resume state (cell chain + type fold), and finalizes
  /// the fingerprint. The decoder folded the cell hashes row-major, so the
  /// result matches RelationFingerprint of the relation the whole-file
  /// reader would materialize — with no shard rescan.
  void Seal() {
    rel_->num_rows_ = num_rows_;
    rel_->stats_.rows = num_rows_;
    rel_->stats_.shards = rel_->num_shards();
    rel_->dicts_.resize(decoder_.folds().size());
    for (size_t c = 0; c < dicts_.size(); ++c) {
      rel_->dicts_[c] = dicts_[c].TakeValues();
    }
    rel_->chain_ = decoder_.chain();
    rel_->fold_ = decoder_.folds();
    rel_->fingerprint_ =
        FinalizeRelationFingerprint(rel_->chain_, rel_->schema_, num_rows_);
  }

  static constexpr size_t kDictChargeStride = 256 * 1024;

  IngestOptions options_;
  /// Fresh-ingest mode owns the relation being built; append mode borrows
  /// the existing one through rel_ and leaves owned_ empty.
  std::shared_ptr<ShardedEncodedRelation> owned_;
  ShardedEncodedRelation* rel_;
  CsvRowDecoder decoder_;
  int num_rows_ = 0;
  std::vector<ValueDictionary> dicts_;
  std::vector<std::vector<uint32_t>> cur_cols_;
  size_t dict_pending_bytes_ = 0;
};

Result<std::shared_ptr<ShardedEncodedRelation>>
ShardedEncodedRelation::IngestCsvString(const std::string& text,
                                        IngestOptions options) {
  size_t stride = std::max<size_t>(options.io_chunk_bytes, 1);
  Ingester ingester(std::move(options));
  FAMTREE_RETURN_NOT_OK(ingester.Run(StringChunks(text, stride)));
  return ingester.Finish();
}

Result<std::shared_ptr<ShardedEncodedRelation>>
ShardedEncodedRelation::IngestCsvFile(const std::string& path,
                                      IngestOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  std::vector<char> buf(std::max<size_t>(options.io_chunk_bytes, 1));
  Ingester ingester(std::move(options));
  FAMTREE_RETURN_NOT_OK(ingester.Run(StreamChunks(in, &buf)));
  return ingester.Finish();
}

Status ShardedEncodedRelation::AppendCsv(const std::string& text,
                                         IngestOptions options) {
  size_t stride = std::max<size_t>(options.io_chunk_bytes, 1);
  Ingester ingester(this, std::move(options));
  FAMTREE_RETURN_NOT_OK(ingester.Run(StringChunks(text, stride)));
  return ingester.FinishAppend();
}

Status ShardedEncodedRelation::SpillShardLocked(RunContext* ctx,
                                                Shard* shard) const {
  if (shard->spilled) return Status::OK();
  // The spill-write fault point: an injected failure here leaves the shard
  // resident and latches the stop, so callers back out cleanly.
  FAMTREE_RETURN_NOT_OK(RunContext::FaultPoint(ctx, "ooc_spill"));
  if (!spill_.is_open()) {
    Result<SpillFile> created = SpillFile::Create(spill_dir_);
    if (!created.ok()) return RunContext::Fail(ctx, created.status());
    spill_ = std::move(created).value();
  }
  int nc = static_cast<int>(shard->cols.size());
  shard->offsets.resize(nc);
  int64_t written = 0;
  for (int c = 0; c < nc; ++c) {
    size_t bytes = shard->cols[c].size() * sizeof(uint32_t);
    Result<uint64_t> off = spill_.Append(shard->cols[c].data(), bytes);
    if (!off.ok()) return RunContext::Fail(ctx, off.status());
    shard->offsets[c] = *off;
    written += static_cast<int64_t>(bytes);
  }
  shard->spilled = true;
  shard->cols.clear();
  shard->cols.shrink_to_fit();
  if (shard->charged > 0 && ingest_budget_ != nullptr) {
    ingest_budget_->Release(shard->charged);
  }
  shard->charged = 0;
  ++shards_spilled_after_ingest_;
  spill_bytes_after_ingest_ += written;
  return Status::OK();
}

Result<size_t> ShardedEncodedRelation::TrySpillResident(
    RunContext* ctx, size_t bytes_needed) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t freed = 0;
  for (Shard& shard : shards_) {
    if (freed >= bytes_needed) break;
    // Only charged residents can create budget headroom.
    if (shard.spilled || shard.charged == 0) continue;
    size_t charge = shard.charged;
    FAMTREE_RETURN_NOT_OK(SpillShardLocked(ctx, &shard));
    freed += charge;
  }
  return freed;
}

Status ShardedEncodedRelation::ChargeWithSpill(RunContext* ctx, size_t bytes,
                                               const char* site) const {
  MemoryBudget* budget = ctx != nullptr ? ctx->memory_budget() : nullptr;
  // A spill credits the budget the shards were charged to; under any
  // other budget it cannot make room.
  if (budget == nullptr || bytes == 0 || budget != ingest_budget_) {
    return RunContext::ChargeAlloc(ctx, bytes, site);
  }
  // The site's one fault-injector count and the latched-stop check; the
  // bytes go through the budget directly below.
  FAMTREE_RETURN_NOT_OK(RunContext::FaultPoint(ctx, site));
  // Spilling and charging are separate steps, so a concurrent charger can
  // take the headroom a spill just freed. Retry until the charge lands or
  // no resident shard is left to spill; only then is the budget truly
  // exhausted.
  size_t freed = 1;
  while (freed > 0) {
    if (budget->TryCharge(bytes)) return Status::OK();
    FAMTREE_RETURN_NOT_OK(RunContext::StopStatus(ctx));
    size_t remaining = budget->remaining();
    size_t need = bytes > remaining ? bytes - remaining : 1;
    FAMTREE_ASSIGN_OR_RETURN(freed, TrySpillResident(ctx, need));
  }
  // Nothing resident is left (another thread's spill may still have freed
  // headroom since the last try).
  if (budget->TryCharge(bytes)) return Status::OK();
  return RunContext::Fail(
      ctx, Status::ResourceExhausted(
               std::string("memory budget exhausted at site '") + site +
               "' (" + std::to_string(budget->used()) + " of " +
               std::to_string(budget->limit()) +
               " bytes accrued, no resident shard left to spill)"));
}

Status ShardedEncodedRelation::CopyShardColumn(int shard, int col,
                                               uint32_t* dst) const {
  std::unique_lock<std::mutex> lock(mu_);
  const Shard& s = shards_[shard];
  if (!s.spilled) {
    memcpy(dst, s.cols[col].data(), s.cols[col].size() * sizeof(uint32_t));
    return Status::OK();
  }
  uint64_t offset = s.offsets[col];
  size_t bytes = static_cast<size_t>(s.rows) * sizeof(uint32_t);
  // pread outside the lock: the spill file is append-only and this shard's
  // bytes were durable before `spilled` was set.
  lock.unlock();
  return spill_.ReadAt(offset, dst, bytes);
}

Status ShardedEncodedRelation::LoadShardColumn(
    int shard, int col, std::vector<uint32_t>* out) const {
  out->resize(shards_[shard].rows);
  return CopyShardColumn(shard, col, out->data());
}

Result<std::shared_ptr<const EncodedRelation>>
ShardedEncodedRelation::MaterializeEncoded(RunContext* ctx) const {
  int nc = num_columns();
  size_t bytes =
      static_cast<size_t>(num_rows_) * nc * sizeof(uint32_t);
  FAMTREE_RETURN_NOT_OK(ChargeWithSpill(ctx, bytes, "ingest_codes"));
  MemoryBudget* budget = ctx != nullptr ? ctx->memory_budget() : nullptr;
  auto back_out = [&](const Status& st) -> Status {
    if (budget != nullptr) budget->Release(bytes);
    return st;
  };
  std::vector<std::vector<uint32_t>> columns(nc);
  for (int c = 0; c < nc; ++c) {
    columns[c].resize(num_rows_);
    for (int s = 0; s < num_shards(); ++s) {
      Status st =
          CopyShardColumn(s, c, columns[c].data() + shard_row_begin(s));
      if (!st.ok()) return back_out(st);
    }
  }
  return std::make_shared<const EncodedRelation>(num_rows_, std::move(columns),
                                                 dicts_);
}

Result<Relation> ShardedEncodedRelation::MaterializeRelation() const {
  RelationBuilder builder(Schema(schema_.columns()));
  int nc = num_columns();
  std::vector<std::vector<uint32_t>> cols(nc);
  for (int s = 0; s < num_shards(); ++s) {
    for (int c = 0; c < nc; ++c) {
      FAMTREE_RETURN_NOT_OK(LoadShardColumn(s, c, &cols[c]));
    }
    for (int r = 0; r < shard_num_rows(s); ++r) {
      std::vector<Value> row;
      row.reserve(nc);
      for (int c = 0; c < nc; ++c) row.push_back(Decode(c, cols[c][r]));
      builder.AddRow(std::move(row));
    }
  }
  return builder.Build();
}

Status ShardedEncodedRelation::WriteCsv(std::ostream& out,
                                        const CsvOptions& options) const {
  std::string line;
  int nc = num_columns();
  for (int c = 0; c < nc; ++c) {
    if (c) line += options.separator;
    line += EscapeCsvField(schema_.name(c), options,
                           /*from_string_value=*/false);
  }
  line += '\n';
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
  std::vector<std::vector<uint32_t>> cols(nc);
  for (int s = 0; s < num_shards(); ++s) {
    for (int c = 0; c < nc; ++c) {
      FAMTREE_RETURN_NOT_OK(LoadShardColumn(s, c, &cols[c]));
    }
    line.clear();
    for (int r = 0; r < shard_num_rows(s); ++r) {
      for (int c = 0; c < nc; ++c) {
        if (c) line += options.separator;
        const Value& v = Decode(c, cols[c][r]);
        if (v.is_null()) {
          line += options.null_literal;
        } else {
          line += EscapeCsvField(v.ToString(), options, v.is_string());
        }
      }
      line += '\n';
    }
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
  if (!out.good()) return Status::IoError("CSV write failed");
  return Status::OK();
}

Result<std::string> ShardedEncodedRelation::ToCsvString(
    const CsvOptions& options) const {
  std::ostringstream out;
  FAMTREE_RETURN_NOT_OK(WriteCsv(out, options));
  return std::move(out).str();
}

Status ShardedEncodedRelation::WriteCsvToFile(const std::string& path,
                                              const CsvOptions& options) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  return WriteCsv(out, options);
}

IngestStats ShardedEncodedRelation::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IngestStats out = stats_;
  out.shards_spilled = shards_spilled_after_ingest_;
  out.spill_bytes = spill_bytes_after_ingest_;
  return out;
}

}  // namespace famtree
