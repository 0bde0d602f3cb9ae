#ifndef FAMTREE_RELATION_OOC_SHARDED_RELATION_H_
#define FAMTREE_RELATION_OOC_SHARDED_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "relation/csv.h"
#include "relation/encoded_relation.h"
#include "relation/relation.h"
#include "relation/ooc/spill.h"

namespace famtree {

/// Controls one out-of-core ingest.
struct IngestOptions {
  /// Dialect and limits shared with the whole-file readers. The context
  /// field here (not csv.context) carries the run limits; the csv copy's
  /// context is overwritten during ingest.
  CsvOptions csv;
  /// Rows per encoded shard (the spill/merge granule).
  int shard_rows = 64 * 1024;
  /// Bytes of raw input fed to the stream parser per charge/poll stride.
  size_t io_chunk_bytes = kCsvIoChunkBytes;
  /// Spill directory override; empty = DefaultSpillDir().
  std::string spill_dir;
  /// Spills every shard (and every PLI run built from this relation) as it
  /// closes, regardless of budget headroom — the deterministic full
  /// out-of-core coverage knob for tests and benches.
  bool force_spill = false;
  /// Optional run limits. The MemoryBudget here is remembered as the
  /// accounting home of shard residency: later spills release their charges
  /// back to it, so using the same budget for ingest and discovery lets
  /// discovery-time pressure reclaim ingest-resident shards. Must outlive
  /// the relation if set.
  RunContext* context = nullptr;
};

/// What one ingest did (ShardedEncodedRelation::stats()).
struct IngestStats {
  int64_t rows = 0;
  int64_t bytes_read = 0;
  int shards = 0;
  int shards_spilled = 0;
  int64_t spill_bytes = 0;
};

/// A dictionary-encoded relation ingested in fixed-size row morsels and
/// stored as row shards of per-column code arrays, each shard either
/// memory-resident or spilled to an unlinked temp file. Dictionaries are
/// built incrementally during the streaming parse by the ValueDictionary
/// that EncodedRelation encodes with, so the codes — and therefore every
/// partition and every discovered dependency — are bit-identical to
/// encoding the materialized relation. The whole raw input is never
/// resident: each parsed chunk is charged at "csv_rows", encoded, and
/// released.
///
/// The RunContext MemoryBudget acts as a *spill trigger*, not a kill
/// switch: when a charge lacks headroom, resident shards spill (releasing
/// their charges) before the charge is retried; only when spilling cannot
/// make room does the run latch kResourceExhausted as usual.
///
/// After ingest the relation is logically immutable. Shard loads and
/// spill-under-pressure are thread-safe; values, dictionaries, schema and
/// fingerprint never change.
class ShardedEncodedRelation {
 public:
  static Result<std::shared_ptr<ShardedEncodedRelation>> IngestCsvFile(
      const std::string& path, IngestOptions options = {});
  static Result<std::shared_ptr<ShardedEncodedRelation>> IngestCsvString(
      const std::string& text, IngestOptions options = {});

  /// Batch append: streams more CSV through the same incremental encoder,
  /// extending the per-column dictionaries, shard list, and type fold
  /// exactly as if the delta had been part of the original input — the
  /// refreshed fingerprint() equals a cold ingest of base + delta. The
  /// delta text follows the same dialect as the original ingest; with
  /// `csv.has_header` set (the default) it must repeat the header, which
  /// is verified against the existing schema. Use
  /// DiscoveryEngine::AppendCsv instead when the relation is registered
  /// with an engine so cached PLIs and evidence are maintained.
  ///
  /// Not thread-safe against concurrent readers: callers must quiesce
  /// discovery on this relation for the duration (the same contract as
  /// mutating a Relation mid-run). Appends should run under the same
  /// memory budget as the original ingest; a failed append leaves the
  /// relation partially extended and it should be discarded, like a
  /// failed ingest.
  Status AppendCsv(const std::string& text, IngestOptions options = {});

  ShardedEncodedRelation(const ShardedEncodedRelation&) = delete;
  ShardedEncodedRelation& operator=(const ShardedEncodedRelation&) = delete;

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_columns(); }
  int num_rows() const { return num_rows_; }

  int dict_size(int col) const { return static_cast<int>(dicts_[col].size()); }
  const Value& Decode(int col, uint32_t code) const {
    return dicts_[col][code];
  }

  /// Content fingerprint, identical to RelationFingerprint of the relation
  /// the whole-file reader would have materialized from the same input —
  /// the key DiscoveryEngine's caches use across both paths.
  uint64_t fingerprint() const { return fingerprint_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int shard_num_rows(int shard) const { return shards_[shard].rows; }
  /// Global index of the shard's first row.
  int shard_row_begin(int shard) const { return shards_[shard].row_begin; }
  bool force_spill() const { return force_spill_; }
  const std::string& spill_dir() const { return spill_dir_; }
  /// Ingest-time stats plus any spills triggered after ingest by
  /// ChargeWithSpill pressure.
  IngestStats stats() const;

  /// Copies shard `shard`'s codes for column `col` into dst[0..rows).
  /// Thread-safe with concurrent loads and with TrySpillResident.
  Status CopyShardColumn(int shard, int col, uint32_t* dst) const;
  Status LoadShardColumn(int shard, int col, std::vector<uint32_t>* out) const;

  /// Spills resident shards (oldest first) until at least `bytes_needed`
  /// of budget charge has been released or none remain; returns the bytes
  /// released. Each shard write passes the "ooc_spill" fault point; a
  /// failed write latches its IoError on the context and the shard stays
  /// resident. Logically const: residency moves, content does not.
  Result<size_t> TrySpillResident(RunContext* ctx, size_t bytes_needed) const;

  /// Charges `bytes` at `site`, spilling resident shards while the
  /// context's budget lacks headroom. Concurrent chargers may take the
  /// headroom a spill frees, so spill and charge repeat until the charge
  /// lands; kResourceExhausted is latched only once no resident shard is
  /// left. The site passes the fault injector once per call, so injected
  /// faults behave exactly as at a plain ChargeAlloc.
  Status ChargeWithSpill(RunContext* ctx, size_t bytes,
                         const char* site) const;

  /// Assembles the full flat encoding (every column's codes), charging
  /// num_rows * num_columns * 4 bytes at the "ingest_codes" site with
  /// spill fallback. The sampling-based discovery paths need this; the
  /// PLI-only paths (exact TANE) never call it.
  Result<std::shared_ptr<const EncodedRelation>> MaterializeEncoded(
      RunContext* ctx) const;

  /// Rebuilds a row-major Relation from the dictionaries (tests and small
  /// inputs only). Cells are the dictionary representatives: a column
  /// holding both 1 and 1.0 decodes every occurrence as its first form.
  Result<Relation> MaterializeRelation() const;

  /// Streams the relation back to CSV shard by shard, byte-identical to
  /// WriteCsvString on the materialized relation.
  Status WriteCsv(std::ostream& out, const CsvOptions& options = {}) const;
  Result<std::string> ToCsvString(const CsvOptions& options = {}) const;
  Status WriteCsvToFile(const std::string& path,
                        const CsvOptions& options = {}) const;

 private:
  struct Shard {
    int row_begin = 0;
    int rows = 0;
    /// Resident code arrays, one per column; cleared once spilled.
    std::vector<std::vector<uint32_t>> cols;
    /// Spill-file offset of each column's codes; valid when spilled.
    std::vector<uint64_t> offsets;
    bool spilled = false;
    /// Budget bytes charged for residency; released on spill.
    size_t charged = 0;
  };

  ShardedEncodedRelation() = default;

  class Ingester;  // builds instances; defined in the .cc

  /// Spills one shard under mu_. On success releases the shard's charge to
  /// the remembered ingest budget and frees the resident arrays.
  Status SpillShardLocked(RunContext* ctx, Shard* shard) const;

  Schema schema_;
  int num_rows_ = 0;
  std::vector<std::vector<Value>> dicts_;
  bool force_spill_ = false;
  std::string spill_dir_;
  uint64_t fingerprint_ = 0;
  /// Append-resume state: the row-major cell chain behind fingerprint_
  /// (see RelationRowChain) and the per-column type-inference fold, kept
  /// so AppendCsv can continue both instead of rescanning shards.
  uint64_t chain_ = 0;
  std::vector<ColumnTypeFold> fold_;
  IngestStats stats_;
  /// The budget shard residency was charged to (may be null); spills
  /// release to it no matter which context triggers them.
  MemoryBudget* ingest_budget_ = nullptr;

  mutable std::mutex mu_;  // guards shard residency and the spill file
  mutable std::vector<Shard> shards_;
  mutable SpillFile spill_;
  mutable int shards_spilled_after_ingest_ = 0;
  mutable int64_t spill_bytes_after_ingest_ = 0;
};

}  // namespace famtree

#endif  // FAMTREE_RELATION_OOC_SHARDED_RELATION_H_
