#ifndef FAMTREE_RELATION_CSV_H_
#define FAMTREE_RELATION_CSV_H_

#include <deque>
#include <functional>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "relation/relation.h"

namespace famtree {

/// CSV parsing options. The dialect supported is RFC-4180-ish: quoted fields
/// with doubled-quote escaping, configurable separator.
struct CsvOptions {
  char separator = ',';
  /// First line holds column names.
  bool has_header = true;
  /// Parse numeric-looking fields into int64/double Values.
  bool infer_types = true;
  /// Fields equal to this literal become null (in addition to empty fields).
  std::string null_literal = "NULL";
  /// Optional run limits: the readers poll as rows stream in and charge each
  /// consumed input chunk at the "csv_rows" site *before* parsing it, so a
  /// file larger than the budget fails at the first over-budget chunk
  /// instead of after materializing everything. A failed read releases its
  /// charges — there are no partial relations.
  RunContext* context = nullptr;
};

/// Bytes fed to the stream parser per charge/poll stride by the whole-file
/// readers and the default out-of-core ingest morsel size.
inline constexpr size_t kCsvIoChunkBytes = 256 * 1024;

/// One raw field plus whether any part of it was quoted in the source; the
/// readers need that distinction because quoting suppresses null detection
/// and type inference. The text views the parser's input chunk, or its
/// carry buffer for a field that spans chunks or holds an escaped quote;
/// it is valid only during the record callback.
struct CsvField {
  std::string_view text;
  bool quoted = false;
};

/// Incremental CSV record scanner: accepts the input as arbitrary chunks and
/// invokes `emit` once per record, so a quoted field, a doubled quote, or a
/// CRLF pair may span any chunk boundary. Feed() consumes a chunk; Finish()
/// flushes a final record with no trailing newline and rejects an
/// unterminated quoted field. Unquoted text is scanned eight bytes at a
/// time (a byte-class table for the tail) and quoted text with memchr; a
/// field contiguous in its chunk is passed as a view of it, and only the
/// rest (an escaped quote, text on both sides of a quote, or a record left
/// open at the end of a chunk) is copied, into carry strings reused from
/// record to record.
class CsvStreamParser {
 public:
  using RecordFn = std::function<Status(const std::vector<CsvField>&)>;

  explicit CsvStreamParser(char separator);

  Status Feed(std::string_view chunk, const RecordFn& emit);
  Status Finish(const RecordFn& emit);

 private:
  /// Copies `text` into the next free carry string; returns its index.
  int ToCarry(std::string_view text);
  void Append(const char* data, size_t size);
  void EndField();
  Status Emit(const RecordFn& emit);

  char separator_;
  bool special_[256] = {};  // separator, quote, CR, LF: the scan stop set
  std::vector<CsvField> fields_;  // the open record's finished fields
  CsvField field_;
  int carry_index_ = -1;  // field_'s carry string, or -1 while a view
  size_t chunk_fields_ = 0;  // fields_ before this one view the chunk
  /// A deque: growing it leaves the carried fields' views valid.
  std::deque<std::string> carry_;
  int carry_used_ = 0;
  bool in_quotes_ = false;
  /// Saw a quote inside a quoted region at a chunk boundary: a following
  /// quote is an escaped literal, anything else closes the region.
  bool quote_pending_ = false;
  /// Saw a bare CR record terminator at a chunk boundary: a following LF
  /// belongs to it.
  bool skip_lf_ = false;
  /// Any byte consumed since the last record: gates the Finish() flush so
  /// input without a trailing newline yields its last record but a trailing
  /// newline does not yield a phantom empty one.
  bool record_open_ = false;
};

/// Null detection and type inference for one raw field. Both apply only to
/// unquoted fields: a quoted "" is the empty string and quoted "NULL" /
/// "123" stay literal text — the contract EscapeCsvField relies on for
/// lossless round-trips.
Value ParseCsvField(const CsvField& field, const CsvOptions& options);

/// Quotes any text a reader could misinterpret: separators, quotes, either
/// newline byte (a bare \r also terminates a record on read), the empty
/// field and the null literal (which would read back as null), and — for
/// string-typed cells — text that type inference would turn into a number.
std::string EscapeCsvField(const std::string& field, const CsvOptions& options,
                           bool from_string_value);

/// Decodes CSV text into typed columns with the exact dialect every ingest
/// path applies: captures the header (or synthesizes c0..cN names from the
/// first data row), skips blank lines, applies ParseCsvField, enforces a
/// uniform field count, and polls the context once per 256 data rows. Each
/// cell goes straight into its column, and the same row-major pass folds
/// the column types and the fingerprint chain (RelationRowChain's fold).
/// Shared by ReadCsvString/ReadCsvFile, which adopt the columns as the
/// relation, and the out-of-core ingester, which drains them into its
/// dictionaries after every chunk.
class CsvRowDecoder {
 public:
  /// Non-empty `folds` continue an earlier decode's type fold and `chain`
  /// (an append to an ingested relation); rows must then have
  /// folds.size() fields.
  explicit CsvRowDecoder(const CsvOptions& options,
                         std::vector<ColumnTypeFold> folds = {},
                         uint64_t chain = kRelationChainSeed);

  Status Feed(std::string_view chunk);
  /// Flushes the last record; rejects input that never produced the
  /// expected header.
  Status Finish();

  /// Column names seen so far (header, synthesized, or empty when no data
  /// row has fixed the width yet).
  const std::vector<std::string>& names() const { return names_; }
  int64_t rows() const { return rows_; }
  /// Cells decoded since the caller last emptied them, one vector per
  /// column (empty until the width is known).
  std::vector<std::vector<Value>>& columns() { return columns_; }
  const std::vector<ColumnTypeFold>& folds() const { return folds_; }
  /// The names with their folded column types.
  Schema schema() const;
  uint64_t chain() const { return chain_; }

 private:
  Status OnRecord(const std::vector<CsvField>& fields);
  void FixWidth();

  CsvOptions options_;
  CsvStreamParser parser_;
  std::vector<std::string> names_;
  bool saw_header_ = false;
  int64_t rows_ = 0;
  std::vector<std::vector<Value>> columns_;
  std::vector<ColumnTypeFold> folds_;
  uint64_t chain_;
};

/// A chunk source for the readers: each call returns the next chunk of the
/// input, an empty view at its end.
using CsvChunkSource = std::function<Result<std::string_view>()>;
/// `text` in views of at most `stride` bytes.
CsvChunkSource StringChunks(const std::string& text, size_t stride);
/// Reads of at most buf->size() bytes from `in` into `*buf`.
CsvChunkSource StreamChunks(std::istream& in, std::vector<char>* buf);

/// Parses CSV text into a Relation.
Result<Relation> ReadCsvString(const std::string& text,
                               const CsvOptions& options = {});

/// Reads and parses a CSV file, streaming fixed-size chunks through the
/// incremental parser (the file is never slurped whole).
Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = {});

/// Serializes a relation as CSV (always writes a header).
std::string WriteCsvString(const Relation& relation,
                           const CsvOptions& options = {});

/// Writes a relation to a CSV file.
Status WriteCsvFile(const Relation& relation, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace famtree

#endif  // FAMTREE_RELATION_CSV_H_
