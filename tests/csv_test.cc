#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <utility>

#include "relation/csv.h"
#include "relation/ooc/sharded_relation.h"

namespace famtree {
namespace {

TEST(CsvTest, ParsesHeaderAndRows) {
  auto r = ReadCsvString("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2);
  EXPECT_EQ(r->schema().name(0), "a");
  EXPECT_EQ(r->Get(0, 0), Value(1));
  EXPECT_EQ(r->Get(1, 1), Value("y"));
}

TEST(CsvTest, TypeInference) {
  auto r = ReadCsvString("i,d,s\n1,2.5,hello\n-3,1e2,world\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0), Value(1));
  EXPECT_EQ(r->Get(0, 1), Value(2.5));
  EXPECT_EQ(r->Get(1, 1), Value(100.0));
  EXPECT_EQ(r->Get(1, 2), Value("world"));
  EXPECT_EQ(r->schema().column(0).type, ValueType::kInt);
}

TEST(CsvTest, InferenceDisabled) {
  CsvOptions opt;
  opt.infer_types = false;
  auto r = ReadCsvString("a\n12\n", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0), Value("12"));
}

TEST(CsvTest, QuotedFields) {
  auto r = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0), Value("x,y"));
  EXPECT_EQ(r->Get(0, 1), Value("he said \"hi\""));
}

TEST(CsvTest, NullLiterals) {
  auto r = ReadCsvString("a,b\nNULL,\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Get(0, 0).is_null());
  EXPECT_TRUE(r->Get(0, 1).is_null());
}

TEST(CsvTest, CustomSeparator) {
  CsvOptions opt;
  opt.separator = ';';
  auto r = ReadCsvString("a;b\n1;2\n", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 1), Value(2));
}

TEST(CsvTest, CrLfLineEndings) {
  auto r = ReadCsvString("a,b\r\n1,2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1);
  EXPECT_EQ(r->Get(0, 1), Value(2));
}

TEST(CsvTest, RejectsRaggedRows) {
  auto r = ReadCsvString("a,b\n1\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvTest, RoundTrip) {
  auto r = ReadCsvString("name,price\n\"Hyatt, SF\",230\nWestin,NULL\n");
  ASSERT_TRUE(r.ok());
  std::string text = WriteCsvString(*r);
  auto r2 = ReadCsvString(text);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), r->num_rows());
  for (int i = 0; i < r->num_rows(); ++i) {
    for (int c = 0; c < r->num_columns(); ++c) {
      EXPECT_EQ(r->Get(i, c), r2->Get(i, c)) << i << "," << c;
    }
  }
}

TEST(CsvTest, FileRoundTrip) {
  auto r = ReadCsvString("a,b\n1,x\n");
  ASSERT_TRUE(r.ok());
  std::string path = testing::TempDir() + "/famtree_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*r, path).ok());
  auto r2 = ReadCsvFile(path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 1);
  EXPECT_EQ(r2->Get(0, 1), Value("x"));
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto r = ReadCsvFile("/nonexistent/path/file.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, BlankLinesSkipped) {
  auto r = ReadCsvString("a,b\n1,2\n\n3,4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2);
}

// A bare \r inside a field used to be written unquoted; reading the output
// back then split the record at the \r and changed the relation.
TEST(CsvTest, BareCarriageReturnFieldRoundTrips) {
  RelationBuilder b({"a", "b"});
  b.AddRow({Value("pre\rpost"), Value(1)});
  Relation rel = std::move(b.Build()).value();
  std::string text = WriteCsvString(rel);
  auto r2 = ReadCsvString(text);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->num_rows(), 1);
  EXPECT_EQ(r2->Get(0, 0), Value("pre\rpost"));
  EXPECT_EQ(r2->Get(0, 1), Value(1));
}

TEST(CsvTest, CrLfFieldRoundTrips) {
  RelationBuilder b({"a", "b"});
  b.AddRow({Value("line1\r\nline2"), Value("x")});
  Relation rel = std::move(b.Build()).value();
  auto r2 = ReadCsvString(WriteCsvString(rel));
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->num_rows(), 1);
  EXPECT_EQ(r2->Get(0, 0), Value("line1\r\nline2"));
}

// Quoting marks a field as literal text: "" is the empty string (an
// unquoted empty field stays null) and "NULL" is the three-letter string
// (an unquoted NULL stays null).
TEST(CsvTest, QuotedEmptyIsEmptyStringNotNull) {
  auto r = ReadCsvString("a,b\n\"\",\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0), Value(""));
  EXPECT_TRUE(r->Get(0, 1).is_null());
}

TEST(CsvTest, QuotedNullLiteralIsStringNotNull) {
  auto r = ReadCsvString("a,b\n\"NULL\",NULL\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0), Value("NULL"));
  EXPECT_TRUE(r->Get(0, 1).is_null());
}

TEST(CsvTest, QuotedFieldSkipsTypeInference) {
  auto r = ReadCsvString("a,b\n\"123\",123\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Get(0, 0), Value("123"));
  EXPECT_EQ(r->Get(0, 1), Value(123));
}

TEST(CsvTest, EmptyAndNullLiteralStringsRoundTrip) {
  RelationBuilder b({"a", "b", "c"});
  b.AddRow({Value(""), Value("NULL"), Value::Null()});
  b.AddRow({Value("123"), Value("1.5"), Value("-0")});
  Relation rel = std::move(b.Build()).value();
  auto r2 = ReadCsvString(WriteCsvString(rel));
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->num_rows(), 2);
  EXPECT_EQ(r2->Get(0, 0), Value(""));
  EXPECT_EQ(r2->Get(0, 1), Value("NULL"));
  EXPECT_TRUE(r2->Get(0, 2).is_null());
  EXPECT_EQ(r2->Get(1, 0), Value("123"));
  EXPECT_EQ(r2->Get(1, 1), Value("1.5"));
  EXPECT_EQ(r2->Get(1, 2), Value("-0"));
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto r = ReadCsvString("a,b\n\"unclosed,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Also when the quote opens in the header line.
  EXPECT_FALSE(ReadCsvString("a,\"b\n").ok());
}

TEST(CsvTest, QuotedBlankLineIsARecord) {
  auto r = ReadCsvString("a\nx\n\"\"\ny\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 3);
  EXPECT_EQ(r->Get(1, 0), Value(""));
}

/// Bitwise cell equality: NaN equals NaN, and 1 differs from 1.0.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDouble && std::isnan(a.as_double())) {
    return std::isnan(b.as_double());
  }
  return a == b;
}

// Type inference pinned cell by cell. The expected Values were recorded by
// reading each field at a commit before the field-view tokenizer and its
// stack-buffer number parse, so any fast path must keep these exactly:
// ints through from_chars on the trimmed text, everything else strtod.
TEST(CsvTest, TypeInferenceGoldens) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, Value> goldens[] = {
      {"\" 12 \"", Value(" 12 ")},
      {" 12 ", Value(12)},
      {"+5", Value(5.0)},
      {"-0", Value(0)},
      {"1e3", Value(1000.0)},
      {"0x1p3", Value(8.0)},
      {"nan", Value(std::nan(""))},
      {"-inf", Value(-inf)},
      {"infinity", Value(inf)},
      {"9223372036854775807", Value(int64_t{9223372036854775807})},
      {"9223372036854775808", Value(9223372036854775808.0)},
      {"12abc", Value("12abc")},
      {"  ", Value("  ")},
      {"", Value::Null()},
      {"NULL", Value::Null()},
      {"\"123\"", Value("123")},
      {"\"\"", Value("")},
      {"3.14159265358979323846", Value(3.141592653589793)},
      {"a field longer than 15 bytes", Value("a field longer than 15 bytes")},
      {"-12345678901234567", Value(int64_t{-12345678901234567})},
      {"123456789012345678", Value(int64_t{123456789012345678})},
      {"1234567890123456789", Value(int64_t{1234567890123456789})},
      {"-9223372036854775809", Value(-9223372036854775808.0)},
      {"0x10", Value(16.0)},
      {"0x", Value("0x")},
      {".5", Value(0.5)},
      {"1.", Value(1.0)},
      {"-", Value("-")},
      {"+-1", Value("+-1")},
      {"1_000", Value("1_000")},
      {"nan(abc)", Value(std::nan(""))},
      {"1e400", Value(inf)},
      {"\t7", Value(7)},
      {"007", Value(7)},
  };
  CsvOptions options;
  options.has_header = false;
  for (const auto& [field, want] : goldens) {
    // A leading key column keeps blank-looking fields off the blank-line
    // rule.
    auto r = ReadCsvString(std::string("k,") + field + "\n", options);
    ASSERT_TRUE(r.ok()) << field;
    EXPECT_TRUE(SameCell(r->Get(0, 1), want))
        << "[" << field << "] read as " << r->Get(0, 1).ToString() << " ("
        << ValueTypeName(r->Get(0, 1).type()) << ")";
  }
}

void ExpectSameRelation(const Relation& got, const Relation& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (int c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(got.schema().name(c), want.schema().name(c));
    EXPECT_EQ(got.schema().column(c).type, want.schema().column(c).type);
  }
  for (int i = 0; i < want.num_rows(); ++i) {
    for (int c = 0; c < want.num_columns(); ++c) {
      ASSERT_TRUE(SameCell(got.Get(i, c), want.Get(i, c))) << i << "," << c;
    }
  }
  EXPECT_EQ(RelationFingerprint(got), RelationFingerprint(want));
}

// The whole-file readers feed kCsvIoChunkBytes at a time. This input puts
// an unquoted number across the first cut, a doubled quote across the
// second and a CRLF pair across the third; every cell must read as in one
// piece.
TEST(CsvTest, FieldsStraddleTheReaderChunkCuts) {
  std::string text = "id,v,s\n";
  RelationBuilder want({"id", "v", "s"});
  int id = 0;
  auto add = [&](const std::string& line, std::vector<Value> row) {
    text += line;
    want.AddRow(std::move(row));
  };
  // Ordinary rows, then one padding row that ends exactly at `target`.
  auto pad_to = [&](size_t target) {
    while (target - text.size() > 64) {
      ++id;
      add(std::to_string(id) + ",2,abc\n",
          {Value(id), Value(2), Value("abc")});
    }
    std::string pad(target - text.size() - 5, 'x');
    add("0,0," + pad + "\n", {Value(0), Value(0), Value(pad)});
  };
  const size_t cut = kCsvIoChunkBytes;
  pad_to(cut - 5);  // "7,123|456,a": the cut splits the number
  add("7,123456,a\n", {Value(7), Value(123456), Value("a")});
  pad_to(2 * cut - 8);  // 8,5,"ab"|"cd": the cut splits the doubled quote
  add("8,5,\"ab\"\"cd\"\n", {Value(8), Value(5), Value("ab\"cd")});
  pad_to(3 * cut - 6);  // "9,6,c\r|\n": the cut splits the CRLF pair
  add("9,6,c\r\n", {Value(9), Value(6), Value("c")});
  add("10,7,d\n", {Value(10), Value(7), Value("d")});
  ASSERT_EQ(text.substr(cut - 3, 3), "123");
  ASSERT_EQ(text.substr(2 * cut - 1, 2), "\"\"");
  ASSERT_EQ(text.substr(3 * cut - 1, 2), "\r\n");
  Relation expected = std::move(want.Build()).value();

  auto from_string = ReadCsvString(text);
  ASSERT_TRUE(from_string.ok()) << from_string.status().ToString();
  ExpectSameRelation(*from_string, expected);

  std::string path = testing::TempDir() + "/famtree_csv_straddle.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }
  auto from_file = ReadCsvFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ExpectSameRelation(*from_file, expected);
}

/// Random text over the dialect's corners: quotes, doubled quotes, quoted
/// separators and newlines, CRLF and bare CR terminators, blank lines, the
/// null literal, and every number form type inference knows.
std::string RandomDialectText(std::mt19937_64& rng) {
  static const char* kTokens[] = {
      "1", "-0", "+5", "2.5", "1e3", "0x1p3", "nan", "-inf", "inf",
      "9007199254740992", "9007199254740993", "9007199254740992.0",
      "9223372036854775808", "abc", "NULL", "", " 12 ", "12abc", "  ", "0",
      "-0.0", "x y", "a field longer than 15 bytes", "\"q\"",
      "\"a\"\"b\"", "\"\"", "\"NULL\"", "\"1\"", "a\"b\"c",
      "\"x,y\"", "\"line\nbreak\"", "\"cr\rx\"", "\"\"\"\""};
  const int num_tokens = sizeof(kTokens) / sizeof(kTokens[0]);
  int cols = 1 + static_cast<int>(rng() % 4);
  int rows = static_cast<int>(rng() % 40);
  bool crlf = rng() % 3 == 0;
  std::string text;
  for (int c = 0; c < cols; ++c) text += (c ? ",h" : "h") + std::to_string(c);
  text += crlf ? "\r\n" : "\n";
  for (int r = 0; r < rows; ++r) {
    if (rng() % 13 == 0) text += crlf ? "\r\n" : "\n";  // a blank line
    for (int c = 0; c < cols; ++c) {
      if (c) text += ',';
      if (rng() % 4 == 0) {
        text += std::to_string(static_cast<int>(rng() % 50) - 10);
      } else {
        text += kTokens[rng() % num_tokens];
      }
    }
    text += crlf ? "\r\n" : (rng() % 7 == 0 ? "\r" : "\n");
  }
  if (rng() % 2 == 0 && !text.empty()) text.pop_back();
  return text;
}

// The whole-file reader and the out-of-core ingester share one tokenizer
// and one decoder; at any chunk size they must read the same relation. The
// file ingest reuses one read buffer, so a field view kept past a chunk
// cut would read the next chunk's bytes.
TEST(CsvTest, ReadCsvStringMatchesIngestAtEveryChunkSize) {
  std::mt19937_64 rng(20);
  std::string path = testing::TempDir() + "/famtree_csv_dialect.csv";
  for (int round = 0; round < 150; ++round) {
    std::string text = RandomDialectText(rng);
    auto read = ReadCsvString(text);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
      std::fclose(f);
    }
    for (int run = 0; run < 10; ++run) {
      const size_t chunk = std::array<size_t, 5>{1, 2, 3, 7, 4096}[run % 5];
      IngestOptions options;
      options.io_chunk_bytes = chunk;
      options.shard_rows = 5;
      auto ingested =
          run < 5 ? ShardedEncodedRelation::IngestCsvString(text, options)
                  : ShardedEncodedRelation::IngestCsvFile(path, options);
      ASSERT_EQ(ingested.ok(), read.ok()) << round << " run " << run;
      if (!read.ok()) {
        EXPECT_EQ(ingested.status().message(), read.status().message());
        continue;
      }
      const ShardedEncodedRelation& sharded = **ingested;
      ASSERT_EQ(sharded.num_rows(), read->num_rows()) << round;
      ASSERT_EQ(sharded.num_columns(), read->num_columns()) << round;
      for (int c = 0; c < read->num_columns(); ++c) {
        EXPECT_EQ(sharded.schema().name(c), read->schema().name(c));
        EXPECT_EQ(sharded.schema().column(c).type,
                  read->schema().column(c).type)
            << round << " col " << c;
      }
      EXPECT_EQ(sharded.fingerprint(), RelationFingerprint(*read)) << round;
      // Materialized cells are dictionary representatives: equal under
      // Value's operator== (1 reads back for 1.0), NaN for NaN.
      auto cells = sharded.MaterializeRelation();
      ASSERT_TRUE(cells.ok());
      for (int i = 0; i < read->num_rows(); ++i) {
        for (int c = 0; c < read->num_columns(); ++c) {
          const Value& got = cells->Get(i, c);
          const Value& want = read->Get(i, c);
          ASSERT_TRUE(got == want || SameCell(got, want))
              << round << " run " << run << " cell " << i << "," << c;
        }
      }
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace famtree
