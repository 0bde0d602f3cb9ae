// Microbench of the dictionary-encoding layer on the synthetic hotel
// workload: each primitive of the discovery hot path (grouping, distinct
// counting, partition building, partition product, g3 error) timed on the
// Value-based oracle path and on the encoded backend, with an exact
// result comparison. Exits nonzero on any mismatch — the encoding contract
// is code equality iff Value equality, so every primitive must agree
// result-for-result, not just statistically. Writes BENCH_encoding.json.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "relation/encoded_relation.h"
#include "relation/partition.h"

namespace famtree {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Row {
  std::string name;
  double value_ms = 0;
  double encoded_ms = 0;
  bool identical = true;
  double speedup() const {
    return encoded_ms > 0 ? value_ms / encoded_ms : 0.0;
  }
};

void PrintRow(const Row& row) {
  std::printf("| %-28s | %9.2f | %9.2f | %7.2fx | %-9s |\n", row.name.c_str(),
              row.value_ms, row.encoded_ms, row.speedup(),
              row.identical ? "identical" : "MISMATCH");
}

}  // namespace

int Run() {
  HotelConfig config;
  config.num_hotels = 12000;
  config.rows_per_hotel = 3;
  config.variation_rate = 0.3;
  config.error_rate = 0.02;
  GeneratedData data = GenerateHotels(config);
  const Relation& hotels = data.relation;
  std::printf("hotel relation: %d rows x %d columns\n\n", hotels.num_rows(),
              hotels.num_columns());

  auto start = std::chrono::steady_clock::now();
  EncodedRelation encoded(hotels);
  double encode_ms = MillisSince(start);
  std::printf("one-time encode: %.2f ms (amortized over every primitive "
              "below)\n\n",
              encode_ms);
  std::printf("| %-28s | value ms  | encode ms | speedup | result    |\n",
              "primitive");
  std::printf(
      "|------------------------------|-----------|-----------|---------|"
      "-----------|\n");

  std::vector<Row> rows;
  const AttrSet pair01 = AttrSet::Single(0).With(1);
  const AttrSet triple = pair01.With(2);

  {  // Grouping: the substrate of every Value-based discovery primitive.
    Row row{"GroupBy {0,1}"};
    start = std::chrono::steady_clock::now();
    auto oracle = hotels.GroupBy(pair01);
    row.value_ms = MillisSince(start);
    start = std::chrono::steady_clock::now();
    auto fast = encoded.GroupBy(pair01);
    row.encoded_ms = MillisSince(start);
    row.identical = oracle == fast;  // content and group order
    PrintRow(row);
    rows.push_back(row);
  }

  {  // Distinct counting: CORDS' strength measure per column pair.
    Row row{"CountDistinct {0,1,2}"};
    start = std::chrono::steady_clock::now();
    int oracle = hotels.CountDistinct(triple);
    row.value_ms = MillisSince(start);
    start = std::chrono::steady_clock::now();
    int fast = encoded.CountDistinct(triple);
    row.encoded_ms = MillisSince(start);
    row.identical = oracle == fast;
    PrintRow(row);
    rows.push_back(row);
  }

  {  // Single-attribute partition: TANE's level-1 leaves.
    Row row{"ForAttribute all cols"};
    std::vector<StrippedPartition> oracle, fast;
    start = std::chrono::steady_clock::now();
    for (int a = 0; a < hotels.num_columns(); ++a) {
      oracle.push_back(StrippedPartition::ForAttribute(hotels, a));
    }
    row.value_ms = MillisSince(start);
    start = std::chrono::steady_clock::now();
    for (int a = 0; a < hotels.num_columns(); ++a) {
      fast.push_back(StrippedPartition::ForAttribute(encoded, a));
    }
    row.encoded_ms = MillisSince(start);
    for (int a = 0; a < hotels.num_columns(); ++a) {
      row.identical =
          row.identical && oracle[a].classes() == fast[a].classes();
    }
    PrintRow(row);
    rows.push_back(row);
  }

  {  // Multi-attribute partition.
    Row row{"ForAttributeSet {0,1,2}"};
    start = std::chrono::steady_clock::now();
    StrippedPartition oracle = StrippedPartition::ForAttributeSet(hotels,
                                                                  triple);
    row.value_ms = MillisSince(start);
    start = std::chrono::steady_clock::now();
    StrippedPartition fast = StrippedPartition::ForAttributeSet(encoded,
                                                                triple);
    row.encoded_ms = MillisSince(start);
    row.identical = oracle.classes() == fast.classes();
    PrintRow(row);
    rows.push_back(row);
  }

  {  // Partition product on the flat CSR layout (one code path; timed once
     // per input substrate to show the build cost dominates, not the
     // product).
    Row row{"Product pi(0) * pi(1)"};
    StrippedPartition a0 = StrippedPartition::ForAttribute(hotels, 0);
    StrippedPartition a1 = StrippedPartition::ForAttribute(hotels, 1);
    start = std::chrono::steady_clock::now();
    StrippedPartition oracle = a0.Product(a1, hotels.num_rows());
    row.value_ms = MillisSince(start);
    StrippedPartition e0 = StrippedPartition::ForAttribute(encoded, 0);
    StrippedPartition e1 = StrippedPartition::ForAttribute(encoded, 1);
    start = std::chrono::steady_clock::now();
    StrippedPartition fast = e0.Product(e1, hotels.num_rows());
    row.encoded_ms = MillisSince(start);
    row.identical = oracle.classes() == fast.classes();
    PrintRow(row);
    rows.push_back(row);
  }

  {  // g3 error: the inner loop of approximate TANE's validity tests.
    Row row{"FdError pi(0), rhs=3"};
    StrippedPartition pli = StrippedPartition::ForAttribute(encoded, 0);
    start = std::chrono::steady_clock::now();
    double oracle = pli.FdError(hotels, AttrSet::Single(3));
    row.value_ms = MillisSince(start);
    start = std::chrono::steady_clock::now();
    double fast = pli.FdError(encoded.codes(3), encoded.dict_size(3));
    row.encoded_ms = MillisSince(start);
    row.identical = oracle == fast;  // bit-identical doubles
    PrintRow(row);
    rows.push_back(row);
  }

  bool all_identical = true;
  for (const Row& r : rows) all_identical = all_identical && r.identical;

  std::FILE* f = std::fopen("BENCH_encoding.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"workload\": {\"rows\": %d, \"columns\": %d},\n"
                 "  \"encode_ms\": %.3f,\n  \"primitives\": [\n",
                 hotels.num_rows(), hotels.num_columns(), encode_ms);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value_ms\": %.3f, "
                   "\"encoded_ms\": %.3f, \"speedup\": %.3f, "
                   "\"identical\": %s}%s\n",
                   rows[i].name.c_str(), rows[i].value_ms, rows[i].encoded_ms,
                   rows[i].speedup(), rows[i].identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  std::printf("\nwrote BENCH_encoding.json\n");
  if (!all_identical) {
    std::printf("FAIL: an encoded primitive deviated from the Value-based "
                "oracle\n");
    return 1;
  }
  return 0;
}

}  // namespace famtree

int main() { return famtree::Run(); }
