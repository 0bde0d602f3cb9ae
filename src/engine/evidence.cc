#include "engine/evidence.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

namespace famtree {

namespace {

/// Dense per-chunk accumulation for one-lane words up to this width; wider
/// configs hash whole lane tuples. 2^16 slots keep a chunk's count array
/// L2-sized while covering every paper-scale configuration.
constexpr int kDenseBits = 16;

/// Parallel chunks: up to 8 with a pool, but no more than the walk's
/// `pairs` can fill — about one per 2^bits (a dense accumulator zeroes and
/// scans that many slots), so a small delta pays for one. More chunks than
/// workers is fine — each chunk's accumulator merges commutatively, so the
/// chunk count only bounds parallelism, never changes the result.
int NumChunks(ThreadPool* pool, int64_t pairs, int bits) {
  if (pool == nullptr) return 1;
  return static_cast<int>(
      std::clamp<int64_t>(pairs >> std::min(bits, kDenseBits), 1, 8));
}

/// The smallest j with d <= thresholds[j] (ascending), else
/// thresholds.size(); a NaN distance passes no threshold.
uint32_t BucketFromDistance(double d, const std::vector<double>& thresholds) {
  if (std::isnan(d)) return static_cast<uint32_t>(thresholds.size());
  return static_cast<uint32_t>(
      std::lower_bound(thresholds.begin(), thresholds.end(), d) -
      thresholds.begin());
}

/// Word order: lexicographic over the lanes, lane 0 first.
int CompareLanes(const uint64_t* a, const uint64_t* b, int lanes) {
  for (int l = 0; l < lanes; ++l) {
    if (a[l] != b[l]) return a[l] < b[l] ? -1 : 1;
  }
  return 0;
}

int ColumnBits(const EvidenceColumn& c) {
  int bits = c.cmp == EvidenceColumn::Cmp::kEquality ? 1
             : c.cmp == EvidenceColumn::Cmp::kOrder  ? 2
                                                     : 0;
  if (c.metric != nullptr && !c.thresholds.empty()) {
    bits += std::bit_width(c.thresholds.size());
  }
  return bits;
}

bool IsNan(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.as_double());
}

/// Value's order with NaN placed: a NaN sorts after every other number and
/// before every string (where operator< ranks it by type), and NaNs tie.
bool RankLess(const Value& x, const Value& y) {
  const bool nx = IsNan(x), ny = IsNan(y);
  if (!nx && !ny) return x < y;
  auto band = [](const Value& v) {
    return v.is_null() ? 0 : v.is_numeric() ? 1 : 2;
  };
  if (band(x) != band(y)) return band(x) < band(y);
  return !nx && ny;
}

/// Per-code ranks of columns `a` and `b` on one scale: ascending under
/// RankLess, values neither before the other tied. With b == a only
/// `rank_a` is filled. When a NaN is present, `nan_rank` is its rank and
/// `numeric_lo` the lowest numeric rank: a NaN against a rank in
/// [numeric_lo, nan_rank] is a NaN against a number, which Value leaves
/// unordered. Returns whether a NaN is present.
bool OrderRanks(const EncodedRelation& enc, int a, int b,
                std::vector<uint32_t>* rank_a, std::vector<uint32_t>* rank_b,
                uint32_t* nan_rank, uint32_t* numeric_lo) {
  std::vector<std::pair<const Value*, uint32_t*>> entries;
  auto add = [&](int col, std::vector<uint32_t>* ranks) {
    ranks->assign(enc.dict_size(col), 0);
    for (int code = 0; code < enc.dict_size(col); ++code) {
      entries.emplace_back(&enc.Decode(col, static_cast<uint32_t>(code)),
                           &(*ranks)[code]);
    }
  };
  add(a, rank_a);
  if (b != a) add(b, rank_b);
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& x, const auto& y) {
                     return RankLess(*x.first, *y.first);
                   });
  bool has_nan = false, seen_numeric = false;
  uint32_t rank = 0;
  for (size_t k = 0; k < entries.size(); ++k) {
    const Value& v = *entries[k].first;
    if (k > 0 && RankLess(*entries[k - 1].first, v)) ++rank;
    *entries[k].second = rank;
    if (v.is_numeric() && !seen_numeric) {
      seen_numeric = true;
      *numeric_lo = rank;
    }
    if (IsNan(v)) {
      has_nan = true;
      *nan_rank = rank;
    }
  }
  return has_nan;
}

/// One chunk's evidence accumulator: a dense count array indexed by the
/// word for narrow one-lane configs, else an open-addressing table over
/// whole lane tuples. All folds (count sum, max, flag or) are commutative,
/// so any pair-to-chunk assignment yields the same merged multiset.
class Accumulator {
 public:
  Accumulator(int lanes, int bits, int tracked)
      : lanes_(lanes),
        tracked_(tracked),
        dense_(lanes == 1 && bits <= kDenseBits),
        key_(lanes) {
    if (dense_) {
      counts_.assign(size_t{1} << bits, 0);
      if (tracked_ > 0) {
        aggs_.assign((size_t{1} << bits) * tracked_, EvidenceSet::Aggregate{});
      }
    }
  }

  /// Adds a strip of `count` lane-major words; `td` holds their tracked
  /// distances in the kernel's per-slot layout (td[slot * count + k]).
  void AddStrip(const uint64_t* words, const double* td, int count) {
    if (dense_ && tracked_ == 0) {
      for (int k = 0; k < count; ++k) ++counts_[words[k]];
      return;
    }
    for (int k = 0; k < count; ++k) {
      size_t slot = words[k];
      if (!dense_) {
        for (int l = 0; l < lanes_; ++l) key_[l] = words[l * count + k];
        slot = SlotOf(key_.data());
      }
      ++counts_[slot];
      if (tracked_ > 0) Fold(&aggs_[slot * tracked_], td + k, count);
    }
  }

  /// Adds `count` pairs of one word with zero aggregates (the pruned
  /// build's synthesized word).
  void Add(const uint64_t* word, int64_t count) {
    counts_[dense_ ? word[0] : SlotOf(word)] += count;
  }

  /// Folds another chunk (same config) into this one.
  void Absorb(const Accumulator& other) {
    for (size_t e = 0; e < other.counts_.size(); ++e) {
      if (other.counts_[e] == 0) continue;
      size_t slot = dense_ ? e : SlotOf(&other.keys_[e * lanes_]);
      counts_[slot] += other.counts_[e];
      for (int t = 0; t < tracked_; ++t) {
        EvidenceSet::Aggregate& dst = aggs_[slot * tracked_ + t];
        const EvidenceSet::Aggregate& src = other.aggs_[e * tracked_ + t];
        dst.max_all = std::max(dst.max_all, src.max_all);
        dst.max_finite = std::max(dst.max_finite, src.max_finite);
        dst.saw_nonfinite = dst.saw_nonfinite || src.saw_nonfinite;
      }
    }
  }

  int64_t total() const {
    int64_t sum = 0;
    for (int64_t c : counts_) sum += c;
    return sum;
  }

  /// The distinct words in ascending order, with their counts and
  /// aggregates.
  void Export(std::vector<uint64_t>* lanes, std::vector<int64_t>* counts,
              std::vector<EvidenceSet::Aggregate>* aggs) const {
    std::vector<size_t> order;
    for (size_t e = 0; e < counts_.size(); ++e) {
      if (counts_[e] != 0) order.push_back(e);
    }
    if (!dense_) {
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return CompareLanes(&keys_[x * lanes_], &keys_[y * lanes_], lanes_) <
               0;
      });
    }
    lanes->reserve(order.size() * lanes_);
    counts->reserve(order.size());
    aggs->reserve(order.size() * tracked_);
    for (size_t e : order) {
      if (dense_) {
        lanes->push_back(e);
      } else {
        lanes->insert(lanes->end(), &keys_[e * lanes_],
                      &keys_[e * lanes_] + lanes_);
      }
      counts->push_back(counts_[e]);
      aggs->insert(aggs->end(), aggs_.begin() + e * tracked_,
                   aggs_.begin() + (e + 1) * tracked_);
    }
  }

 private:
  void Fold(EvidenceSet::Aggregate* a, const double* td, int stride) {
    for (int t = 0; t < tracked_; ++t) {
      double d = td[t * stride];
      // Mirrors the row-pair scan folds exactly: std::max never replaces the
      // accumulator with NaN, +inf is sticky, and max_finite only sees
      // finite distances.
      a[t].max_all = std::max(a[t].max_all, d);
      if (std::isfinite(d)) {
        a[t].max_finite = std::max(a[t].max_finite, d);
      } else {
        a[t].saw_nonfinite = true;
      }
    }
  }

  size_t Hash(const uint64_t* key) const {
    uint64_t h = 0;
    for (int l = 0; l < lanes_; ++l) {
      h = (h ^ key[l]) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }

  /// Entry of `key` in the sparse table, appended when new.
  size_t SlotOf(const uint64_t* key) {
    if (2 * (counts_.size() + 1) > index_.size()) Rehash();
    const size_t mask = index_.size() - 1;
    for (size_t h = Hash(key) & mask;; h = (h + 1) & mask) {
      const size_t e = index_[h];
      if (e == 0) {
        index_[h] = counts_.size() + 1;
        keys_.insert(keys_.end(), key, key + lanes_);
        counts_.push_back(0);
        aggs_.resize(aggs_.size() + tracked_);
        return counts_.size() - 1;
      }
      if (std::equal(key, key + lanes_, &keys_[(e - 1) * lanes_])) {
        return e - 1;
      }
    }
  }

  void Rehash() {
    std::vector<size_t> index(std::max<size_t>(64, 2 * index_.size()), 0);
    const size_t mask = index.size() - 1;
    for (size_t e = 0; e < counts_.size(); ++e) {
      size_t h = Hash(&keys_[e * lanes_]) & mask;
      while (index[h] != 0) h = (h + 1) & mask;
      index[h] = e + 1;
    }
    index_.swap(index);
  }

  int lanes_;
  int tracked_;
  bool dense_;
  std::vector<uint64_t> key_;  // one word's lanes, gathered from a strip
  std::vector<int64_t> counts_;
  std::vector<EvidenceSet::Aggregate> aggs_;
  // Sparse only: entry e's lanes at keys_[e * lanes_], and the
  // open-addressing index (entry + 1, 0 empty).
  std::vector<uint64_t> keys_;
  std::vector<size_t> index_;
};

}  // namespace

int EvidenceWordBits(const std::vector<EvidenceColumn>& columns) {
  int bits = 0;
  for (const EvidenceColumn& c : columns) bits += ColumnBits(c);
  return bits;
}

Result<std::unique_ptr<PairComparator>> PairComparator::Make(
    const EncodedRelation& encoded, std::vector<EvidenceColumn> columns,
    ThreadPool* pool, int64_t max_table_entries) {
  std::unique_ptr<PairComparator> pc(new PairComparator());
  pc->num_bits_ = EvidenceWordBits(columns);
  pc->base_lanes_.assign(1, 0);
  const int n = encoded.num_rows();
  int lane = 0, shift = 0;
  for (const EvidenceColumn& spec : columns) {
    if (spec.attr < 0 || spec.attr >= encoded.num_columns()) {
      return Status::Invalid("evidence column out of schema");
    }
    if (spec.track_max && spec.metric == nullptr) {
      return Status::Invalid("track_max requires a metric");
    }
    if (spec.b_attr >= 0 && (spec.cmp != EvidenceColumn::Cmp::kOrder ||
                             spec.b_attr >= encoded.num_columns())) {
      return Status::Invalid(
          "a second evidence column needs an order facet in schema");
    }
    // The column's facets stay together in one lane.
    const int width = ColumnBits(spec);
    if (width > 64) return Status::Invalid("evidence facet exceeds a lane");
    if (shift + width > 64) {
      ++lane;
      shift = 0;
      pc->base_lanes_.push_back(0);
    }
    Col col;
    EvidenceSet::ColumnLayout lay;
    lay.attr = spec.attr;
    lay.b_attr = spec.b_attr;
    lay.cmp = spec.cmp;
    col.lane = lay.lane = lane;
    col.codes = encoded.codes(spec.attr).data();
    col.cmp = spec.cmp;
    if (spec.cmp == EvidenceColumn::Cmp::kEquality) {
      col.cmp_shift = lay.cmp_shift = shift;
      shift += 1;
      // All-distinct column: every pair is unequal, the facet is a
      // constant bit.
      col.const_unequal = n > 1 && encoded.dict_size(spec.attr) == n;
      if (col.const_unequal) {
        pc->base_lanes_[lane] |= uint64_t{1} << col.cmp_shift;
      }
    } else if (spec.cmp == EvidenceColumn::Cmp::kOrder) {
      col.cmp_shift = lay.cmp_shift = shift;
      shift += 2;
      const int b = spec.b_attr >= 0 ? spec.b_attr : spec.attr;
      std::vector<uint32_t> rank_a, rank_b;
      col.unordered = OrderRanks(encoded, spec.attr, b, &rank_a, &rank_b,
                                 &col.nan_rank, &col.numeric_lo);
      auto per_row = [&](int attr, const std::vector<uint32_t>& ranks,
                         std::vector<uint32_t>* out) {
        const std::vector<uint32_t>& codes = encoded.codes(attr);
        out->resize(n);
        for (int r = 0; r < n; ++r) (*out)[r] = ranks[codes[r]];
      };
      per_row(spec.attr, rank_a, &col.row_ranks);
      if (b != spec.attr) per_row(b, rank_b, &col.b_row_ranks);
    }
    bool bucketed = spec.metric != nullptr && !spec.thresholds.empty();
    if (spec.track_max) {
      col.track_slot = lay.track_slot = pc->num_tracked_++;
      col.dist = spec.table;
      if (col.dist == nullptr) {
        col.owned_dist = std::make_unique<CodeDistanceTable>(
            encoded, spec.attr, spec.metric, pool, max_table_entries);
        col.dist = col.owned_dist.get();
      }
      if (bucketed) col.thresholds = spec.thresholds;
    } else if (bucketed) {
      if (spec.table != nullptr) {
        // An exact table is already on hand — bucket from it instead of
        // filling a second memo.
        col.dist = spec.table;
        col.thresholds = spec.thresholds;
      } else {
        col.owned_bucket = std::make_unique<CodeBucketTable>(
            encoded, spec.attr, spec.metric, spec.thresholds, pool,
            max_table_entries);
        col.bucket = col.owned_bucket.get();
      }
    }
    if (bucketed) {
      col.bucket_shift = lay.bucket_shift = shift;
      lay.num_thresholds = static_cast<int>(spec.thresholds.size());
      lay.bucket_bits = std::bit_width(spec.thresholds.size());
      shift += lay.bucket_bits;
    }
    pc->cols_.push_back(std::move(col));
    pc->layout_.push_back(lay);
  }
  // Each order facet's mirror: the facet comparing the same columns the
  // other way round.
  for (EvidenceSet::ColumnLayout& c : pc->layout_) {
    if (c.cmp != EvidenceColumn::Cmp::kOrder) continue;
    const int b = c.b_attr >= 0 ? c.b_attr : c.attr;
    for (size_t m = 0; m < pc->layout_.size() && c.mirror < 0; ++m) {
      const EvidenceSet::ColumnLayout& o = pc->layout_[m];
      if (o.cmp == EvidenceColumn::Cmp::kOrder && o.attr == b &&
          (o.b_attr >= 0 ? o.b_attr : o.attr) == c.attr) {
        c.mirror = static_cast<int>(m);
      }
    }
    if (c.mirror < 0) {
      return Status::Invalid(
          "a two-column order facet needs its mirror facet");
    }
  }
  return pc;
}

template <bool kOneLane>
[[gnu::always_inline]] inline void PairComparator::Fill(
    int i, int j0, const int* partners, int count, uint64_t* words,
    double* tracked_dists) const {
  uint32_t gathered[kStripRows];
  uint32_t buckets[kStripRows];
  double dists[kStripRows];
  const int lanes = kOneLane ? 1 : static_cast<int>(base_lanes_.size());
  for (int k0 = 0; k0 < count; k0 += kStripRows) {
    const int m = std::min(kStripRows, count - k0);
    for (int l = 0; l < lanes; ++l) {
      uint64_t* w = words + l * count + k0;
      std::fill(w, w + m, base_lanes_[l]);
    }
    // The partners' entries of one per-row array: a slice of it, or
    // gathered from the partner list.
    auto partner_values = [&](const uint32_t* per_row) -> const uint32_t* {
      if (partners == nullptr) return per_row + j0 + k0;
      for (int k = 0; k < m; ++k) gathered[k] = per_row[partners[k0 + k]];
      return gathered;
    };
    for (const Col& c : cols_) {
      uint64_t* w = words + (kOneLane ? 0 : c.lane * count) + k0;
      const uint32_t a = c.codes[i];
      const uint32_t* b = nullptr;
      if (c.cmp == EvidenceColumn::Cmp::kEquality && !c.const_unequal) {
        b = partner_values(c.codes);
        for (int k = 0; k < m; ++k) {
          w[k] |= static_cast<uint64_t>(b[k] != a) << c.cmp_shift;
        }
      } else if (c.cmp == EvidenceColumn::Cmp::kOrder) {
        // Both sides rank on one scale, equal values tied: 0 equal, 1 less,
        // 2 greater; a NaN against a number (or a NaN) reads 3.
        const uint32_t ra = c.row_ranks[i];
        const uint32_t* rb = partner_values(
            c.b_row_ranks.empty() ? c.row_ranks.data() : c.b_row_ranks.data());
        for (int k = 0; k < m; ++k) {
          w[k] |= (static_cast<uint64_t>(ra < rb[k]) |
                   static_cast<uint64_t>(ra > rb[k]) << 1)
                  << c.cmp_shift;
        }
        if (c.unordered) {
          const uint32_t nan = c.nan_rank, lo = c.numeric_lo;
          const uint32_t span = nan - lo;
          const bool a_numeric = ra - lo <= span;
          for (int k = 0; k < m; ++k) {
            const bool unordered =
                (ra == nan || rb[k] == nan) && a_numeric && rb[k] - lo <= span;
            w[k] |= static_cast<uint64_t>(unordered) * 3 << c.cmp_shift;
          }
        }
      }
      double* d = c.track_slot >= 0 && tracked_dists != nullptr
                      ? tracked_dists + c.track_slot * count + k0
                      : nullptr;
      if (c.dist != nullptr && (d != nullptr || !c.thresholds.empty())) {
        if (b == nullptr) b = partner_values(c.codes);
        if (d == nullptr) d = dists;
        c.dist->Distances(a, b, m, d);
        if (!c.thresholds.empty()) {
          for (int k = 0; k < m; ++k) {
            w[k] |= static_cast<uint64_t>(BucketFromDistance(d[k],
                                                             c.thresholds))
                    << c.bucket_shift;
          }
        }
      } else if (c.bucket != nullptr) {
        if (b == nullptr) b = partner_values(c.codes);
        c.bucket->Buckets(a, b, m, buckets);
        for (int k = 0; k < m; ++k) {
          w[k] |= static_cast<uint64_t>(buckets[k]) << c.bucket_shift;
        }
      }
    }
  }
}

[[gnu::noinline]] void PairComparator::FillLanes(
    int i, int j0, const int* partners, int count, uint64_t* words,
    double* tracked_dists) const {
  Fill<false>(i, j0, partners, count, words, tracked_dists);
}

// One-lane words get their own inlined copies of the kernel, and the
// one-partner case one more: with count fixed at 1 its block and column
// loops fold to straight-line code, which one-partner strips (Word,
// two-row clusters, a delta's last anchors) would otherwise pay loop setup
// for in every column.
void PairComparator::Strip(int i, int j0, int count, uint64_t* words,
                           double* tracked_dists) const {
  if (base_lanes_.size() > 1) {
    FillLanes(i, j0, nullptr, count, words, tracked_dists);
  } else if (count == 1) {
    Fill<true>(i, j0, nullptr, 1, words, tracked_dists);
  } else {
    Fill<true>(i, j0, nullptr, count, words, tracked_dists);
  }
}

void PairComparator::Strip(int i, const int* partners, int count,
                           uint64_t* words, double* tracked_dists) const {
  if (count == 1) {
    Strip(i, partners[0], 1, words, tracked_dists);
  } else if (base_lanes_.size() > 1) {
    FillLanes(i, 0, partners, count, words, tracked_dists);
  } else {
    Fill<true>(i, 0, partners, count, words, tracked_dists);
  }
}

void PairComparator::Word(int i, int j, uint64_t* lanes,
                          double* tracked_dists) const {
  Strip(i, j, 1, lanes, tracked_dists);
}

void EvidenceSet::MirrorOf(const uint64_t* lanes, uint64_t* out) const {
  std::copy(lanes, lanes + num_lanes_, out);
  for (const ColumnLayout& c : layout_) {
    if (c.cmp != EvidenceColumn::Cmp::kOrder) continue;
    uint64_t v = static_cast<uint64_t>(layout_[c.mirror].CmpOf(lanes));
    if (v == 1 || v == 2) v = 3 - v;
    out[c.lane] = (out[c.lane] & ~c.cmp_mask()) | (v << c.cmp_shift);
  }
}

size_t EvidenceSet::footprint_bytes() const {
  return sizeof(EvidenceSet) + lanes_.capacity() * sizeof(uint64_t) +
         counts_.capacity() * sizeof(int64_t) +
         aggs_.capacity() * sizeof(Aggregate) +
         layout_.capacity() * sizeof(ColumnLayout);
}

namespace {

/// One chunk's strip output: the lane-major words of up to `strip` partners
/// and, when
/// the config tracks distances, their per-slot distances.
class StripBuffers {
 public:
  StripBuffers(const PairComparator& pc, int strip)
      : words_(static_cast<size_t>(strip) * pc.num_lanes()),
        dists_(static_cast<size_t>(strip) * pc.num_tracked()) {}

  uint64_t* words() { return words_.data(); }
  double* dists() { return dists_.empty() ? nullptr : dists_.data(); }

 private:
  std::vector<uint64_t> words_;
  std::vector<double> dists_;
};

}  // namespace

/// Assembles EvidenceSets from the merged accumulators (friend of
/// EvidenceSet).
class EvidenceBuilder {
 public:
  static Result<std::shared_ptr<const EvidenceSet>> Build(
      const EncodedRelation& encoded,
      const std::vector<EvidenceColumn>& columns,
      const std::vector<std::pair<int, int>>* pairs, int delta_from_row,
      const EvidenceOptions& options) {
    // Delta and pair-list walks memoize a column's distances only when its
    // code-pair triangle has no more entries than the pairs they compare.
    int n = encoded.num_rows();
    int64_t all_pairs = static_cast<int64_t>(n) * (n - 1) / 2;
    int64_t old_pairs = static_cast<int64_t>(delta_from_row) *
                        (delta_from_row - 1) / 2;
    int64_t walk_pairs = pairs != nullptr
                             ? static_cast<int64_t>(pairs->size())
                             : all_pairs - old_pairs;
    int64_t max_entries = CodeDistanceTable::kDefaultMaxEntries;
    if (pairs != nullptr || delta_from_row > 0) {
      max_entries = std::min(max_entries, walk_pairs);
    }
    FAMTREE_ASSIGN_OR_RETURN(
        std::unique_ptr<PairComparator> pc,
        PairComparator::Make(encoded, columns, options.pool, max_entries));
    int chunks = NumChunks(options.pool, walk_pairs, pc->num_bits());
    int tracked = pc->num_tracked();
    int lanes = pc->num_lanes();
    std::vector<Accumulator> accs;
    accs.reserve(chunks);
    for (int c = 0; c < chunks; ++c) {
      accs.emplace_back(lanes, pc->num_bits(), tracked);
    }

    bool pruned = false;
    if (pairs != nullptr) {
      FAMTREE_RETURN_NOT_OK(
          PairListWalk(*pc, n, *pairs, chunks, options, &accs));
    } else if (options.prune_all_unequal && PruneEligible(columns)) {
      pruned = true;
      FAMTREE_RETURN_NOT_OK(PrunedWalk(*pc, encoded, columns, delta_from_row,
                                       chunks, options, &accs));
    } else {
      FAMTREE_RETURN_NOT_OK(
          DenseWalk(*pc, n, delta_from_row, chunks, options, &accs));
    }

    Accumulator& merged = accs[0];
    for (int c = 1; c < chunks; ++c) merged.Absorb(accs[c]);
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));

    auto set = std::make_shared<EvidenceSet>();
    set->layout_ = pc->layout();
    set->num_lanes_ = lanes;
    set->num_tracked_ = tracked;
    set->total_pairs_ = walk_pairs;
    if (pruned) {
      // Pairs disagreeing everywhere were never enumerated: their count is
      // the remainder, their word all-unequal, their aggregates zero.
      int64_t rest = set->total_pairs_ - merged.total();
      if (rest > 0) {
        std::vector<uint64_t> all_unequal(lanes, 0);
        for (const EvidenceSet::ColumnLayout& c : set->layout_) {
          all_unequal[c.lane] |= c.cmp_mask();
        }
        merged.Add(all_unequal.data(), rest);
      }
    }
    merged.Export(&set->lanes_, &set->counts_, &set->aggs_);
    // Charged only once fully built: a failed charge discards the set whole,
    // so no cache downstream ever sees a partial multiset.
    FAMTREE_RETURN_NOT_OK(RunContext::ChargeAlloc(
        options.context, set->footprint_bytes(), "evidence_set"));
    return std::shared_ptr<const EvidenceSet>(std::move(set));
  }

  /// Two-way merge of multisets over disjoint pair populations (the
  /// append's old/new pair partition). Both word lists are sorted
  /// ascending, so one linear pass merges them; every per-word fold is the
  /// same commutative fold the chunk merge uses, which is what makes
  /// base + delta bit-identical to a cold full build.
  static Result<std::shared_ptr<const EvidenceSet>> Merge(
      const EvidenceSet& base, const EvidenceSet& delta,
      const EvidenceOptions& options) {
    if (base.layout_ != delta.layout_ ||
        base.num_lanes_ != delta.num_lanes_ ||
        base.num_tracked_ != delta.num_tracked_) {
      return Status::Invalid("evidence merge: mismatched configs");
    }
    const int lanes = base.num_lanes_;
    const int tracked = base.num_tracked_;
    auto set = std::make_shared<EvidenceSet>();
    set->layout_ = base.layout_;
    set->num_lanes_ = lanes;
    set->num_tracked_ = tracked;
    set->total_pairs_ = base.total_pairs_ + delta.total_pairs_;
    const size_t nb = base.num_words(), nd = delta.num_words();
    set->lanes_.reserve((nb + nd) * lanes);
    set->counts_.reserve(nb + nd);
    set->aggs_.reserve((nb + nd) * tracked);
    auto take = [&](const EvidenceSet& src, size_t i, int64_t extra) {
      set->lanes_.insert(set->lanes_.end(), src.lanes(i), src.lanes(i) + lanes);
      set->counts_.push_back(src.counts_[i] + extra);
      set->aggs_.insert(set->aggs_.end(), src.aggs_.begin() + i * tracked,
                        src.aggs_.begin() + (i + 1) * tracked);
    };
    size_t bi = 0, di = 0;
    while (bi < nb || di < nd) {
      const int order = bi >= nb   ? 1
                        : di >= nd ? -1
                                   : CompareLanes(base.lanes(bi),
                                                  delta.lanes(di), lanes);
      if (order < 0) {
        take(base, bi++, 0);
      } else if (order > 0) {
        take(delta, di++, 0);
      } else {
        // Same word on both sides: sum counts, fold aggregates.
        take(base, bi, delta.counts_[di]);
        EvidenceSet::Aggregate* a = set->aggs_.data() + set->aggs_.size() -
                                    tracked;
        for (int t = 0; t < tracked; ++t) {
          const EvidenceSet::Aggregate& b = delta.aggs_[di * tracked + t];
          a[t].max_all = std::max(a[t].max_all, b.max_all);
          a[t].max_finite = std::max(a[t].max_finite, b.max_finite);
          a[t].saw_nonfinite = a[t].saw_nonfinite || b.saw_nonfinite;
        }
        ++bi;
        ++di;
      }
    }
    FAMTREE_RETURN_NOT_OK(RunContext::ChargeAlloc(
        options.context, set->footprint_bytes(), "evidence_set"));
    return std::shared_ptr<const EvidenceSet>(std::move(set));
  }

 private:
  static bool PruneEligible(const std::vector<EvidenceColumn>& columns) {
    for (const EvidenceColumn& c : columns) {
      if (c.cmp != EvidenceColumn::Cmp::kEquality) return false;
      if (c.metric != nullptr && !c.thresholds.empty()) return false;
    }
    return !columns.empty();
  }

  static Status DenseWalk(const PairComparator& pc, int n, int old_rows,
                          int chunks, const EvidenceOptions& options,
                          std::vector<Accumulator>* accs) {
    int tile = std::max(1, options.tile_rows);
    int num_tiles = (n + tile - 1) / tile;
    return ParallelFor(options.pool, chunks, [&](int64_t chunk) {
      Accumulator& acc = (*accs)[chunk];
      StripBuffers buf(pc, tile);
      for (int ti = static_cast<int>(chunk); ti < num_tiles; ti += chunks) {
        FAMTREE_RETURN_NOT_OK(
            RunContext::FaultPoint(options.context, "evidence_tile"));
        int i0 = ti * tile, i1 = std::min(n, i0 + tile);
        for (int tj = ti; tj < num_tiles; ++tj) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));
          int j0 = tj * tile, j1 = std::min(n, j0 + tile);
          if (j1 <= old_rows) continue;  // delta mode: j must be appended
          // One strip per anchor: its partners in this tile.
          for (int i = i0; i < i1; ++i) {
            int lo = std::max({j0, i + 1, old_rows});
            if (lo >= j1) continue;
            pc.Strip(i, lo, j1 - lo, buf.words(), buf.dists());
            acc.AddStrip(buf.words(), buf.dists(), j1 - lo);
          }
        }
      }
      return Status::OK();
    });
  }

  /// Pair-list walk: the pairs are grouped by anchor with a counting sort
  /// (the folds are commutative, so list order cannot show), and each
  /// anchor's partners form strips of at most kStripRows. A random sample
  /// thus gets strips of about pairs / rows partners instead of lone pairs;
  /// the grouping holds 4 bytes per pair and 8 per row while it runs.
  static Status PairListWalk(const PairComparator& pc, int n,
                             const std::vector<std::pair<int, int>>& pairs,
                             int chunks, const EvidenceOptions& options,
                             std::vector<Accumulator>* accs) {
    // offsets[i] counts, then ends, then (after placing backwards) starts
    // anchor i's partners; offsets[n] is the total.
    std::vector<int64_t> offsets(static_cast<size_t>(n) + 1, 0);
    for (const auto& [i, j] : pairs) ++offsets[i];
    for (int i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    std::vector<int> partners(pairs.size());
    for (const auto& [i, j] : pairs) partners[--offsets[i]] = j;
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));
    return ParallelFor(options.pool, chunks, [&](int64_t chunk) {
      Accumulator& acc = (*accs)[chunk];
      StripBuffers buf(pc, PairComparator::kStripRows);
      for (int i = static_cast<int>(chunk); i < n; i += chunks) {
        for (int64_t k0 = offsets[i]; k0 < offsets[i + 1];
             k0 += PairComparator::kStripRows) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));
          const int m = static_cast<int>(std::min<int64_t>(
              PairComparator::kStripRows, offsets[i + 1] - k0));
          pc.Strip(i, partners.data() + k0, m, buf.words(), buf.dists());
          acc.AddStrip(buf.words(), buf.dists(), m);
        }
      }
      return Status::OK();
    });
  }

  /// PLI-pruned walk: every pair agreeing on at least one column is
  /// enumerated exactly once — from the cluster of its first (in config
  /// order) agreeing column. Singleton-heavy columns contribute few or no
  /// clusters, short-circuiting their pairs straight to the synthesized
  /// all-unequal word.
  static Status PrunedWalk(const PairComparator& pc,
                           const EncodedRelation& encoded,
                           const std::vector<EvidenceColumn>& columns,
                           int old_rows, int chunks,
                           const EvidenceOptions& options,
                           std::vector<Accumulator>* accs) {
    int nc = static_cast<int>(columns.size());
    // Cluster source per column: borrowed pinned PLI leaves when a cache is
    // attached, the same counting sort locally otherwise.
    std::vector<std::shared_ptr<const StrippedPartition>> plis(nc);
    std::vector<const uint32_t*> codes(nc);
    for (int c = 0; c < nc; ++c) {
      int attr = columns[c].attr;
      codes[c] = encoded.codes(attr).data();
      if (options.pli != nullptr) {
        plis[c] = options.pli->Get(AttrSet::Single(attr), options.context);
      }
      if (plis[c] == nullptr) {
        plis[c] = std::make_shared<StrippedPartition>(
            StrippedPartition::ForAttribute(encoded, attr));
      }
    }
    // Flattened (column, class) work items, strided over chunks.
    std::vector<std::pair<int, int>> items;
    for (int c = 0; c < nc; ++c) {
      for (int cls = 0; cls < plis[c]->num_classes(); ++cls) {
        items.push_back({c, cls});
      }
    }
    int64_t num_items = static_cast<int64_t>(items.size());
    return ParallelFor(options.pool, chunks, [&](int64_t chunk) {
      Accumulator& acc = (*accs)[chunk];
      StripBuffers buf(pc, PairComparator::kStripRows);
      int partners[PairComparator::kStripRows];
      for (int64_t it = chunk; it < num_items; it += chunks) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));
        FAMTREE_RETURN_NOT_OK(
            RunContext::FaultPoint(options.context, "evidence_tile"));
        auto [c, cls] = items[it];
        const int* rows = plis[c]->class_begin(cls);
        int size = plis[c]->class_size(cls);
        // Delta mode: rows inside a cluster ascend, so the appended tail
        // starts at the first row >= old_rows; each pair keeps its larger
        // row in the tail.
        int y0 = old_rows > 0
                     ? static_cast<int>(
                           std::lower_bound(rows, rows + size, old_rows) -
                           rows)
                     : 1;
        if (y0 >= size) continue;  // delta mode: no appended row here
        // Anchor rows[x] strips over its later partners rows[y], y > x,
        // that only this column owns: the first (in config order) agreeing
        // column deduplicates a pair.
        for (int x = 0; x + 1 < size; ++x) {
          const int i = rows[x];
          int m = 0;
          auto flush = [&] {
            pc.Strip(i, partners, m, buf.words(), buf.dists());
            acc.AddStrip(buf.words(), buf.dists(), m);
            m = 0;
          };
          for (int y = std::max(y0, x + 1); y < size; ++y) {
            const int j = rows[y];
            bool first = true;
            for (int p = 0; p < c; ++p) {
              if (codes[p][i] == codes[p][j]) {
                first = false;
                break;
              }
            }
            if (!first) continue;
            partners[m++] = j;
            if (m == PairComparator::kStripRows) flush();
          }
          if (m > 0) flush();
        }
      }
      return Status::OK();
    });
  }
};

Result<std::shared_ptr<const EvidenceSet>> BuildEvidence(
    const EncodedRelation& encoded, const std::vector<EvidenceColumn>& columns,
    const EvidenceOptions& options) {
  return EvidenceBuilder::Build(encoded, columns, nullptr, 0, options);
}

Result<std::shared_ptr<const EvidenceSet>> BuildEvidenceForPairs(
    const EncodedRelation& encoded, const std::vector<EvidenceColumn>& columns,
    const std::vector<std::pair<int, int>>& pairs,
    const EvidenceOptions& options) {
  return EvidenceBuilder::Build(encoded, columns, &pairs, 0, options);
}

Result<std::shared_ptr<const EvidenceSet>> BuildEvidenceDelta(
    const EncodedRelation& encoded, const std::vector<EvidenceColumn>& columns,
    int old_rows, const EvidenceOptions& options) {
  if (old_rows < 0 || old_rows > encoded.num_rows()) {
    return Status::Invalid("evidence delta: old_rows out of range");
  }
  return EvidenceBuilder::Build(encoded, columns, nullptr, old_rows, options);
}

Result<std::shared_ptr<const EvidenceSet>> MergeEvidenceSets(
    const EvidenceSet& base, const EvidenceSet& delta,
    const EvidenceOptions& options) {
  return EvidenceBuilder::Merge(base, delta, options);
}

}  // namespace famtree
