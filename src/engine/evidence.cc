#include "engine/evidence.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>

namespace famtree {

namespace {

/// Dense per-chunk accumulation up to this word width; wider configs fall
/// back to hashed accumulation. 2^16 slots keep a chunk's count array
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

uint8_t BucketFromDistance(double d, const std::vector<double>& thresholds) {
  uint8_t j = 0;
  for (double t : thresholds) {
    if (d <= t) return j;
    ++j;
  }
  return j;
}

/// One chunk's evidence accumulator. All folds (count sum, max, flag or)
/// are commutative, so any pair-to-chunk assignment yields the same merged
/// multiset.
class Accumulator {
 public:
  Accumulator(int bits, int tracked) : tracked_(tracked) {
    dense_ = bits <= kDenseBits;
    if (dense_) {
      counts_.assign(size_t{1} << bits, 0);
      if (tracked_ > 0) {
        aggs_.assign((size_t{1} << bits) * tracked_, EvidenceSet::Aggregate{});
      }
    }
  }

  /// Adds a strip of `count` words; `td` holds their tracked distances in
  /// the kernel's per-slot layout (td[slot * count + k]).
  void AddStrip(const uint64_t* words, const double* td, int count) {
    if (tracked_ == 0 && dense_) {
      for (int k = 0; k < count; ++k) ++counts_[words[k]];
      return;
    }
    for (int k = 0; k < count; ++k) {
      size_t slot = words[k];
      if (!dense_) {
        auto [it, inserted] = index_.try_emplace(words[k], counts_.size());
        if (inserted) {
          counts_.push_back(0);
          aggs_.resize(aggs_.size() + tracked_);
        }
        slot = it->second;
      }
      ++counts_[slot];
      if (tracked_ > 0) Fold(&aggs_[slot * tracked_], td + k, count);
    }
  }

  /// Merges this chunk into the global word map.
  void MergeInto(
      std::map<uint64_t, std::pair<int64_t, std::vector<EvidenceSet::Aggregate>>>*
          merged) const {
    auto fold_entry = [&](uint64_t w, int64_t count,
                          const EvidenceSet::Aggregate* aggs) {
      auto [it, inserted] = merged->try_emplace(
          w, 0, std::vector<EvidenceSet::Aggregate>(tracked_));
      it->second.first += count;
      for (int t = 0; t < tracked_; ++t) {
        EvidenceSet::Aggregate& dst = it->second.second[t];
        const EvidenceSet::Aggregate& src = aggs[t];
        dst.max_all = std::max(dst.max_all, src.max_all);
        dst.max_finite = std::max(dst.max_finite, src.max_finite);
        dst.saw_nonfinite = dst.saw_nonfinite || src.saw_nonfinite;
      }
    };
    static const EvidenceSet::Aggregate kEmpty[1] = {};
    if (dense_) {
      for (size_t w = 0; w < counts_.size(); ++w) {
        if (counts_[w] == 0) continue;
        fold_entry(w, counts_[w],
                   tracked_ > 0 ? &aggs_[w * tracked_] : kEmpty);
      }
      return;
    }
    // Hash iteration order is arbitrary, but the target std::map sorts and
    // every fold is commutative, so the merge is order-independent.
    for (const auto& [w, idx] : index_) {
      fold_entry(w, counts_[idx],
                 tracked_ > 0 ? &aggs_[idx * tracked_] : kEmpty);
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

  int tracked_;
  bool dense_;
  std::vector<int64_t> counts_;
  std::vector<EvidenceSet::Aggregate> aggs_;
  std::unordered_map<uint64_t, size_t> index_;  // sparse only
};

}  // namespace

int EvidenceWordBits(const std::vector<EvidenceColumn>& columns) {
  int bits = 0;
  for (const EvidenceColumn& c : columns) {
    if (c.cmp == EvidenceColumn::Cmp::kEquality) bits += 1;
    if (c.cmp == EvidenceColumn::Cmp::kOrder) bits += 2;
    if (c.metric != nullptr && !c.thresholds.empty()) {
      bits += std::bit_width(c.thresholds.size());
    }
  }
  return bits;
}

Result<std::unique_ptr<PairComparator>> PairComparator::Make(
    const EncodedRelation& encoded, std::vector<EvidenceColumn> columns,
    ThreadPool* pool, int64_t max_table_entries) {
  int bits = EvidenceWordBits(columns);
  if (bits > 64) {
    return Status::Invalid("evidence word exceeds 64 bits");
  }
  std::unique_ptr<PairComparator> pc(new PairComparator());
  pc->num_bits_ = bits;
  int shift = 0;
  for (const EvidenceColumn& spec : columns) {
    if (spec.attr < 0 || spec.attr >= encoded.num_columns()) {
      return Status::Invalid("evidence column out of schema");
    }
    if (spec.track_max && spec.metric == nullptr) {
      return Status::Invalid("track_max requires a metric");
    }
    Col col;
    EvidenceSet::ColumnLayout lay;
    lay.attr = spec.attr;
    lay.cmp = spec.cmp;
    col.codes = encoded.codes(spec.attr).data();
    col.cmp = spec.cmp;
    if (spec.cmp == EvidenceColumn::Cmp::kEquality) {
      col.cmp_shift = lay.cmp_shift = shift;
      shift += 1;
      // All-distinct column: every pair is unequal, the facet is a
      // constant bit.
      col.const_unequal = encoded.num_rows() > 1 &&
                          encoded.dict_size(spec.attr) == encoded.num_rows();
      if (col.const_unequal) pc->base_word_ |= uint64_t{1} << col.cmp_shift;
    } else if (spec.cmp == EvidenceColumn::Cmp::kOrder) {
      col.cmp_shift = lay.cmp_shift = shift;
      shift += 2;
      std::vector<uint32_t> ranks = CodeRanks(encoded, spec.attr);
      col.row_ranks.resize(encoded.num_rows());
      for (int r = 0; r < encoded.num_rows(); ++r) {
        col.row_ranks[r] = ranks[col.codes[r]];
      }
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
  return pc;
}

[[gnu::always_inline]] inline void PairComparator::Fill(
    int i, int j0, const int* partners, int count, uint64_t* words,
    double* tracked_dists) const {
  uint32_t gathered[kStripRows];
  uint8_t buckets[kStripRows];
  double dists[kStripRows];
  for (int k0 = 0; k0 < count; k0 += kStripRows) {
    const int m = std::min(kStripRows, count - k0);
    uint64_t* w = words + k0;
    std::fill(w, w + m, base_word_);
    // The partners' entries of one per-row array: a slice of it, or
    // gathered from the partner list.
    auto partner_values = [&](const uint32_t* per_row) -> const uint32_t* {
      if (partners == nullptr) return per_row + j0 + k0;
      for (int k = 0; k < m; ++k) gathered[k] = per_row[partners[k0 + k]];
      return gathered;
    };
    for (const Col& c : cols_) {
      const uint32_t a = c.codes[i];
      const uint32_t* b = nullptr;
      if (c.cmp == EvidenceColumn::Cmp::kEquality && !c.const_unequal) {
        b = partner_values(c.codes);
        for (int k = 0; k < m; ++k) {
          w[k] |= static_cast<uint64_t>(b[k] != a) << c.cmp_shift;
        }
      } else if (c.cmp == EvidenceColumn::Cmp::kOrder) {
        // Distinct codes have distinct ranks: 0 equal, 1 less, 2 greater.
        const uint32_t ra = c.row_ranks[i];
        const uint32_t* rb = partner_values(c.row_ranks.data());
        for (int k = 0; k < m; ++k) {
          w[k] |= (static_cast<uint64_t>(ra < rb[k]) |
                   static_cast<uint64_t>(ra > rb[k]) << 1)
                  << c.cmp_shift;
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

// The one-partner case gets its own inlined copy of the kernel: with
// count fixed at 1 its block and column loops fold to straight-line code,
// which one-partner strips (Word, two-row clusters, a delta's last
// anchors) would otherwise pay loop setup for in every column.
void PairComparator::Strip(int i, int j0, int count, uint64_t* words,
                           double* tracked_dists) const {
  if (count == 1) {
    Fill(i, j0, nullptr, 1, words, tracked_dists);
  } else {
    Fill(i, j0, nullptr, count, words, tracked_dists);
  }
}

void PairComparator::Strip(int i, const int* partners, int count,
                           uint64_t* words, double* tracked_dists) const {
  if (count == 1) {
    Strip(i, partners[0], 1, words, tracked_dists);
  } else {
    Fill(i, 0, partners, count, words, tracked_dists);
  }
}

uint64_t PairComparator::Word(int i, int j, double* tracked_dists) const {
  uint64_t w = 0;
  Strip(i, j, 1, &w, tracked_dists);
  return w;
}

uint64_t EvidenceSet::MirrorOf(uint64_t word) const {
  for (const ColumnLayout& c : layout_) {
    if (c.cmp != EvidenceColumn::Cmp::kOrder) continue;
    uint64_t v = (word >> c.cmp_shift) & 3u;
    if (v != 0) {
      word = (word & ~(uint64_t{3} << c.cmp_shift)) |
             ((3 - v) << c.cmp_shift);
    }
  }
  return word;
}

uint64_t EvidenceSet::AllUnequalWord() const {
  uint64_t w = 0;
  for (const ColumnLayout& c : layout_) {
    if (c.cmp == EvidenceColumn::Cmp::kEquality) {
      w |= uint64_t{1} << c.cmp_shift;
    }
  }
  return w;
}

size_t EvidenceSet::footprint_bytes() const {
  return sizeof(EvidenceSet) + words_.capacity() * sizeof(Word) +
         aggs_.capacity() * sizeof(Aggregate) +
         layout_.capacity() * sizeof(ColumnLayout);
}

namespace {

/// One chunk's strip output: the words of up to `strip` partners and, when
/// the config tracks distances, their per-slot distances.
class StripBuffers {
 public:
  StripBuffers(const PairComparator& pc, int strip)
      : words_(strip), dists_(static_cast<size_t>(strip) * pc.num_tracked()) {}

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
    std::vector<Accumulator> accs;
    accs.reserve(chunks);
    for (int c = 0; c < chunks; ++c) accs.emplace_back(pc->num_bits(), tracked);

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

    std::map<uint64_t,
             std::pair<int64_t, std::vector<EvidenceSet::Aggregate>>>
        merged;
    for (const Accumulator& acc : accs) acc.MergeInto(&merged);
    FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));

    auto set = std::make_shared<EvidenceSet>();
    set->layout_ = pc->layout();
    set->num_tracked_ = tracked;
    set->total_pairs_ = walk_pairs;
    if (pruned) {
      // Pairs disagreeing everywhere were never enumerated: their count is
      // the remainder, their word all-unequal, their aggregates zero.
      int64_t enumerated = 0;
      for (const auto& [w, entry] : merged) enumerated += entry.first;
      int64_t rest = set->total_pairs_ - enumerated;
      if (rest > 0) {
        auto [it, inserted] = merged.try_emplace(
            set->AllUnequalWord(), 0,
            std::vector<EvidenceSet::Aggregate>(tracked));
        it->second.first += rest;
      }
    }
    set->words_.reserve(merged.size());
    set->aggs_.reserve(merged.size() * tracked);
    for (const auto& [w, entry] : merged) {
      set->words_.push_back(EvidenceSet::Word{w, entry.first});
      for (int t = 0; t < tracked; ++t) set->aggs_.push_back(entry.second[t]);
    }
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
    if (base.layout_.size() != delta.layout_.size() ||
        base.num_tracked_ != delta.num_tracked_) {
      return Status::Invalid("evidence merge: mismatched configs");
    }
    for (size_t c = 0; c < base.layout_.size(); ++c) {
      const EvidenceSet::ColumnLayout& a = base.layout_[c];
      const EvidenceSet::ColumnLayout& b = delta.layout_[c];
      if (a.attr != b.attr || a.cmp != b.cmp || a.cmp_shift != b.cmp_shift ||
          a.bucket_shift != b.bucket_shift || a.bucket_bits != b.bucket_bits ||
          a.num_thresholds != b.num_thresholds ||
          a.track_slot != b.track_slot) {
        return Status::Invalid("evidence merge: mismatched configs");
      }
    }
    int tracked = base.num_tracked_;
    auto set = std::make_shared<EvidenceSet>();
    set->layout_ = base.layout_;
    set->num_tracked_ = tracked;
    set->total_pairs_ = base.total_pairs_ + delta.total_pairs_;
    set->words_.reserve(base.words_.size() + delta.words_.size());
    set->aggs_.reserve((base.words_.size() + delta.words_.size()) * tracked);
    size_t bi = 0, di = 0;
    auto take = [&](const EvidenceSet& src, size_t i) {
      set->words_.push_back(src.words_[i]);
      for (int t = 0; t < tracked; ++t) {
        set->aggs_.push_back(src.aggs_[i * tracked + t]);
      }
    };
    while (bi < base.words_.size() || di < delta.words_.size()) {
      bool from_base =
          di >= delta.words_.size() ||
          (bi < base.words_.size() &&
           base.words_[bi].bits < delta.words_[di].bits);
      if (from_base) {
        take(base, bi++);
      } else if (bi >= base.words_.size() ||
                 delta.words_[di].bits < base.words_[bi].bits) {
        take(delta, di++);
      } else {
        // Same word on both sides: sum counts, fold aggregates.
        EvidenceSet::Word w = base.words_[bi];
        w.count += delta.words_[di].count;
        set->words_.push_back(w);
        for (int t = 0; t < tracked; ++t) {
          EvidenceSet::Aggregate a = base.aggs_[bi * tracked + t];
          const EvidenceSet::Aggregate& b = delta.aggs_[di * tracked + t];
          a.max_all = std::max(a.max_all, b.max_all);
          a.max_finite = std::max(a.max_finite, b.max_finite);
          a.saw_nonfinite = a.saw_nonfinite || b.saw_nonfinite;
          set->aggs_.push_back(a);
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
