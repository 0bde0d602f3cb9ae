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

/// Parallel chunks. More chunks than workers is fine — each chunk's
/// accumulator merges commutatively, so the chunk count only bounds
/// parallelism, never changes the result.
int NumChunks(ThreadPool* pool) { return pool != nullptr ? 8 : 1; }

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

  void Add(uint64_t w, const double* td) {
    if (dense_) {
      ++counts_[w];
      if (tracked_ > 0) Fold(&aggs_[w * tracked_], td);
      return;
    }
    auto [it, inserted] = index_.try_emplace(w, counts_.size());
    if (inserted) {
      counts_.push_back(0);
      for (int t = 0; t < tracked_; ++t) {
        aggs_.push_back(EvidenceSet::Aggregate{});
      }
    }
    ++counts_[it->second];
    if (tracked_ > 0) Fold(&aggs_[it->second * tracked_], td);
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
  void Fold(EvidenceSet::Aggregate* a, const double* td) {
    for (int t = 0; t < tracked_; ++t) {
      double d = td[t];
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
      col.ranks = CodeRanks(encoded, spec.attr);
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

uint64_t PairComparator::Word(int i, int j, double* tracked_dists) const {
  uint64_t w = base_word_;
  for (const Col& c : cols_) {
    uint32_t ca = c.codes[i], cb = c.codes[j];
    switch (c.cmp) {
      case EvidenceColumn::Cmp::kEquality:
        if (!c.const_unequal) {
          w |= static_cast<uint64_t>(ca != cb) << c.cmp_shift;
        }
        break;
      case EvidenceColumn::Cmp::kOrder:
        if (ca != cb) {
          w |= static_cast<uint64_t>(c.ranks[ca] < c.ranks[cb] ? 1 : 2)
               << c.cmp_shift;
        }
        break;
      case EvidenceColumn::Cmp::kNone:
        break;
    }
    if (c.dist != nullptr) {
      double d = c.dist->Distance(ca, cb);
      if (!c.thresholds.empty()) {
        w |= static_cast<uint64_t>(BucketFromDistance(d, c.thresholds))
             << c.bucket_shift;
      }
      if (c.track_slot >= 0 && tracked_dists != nullptr) {
        tracked_dists[c.track_slot] = d;
      }
    } else if (c.bucket != nullptr) {
      w |= static_cast<uint64_t>(c.bucket->Bucket(ca, cb)) << c.bucket_shift;
    }
  }
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

/// Clusters of size >= 2 for one column, CSR layout.
struct Clusters {
  std::vector<int> rows;
  std::vector<int> offsets;
  int num_classes() const {
    return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
  }
};

Clusters ClustersFromCodes(const EncodedRelation& encoded, int attr) {
  const std::vector<uint32_t>& codes = encoded.codes(attr);
  int k = encoded.dict_size(attr);
  std::vector<int> count(k, 0);
  for (uint32_t c : codes) ++count[c];
  Clusters out;
  std::vector<int> pos(k, -1);
  int total = 0, classes = 0;
  for (int c = 0; c < k; ++c) {
    if (count[c] >= 2) {
      pos[c] = total;
      total += count[c];
      ++classes;
    }
  }
  out.rows.resize(total);
  out.offsets.reserve(classes + 1);
  std::vector<int> cursor(pos);
  for (int r = 0; r < static_cast<int>(codes.size()); ++r) {
    int p = cursor[codes[r]];
    if (p >= 0) {
      out.rows[p] = r;
      ++cursor[codes[r]];
    }
  }
  for (int c = 0; c < k; ++c) {
    if (pos[c] >= 0) out.offsets.push_back(pos[c]);
  }
  if (!out.offsets.empty() || total > 0) out.offsets.push_back(total);
  return out;
}

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
    int chunks = NumChunks(options.pool);
    int tracked = pc->num_tracked();
    std::vector<Accumulator> accs;
    accs.reserve(chunks);
    for (int c = 0; c < chunks; ++c) accs.emplace_back(pc->num_bits(), tracked);

    bool pruned = false;
    if (pairs != nullptr) {
      FAMTREE_RETURN_NOT_OK(
          PairListWalk(*pc, *pairs, chunks, options, &accs));
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
      std::vector<double> td(std::max(1, pc.num_tracked()));
      for (int ti = static_cast<int>(chunk); ti < num_tiles; ti += chunks) {
        FAMTREE_RETURN_NOT_OK(
            RunContext::FaultPoint(options.context, "evidence_tile"));
        int i0 = ti * tile, i1 = std::min(n, i0 + tile);
        for (int tj = ti; tj < num_tiles; ++tj) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));
          int j0 = tj * tile, j1 = std::min(n, j0 + tile);
          if (j1 <= old_rows) continue;  // delta mode: j must be appended
          for (int i = i0; i < i1; ++i) {
            for (int j = std::max({j0, i + 1, old_rows}); j < j1; ++j) {
              acc.Add(pc.Word(i, j, td.data()), td.data());
            }
          }
        }
      }
      return Status::OK();
    });
  }

  static Status PairListWalk(const PairComparator& pc,
                             const std::vector<std::pair<int, int>>& pairs,
                             int chunks, const EvidenceOptions& options,
                             std::vector<Accumulator>* accs) {
    int64_t total = static_cast<int64_t>(pairs.size());
    int64_t block = (total + chunks - 1) / chunks;
    return ParallelFor(options.pool, chunks, [&](int64_t chunk) {
      Accumulator& acc = (*accs)[chunk];
      std::vector<double> td(std::max(1, pc.num_tracked()));
      int64_t begin = chunk * block, end = std::min(total, begin + block);
      for (int64_t p = begin; p < end; ++p) {
        if ((p & 1023) == 0) {
          FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));
        }
        acc.Add(pc.Word(pairs[p].first, pairs[p].second, td.data()),
                td.data());
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
    // attached, local counting sort otherwise. Both yield the same pair
    // sets; enumeration order cannot show through the commutative folds.
    std::vector<std::shared_ptr<const StrippedPartition>> plis(nc);
    std::vector<Clusters> local(nc);
    struct View {
      const int* rows;
      const int* offsets;
      int classes;
    };
    std::vector<View> views(nc);
    std::vector<const uint32_t*> codes(nc);
    for (int c = 0; c < nc; ++c) {
      codes[c] = encoded.codes(columns[c].attr).data();
      if (options.pli != nullptr) {
        plis[c] =
            options.pli->Get(AttrSet::Single(columns[c].attr), options.context);
      }
      if (plis[c] != nullptr) {
        views[c] = View{plis[c]->row_indices().data(),
                        plis[c]->class_offsets().data(),
                        plis[c]->num_classes()};
      } else {
        local[c] = ClustersFromCodes(encoded, columns[c].attr);
        views[c] = View{local[c].rows.data(), local[c].offsets.data(),
                        local[c].num_classes()};
      }
    }
    // Flattened (column, class) work items, strided over chunks.
    std::vector<std::pair<int, int>> items;
    for (int c = 0; c < nc; ++c) {
      for (int cls = 0; cls < views[c].classes; ++cls) {
        items.push_back({c, cls});
      }
    }
    int64_t num_items = static_cast<int64_t>(items.size());
    return ParallelFor(options.pool, chunks, [&](int64_t chunk) {
      Accumulator& acc = (*accs)[chunk];
      std::vector<double> td(std::max(1, pc.num_tracked()));
      for (int64_t it = chunk; it < num_items; it += chunks) {
        FAMTREE_RETURN_NOT_OK(RunContext::Poll(options.context));
        FAMTREE_RETURN_NOT_OK(
            RunContext::FaultPoint(options.context, "evidence_tile"));
        auto [c, cls] = items[it];
        const View& v = views[c];
        const int* rows = v.rows + v.offsets[cls];
        int size = v.offsets[cls + 1] - v.offsets[cls];
        // Delta mode: rows inside a cluster ascend, so the appended tail
        // starts at the first row >= old_rows; each pair keeps its larger
        // row in the tail.
        int y0 = old_rows > 0
                     ? static_cast<int>(
                           std::lower_bound(rows, rows + size, old_rows) -
                           rows)
                     : 1;
        for (int y = std::max(y0, 1); y < size; ++y) {
          for (int x = 0; x < y; ++x) {
            int i = rows[x], j = rows[y];
            // Deduplicate: only the first agreeing column owns the pair.
            bool first = true;
            for (int p = 0; p < c; ++p) {
              if (codes[p][i] == codes[p][j]) {
                first = false;
                break;
              }
            }
            if (!first) continue;
            acc.Add(pc.Word(i, j, td.data()), td.data());
          }
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
