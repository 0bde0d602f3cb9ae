#include "engine/pli_cache.h"

#include <algorithm>

#include "relation/ooc/ooc_pli.h"

namespace famtree {

namespace {

/// Streaming PliDeltaIndex build for the out-of-core backend: one pass
/// over the pre-append shards' column, one shard resident at a time.
Status BuildDeltaIndexOoc(const ShardedEncodedRelation& sharded, int col,
                          int old_rows, int dict_size, PliDeltaIndex* index) {
  index->count.assign(dict_size, 0);
  index->single_row.assign(dict_size, -1);
  std::vector<uint32_t> scratch;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    int begin = sharded.shard_row_begin(s);
    if (begin >= old_rows) break;  // shards are in row order
    FAMTREE_RETURN_NOT_OK(sharded.LoadShardColumn(s, col, &scratch));
    for (int i = 0; i < sharded.shard_num_rows(s); ++i) {
      uint32_t code = scratch[i];
      ++index->count[code];
      // Last occurrence; demoted to -1 below unless the count stayed 1.
      index->single_row[code] = begin + i;
    }
  }
  for (int code = 0; code < dict_size; ++code) {
    if (index->count[code] != 1) index->single_row[code] = -1;
  }
  index->rows_indexed = old_rows;
  return Status::OK();
}

}  // namespace

PliCache::PliCache(const Relation& relation, Options options,
                   uint64_t fingerprint)
    : relation_(&relation),
      num_rows_(relation.num_rows()),
      num_columns_(relation.num_columns()),
      fingerprint_(fingerprint),
      options_(options),
      encoded_(std::make_shared<const EncodedRelation>(relation)) {}

PliCache::PliCache(const ShardedEncodedRelation& sharded, Options options)
    : sharded_(&sharded),
      num_rows_(sharded.num_rows()),
      num_columns_(sharded.num_columns()),
      fingerprint_(sharded.fingerprint()),
      options_(options) {}

size_t PliCache::FootprintOf(const StrippedPartition& pli) {
  // Flat CSR arrays (row indices + class offsets) plus the object itself.
  return sizeof(StrippedPartition) +
         static_cast<size_t>(pli.num_rows_in_classes()) * sizeof(int) +
         (static_cast<size_t>(pli.num_classes()) + 1) * sizeof(int);
}

const EncodedRelation* PliCache::encoded_or_null() const {
  std::lock_guard<std::mutex> lock(mu_);
  return encoded_.get();
}

Status PliCache::EnsureEncoded(RunContext* ctx) {
  if (sharded_ == nullptr) return Status::OK();  // built in the constructor
  std::lock_guard<std::mutex> serialize(encode_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (encoded_ != nullptr) return Status::OK();
  }
  FAMTREE_ASSIGN_OR_RETURN(std::shared_ptr<const EncodedRelation> enc,
                           sharded_->MaterializeEncoded(ctx));
  std::lock_guard<std::mutex> lock(mu_);
  encoded_ = std::move(enc);
  return Status::OK();
}

std::shared_ptr<const StrippedPartition> PliCache::Get(AttrSet attrs,
                                                       RunContext* ctx) {
  if (attrs.empty() || !AttrSet::Full(num_columns_).ContainsAll(attrs)) {
    return nullptr;
  }
  // A run whose stop is already latched (cancelled/expired before it
  // started — see RunContext::BeginRun — or stopped by an earlier probe)
  // never reaches the map: no lookup is burned and no build is started.
  if (ctx != nullptr && !RunContext::StopStatus(ctx).ok()) return nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(attrs);
    if (it != entries_.end()) {
      ++stats_.hits;
      if (!it->second.pinned) {  // touch: move to the front of the LRU list
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      return it->second.pli;
    }
    ++stats_.misses;
  }
  // Compute outside the lock so other lookups (and the recursive halves)
  // proceed concurrently.
  std::shared_ptr<const StrippedPartition> pli = Compute(attrs, ctx);
  if (pli == nullptr) return nullptr;  // recursive build hit a limit
  // Charge before publishing: on a failed charge the entry is never
  // inserted, so an aborted run leaves no partially accounted state behind.
  // The out-of-core backend spills resident shards to make room first.
  size_t footprint = FootprintOf(*pli);
  Status charged =
      sharded_ != nullptr
          ? sharded_->ChargeWithSpill(ctx, footprint, "pli_build")
          : RunContext::ChargeAlloc(ctx, footprint, "pli_build");
  if (!charged.ok()) {
    return nullptr;
  }
  return Insert(attrs, std::move(pli));
}

std::shared_ptr<const StrippedPartition> PliCache::Compute(AttrSet attrs,
                                                           RunContext* ctx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.builds;
  }
  if (attrs.size() == 1) {
    if (sharded_ != nullptr) {
      // Out-of-core leaf: per-shard sorted runs, spilled under pressure,
      // k-way merged — bit-identical to the counting sort below.
      int64_t spilled = 0;
      Result<StrippedPartition> pli =
          BuildAttributePliOoc(*sharded_, attrs.ToVector()[0], ctx, &spilled);
      if (spilled > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.ooc_spill_bytes += spilled;
      }
      if (!pli.ok()) return nullptr;  // reason latched on the context
      return std::make_shared<StrippedPartition>(std::move(pli).value());
    }
    // Leaves come out of the encoded backend: a counting sort over the
    // column's dictionary codes, class-for-class identical to the
    // Value-based grouping.
    return std::make_shared<StrippedPartition>(
        StrippedPartition::ForAttribute(*encoded_, attrs.ToVector()[0]));
  }
  // Deterministic split: lowest attribute off, the rest (usually the
  // cached prefix of a lattice walk) refined by its codes — or, out of core
  // without a flat encoding, by its leaf's class ids (Product), with
  // byte-identical output. The leaf is fetched either way, so it stays
  // pinned and the hit/miss counts do not depend on the backend.
  int lowest = attrs.ToVector()[0];
  std::shared_ptr<const StrippedPartition> rest =
      Get(attrs.Without(lowest), ctx);
  if (rest == nullptr) return nullptr;
  std::shared_ptr<const StrippedPartition> single =
      Get(AttrSet::Single(lowest), ctx);
  if (single == nullptr) return nullptr;
  const EncodedRelation* encoded = encoded_or_null();
  return std::make_shared<StrippedPartition>(
      encoded != nullptr
          ? rest->Refine(encoded->codes(lowest), encoded->dict_size(lowest))
          : rest->Product(*single, num_rows_));
}

std::shared_ptr<const StrippedPartition> PliCache::Insert(
    AttrSet attrs, std::shared_ptr<const StrippedPartition> pli) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(attrs);
  if (it != entries_.end()) return it->second.pli;  // lost a benign race
  Entry entry;
  entry.bytes = FootprintOf(*pli);
  entry.pinned = attrs.size() == 1;
  entry.pli = std::move(pli);
  stats_.bytes += entry.bytes;
  if (!entry.pinned) {
    lru_.push_front(attrs);
    entry.lru_pos = lru_.begin();
    // Evict least-recently-used unpinned partitions beyond the budget, but
    // never the entry just inserted.
    while (stats_.bytes > options_.max_bytes && lru_.size() > 1) {
      AttrSet victim = lru_.back();
      lru_.pop_back();
      auto vit = entries_.find(victim);
      stats_.bytes -= vit->second.bytes;
      entries_.erase(vit);
      ++stats_.evictions;
    }
  }
  auto result = entry.pli;
  entries_.emplace(attrs, std::move(entry));
  return result;
}

void PliCache::RecordFdCover(std::shared_ptr<const FdCoverMemo> memo) {
  std::lock_guard<std::mutex> lock(mu_);
  fd_cover_memo_ = std::move(memo);
}

std::shared_ptr<const PliCache::FdCoverMemo> PliCache::fd_cover_memo() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_cover_memo_;
}

Status PliCache::MaintainAppend(RunContext* ctx, MaintainStats* stats) {
  // Held aside while the leaves change and put back only on success, so a
  // failed (partial) maintenance leaves no recorded cover behind.
  std::shared_ptr<const FdCoverMemo> memo;
  {
    std::lock_guard<std::mutex> lock(mu_);
    memo = std::move(fd_cover_memo_);
  }
  MaintainStats local;
  int new_rows =
      sharded_ != nullptr ? sharded_->num_rows() : relation_->num_rows();
  int old_rows = num_rows_;
  int delta_rows = new_rows - old_rows;
  if (delta_rows == 0) {
    RecordFdCover(std::move(memo));
    if (stats != nullptr) *stats = local;
    return Status::OK();
  }
  if (delta_rows < 0) {
    return Status::Invalid(
        "relation shrank under maintenance; forget it and re-register");
  }
  int nc_now = sharded_ != nullptr ? sharded_->num_columns()
                                   : relation_->num_columns();
  if (nc_now != num_columns_) {
    return Status::Invalid("column count changed under maintenance");
  }
  local.appended_rows = delta_rows;

  // --- Advance the encoding view. The appended encoding is built before
  // any entry changes (a new object, never an in-place mutation: drivers
  // from before the append may still hold the old shared_ptr).
  std::shared_ptr<const EncodedRelation> new_encoded;
  // Out-of-core without a materialized encoding: the appended rows' codes
  // come straight from the new shards instead.
  std::vector<std::vector<uint32_t>> ooc_delta;
  if (sharded_ == nullptr) {
    FAMTREE_ASSIGN_OR_RETURN(
        EncodedRelation appended,
        EncodedRelation::Appended(*encoded_, *relation_));
    new_encoded =
        std::make_shared<const EncodedRelation>(std::move(appended));
  } else {
    ooc_delta.resize(num_columns_);
    for (int c = 0; c < num_columns_; ++c) ooc_delta[c].resize(delta_rows);
    for (int s = 0; s < sharded_->num_shards(); ++s) {
      int begin = sharded_->shard_row_begin(s);
      if (begin < old_rows) continue;
      for (int c = 0; c < num_columns_; ++c) {
        FAMTREE_RETURN_NOT_OK(sharded_->CopyShardColumn(
            s, c, ooc_delta[c].data() + (begin - old_rows)));
      }
    }
    std::shared_ptr<const EncodedRelation> old_enc;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old_enc = encoded_;
    }
    if (old_enc != nullptr) {
      // A sampling driver materialized the flat encoding; extend it so the
      // next EnsureEncoded stays a no-op.
      size_t bytes =
          static_cast<size_t>(delta_rows) * num_columns_ * sizeof(uint32_t);
      FAMTREE_RETURN_NOT_OK(
          sharded_->ChargeWithSpill(ctx, bytes, "ingest_codes"));
      std::vector<std::vector<uint32_t>> cols(num_columns_);
      std::vector<std::vector<Value>> dicts(num_columns_);
      for (int c = 0; c < num_columns_; ++c) {
        cols[c] = old_enc->codes(c);
        cols[c].insert(cols[c].end(), ooc_delta[c].begin(),
                       ooc_delta[c].end());
        dicts[c].reserve(sharded_->dict_size(c));
        for (int code = 0; code < sharded_->dict_size(c); ++code) {
          dicts[c].push_back(sharded_->Decode(c, code));
        }
      }
      new_encoded = std::make_shared<const EncodedRelation>(
          new_rows, std::move(cols), std::move(dicts));
    }
  }
  auto dict_size_now = [&](int c) {
    return sharded_ != nullptr ? sharded_->dict_size(c)
                               : new_encoded->dict_size(c);
  };
  auto delta_codes = [&](int c) -> const uint32_t* {
    return sharded_ != nullptr ? ooc_delta[c].data()
                               : new_encoded->codes(c).data() + old_rows;
  };

  // --- Merge the pinned single-attribute leaves in place.
  delta_index_.resize(num_columns_);
  for (int c = 0; c < num_columns_; ++c) {
    std::shared_ptr<const StrippedPartition> old_pli;
    size_t old_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(AttrSet::Single(c));
      if (it == entries_.end()) continue;  // never requested; built on
                                           // demand from the new encoding
      old_pli = it->second.pli;
      old_bytes = it->second.bytes;
    }
    PliDeltaIndex& index = delta_index_[c];
    if (!index.built() || index.rows_indexed != old_rows) {
      if (sharded_ != nullptr) {
        FAMTREE_RETURN_NOT_OK(BuildDeltaIndexOoc(*sharded_, c, old_rows,
                                                 dict_size_now(c), &index));
      } else {
        BuildPliDeltaIndex(new_encoded->codes(c).data(), old_rows,
                           dict_size_now(c), &index);
      }
    }
    StrippedPartition merged =
        MergeAttributePliDelta(*old_pli, delta_codes(c), old_rows, delta_rows,
                               dict_size_now(c), &index);
    size_t new_bytes = FootprintOf(merged);
    if (new_bytes > old_bytes) {
      size_t grow = new_bytes - old_bytes;
      Status charged =
          sharded_ != nullptr
              ? sharded_->ChargeWithSpill(ctx, grow, "pli_build")
              : RunContext::ChargeAlloc(ctx, grow, "pli_build");
      FAMTREE_RETURN_NOT_OK(charged);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      Entry& entry = entries_[AttrSet::Single(c)];
      entry.pli = std::make_shared<StrippedPartition>(std::move(merged));
      stats_.bytes += new_bytes;
      stats_.bytes -= entry.bytes;
      entry.bytes = new_bytes;
    }
    ++local.leaves_merged;
  }

  // --- Commit the new shape and invalidate multi-attribute products.
  // They are NOT rebuilt here: the next Get recomputes each one on demand
  // through the ordinary deterministic recipe (lowest-attribute split of
  // the merged leaves), so only products a consumer actually touches pay
  // the O(rows) rebuild — cover repair visits a handful of frontier nodes,
  // while a discovery run may have left dozens cached. A maintained cache
  // therefore stays bit-identical to a cold one serving the same request
  // stream.
  const uint64_t new_fingerprint = sharded_ != nullptr
                                       ? sharded_->fingerprint()
                                       : RelationFingerprint(*relation_);
  std::vector<AttrSet> products;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (new_encoded != nullptr) encoded_ = new_encoded;
    num_rows_ = new_rows;
    fingerprint_ = new_fingerprint;
    for (const auto& [attrs, entry] : entries_) {
      if (attrs.size() > 1) products.push_back(attrs);
    }
    for (const AttrSet& attrs : products) {
      auto it = entries_.find(attrs);
      if (!it->second.pinned) lru_.erase(it->second.lru_pos);
      stats_.bytes -= it->second.bytes;
      entries_.erase(it);
      ++local.products_invalidated;
    }
    fd_cover_memo_ = std::move(memo);
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

PliCache::Stats PliCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace famtree
