#include "metric/code_distance.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

namespace famtree {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kSignatureLow = 1;

/// Bit of each byte value in a presence signature: digits, lower- and
/// upper-case letters get a bit each, other bytes share the last two.
constexpr std::array<uint8_t, 256> kSignatureBit = [] {
  std::array<uint8_t, 256> bit{};
  for (int c = 0; c < 256; ++c) {
    if (c >= '0' && c <= '9') {
      bit[c] = static_cast<uint8_t>(c - '0');
    } else if (c >= 'a' && c <= 'z') {
      bit[c] = static_cast<uint8_t>(10 + c - 'a');
    } else if (c >= 'A' && c <= 'Z') {
      bit[c] = static_cast<uint8_t>(36 + c - 'A');
    } else {
      bit[c] = static_cast<uint8_t>(62 + (c & 1));
    }
  }
  return bit;
}();

/// Per-code forms for the edit-distance fills: null flag, string form and
/// the form's byte-presence signature.
struct EditForms {
  std::vector<uint8_t> is_null;
  std::vector<std::string> text;
  std::vector<uint64_t> signature;
};

EditForms BuildEditForms(const EncodedRelation& encoded, int attr) {
  int k = encoded.dict_size(attr);
  EditForms forms;
  forms.is_null.resize(k);
  forms.text.resize(k);
  forms.signature.resize(k);
  for (int c = 0; c < k; ++c) {
    const Value& v = encoded.Decode(attr, static_cast<uint32_t>(c));
    forms.is_null[c] = v.is_null() ? 1 : 0;
    if (v.is_null()) continue;
    forms.text[c] = v.ToString();
    for (char ch : forms.text[c]) {
      forms.signature[c] |=
          kSignatureLow << kSignatureBit[static_cast<unsigned char>(ch)];
    }
  }
  return forms;
}

/// A lower bound on the edit distance between codes a and b: the length
/// gap, and the presence bits one form has and the other lacks (an edit
/// removes at most one byte value and adds at most one, so this is at
/// least ceil(popcount(sig_a ^ sig_b) / 2)).
int EditLowerBound(const EditForms& forms, size_t a, size_t b) {
  int na = static_cast<int>(forms.text[a].size());
  int nb = static_cast<int>(forms.text[b].size());
  uint64_t sa = forms.signature[a], sb = forms.signature[b];
  return std::max({na > nb ? na - nb : nb - na, std::popcount(sa & ~sb),
                   std::popcount(sb & ~sa)});
}

}  // namespace

CodeDistanceTable::CodeDistanceTable(const EncodedRelation& encoded, int attr,
                                     MetricPtr metric, ThreadPool* pool,
                                     int64_t max_entries)
    : encoded_(&encoded), attr_(attr), metric_(std::move(metric)) {
  int64_t k = encoded.dict_size(attr);
  int64_t entries = k * (k + 1) / 2;
  if (k == 0 || entries > max_entries) return;
  table_.resize(static_cast<size_t>(entries));
  // Edit distance dominates the string workloads: the string forms are
  // built once, and each triangle row sets its anchor code's kernel
  // pattern once. The kernel is the one EditDistanceMetric::Distance
  // runs, so entries stay bit-identical to the generic fill below.
  if (metric_->name() == "edit") {
    EditForms forms = BuildEditForms(encoded, attr);
    Status st = ParallelFor(pool, k, [&](int64_t b) {
      size_t base = TriIndex(0, static_cast<uint32_t>(b));
      EditDistanceKernel kernel;
      if (!forms.is_null[b]) kernel.SetPattern(forms.text[b]);
      for (int64_t a = 0; a <= b; ++a) {
        double d;
        if (forms.is_null[a] || forms.is_null[b]) {
          d = (forms.is_null[a] && forms.is_null[b]) ? 0.0 : kInf;
        } else {
          d = kernel.Distance(forms.text[a]);
        }
        table_[base + a] = d;
      }
      return Status::OK();
    });
    (void)st;
    memoized_ = true;
    return;
  }
  // Each iteration fills one row of the triangle; entries are pure
  // functions of their code pair, so parallel fill is deterministic.
  Status st = ParallelFor(pool, k, [&](int64_t b) {
    const Value& vb = encoded_->Decode(attr_, static_cast<uint32_t>(b));
    size_t base = TriIndex(0, static_cast<uint32_t>(b));
    for (int64_t a = 0; a <= b; ++a) {
      table_[base + a] =
          metric_->Distance(encoded_->Decode(attr_, static_cast<uint32_t>(a)),
                            vb);
    }
    return Status::OK();
  });
  // ParallelFor only propagates statuses from the body, which is
  // infallible here.
  (void)st;
  memoized_ = true;
}

CodeBucketTable::CodeBucketTable(const EncodedRelation& encoded, int attr,
                                 MetricPtr metric,
                                 std::vector<double> thresholds,
                                 ThreadPool* pool, int64_t max_entries)
    : encoded_(&encoded),
      attr_(attr),
      metric_(std::move(metric)),
      thresholds_(std::move(thresholds)) {
  int64_t k = encoded.dict_size(attr);
  int64_t entries = k * (k + 1) / 2;
  if (k == 0 || entries > max_entries ||
      thresholds_.size() > 254) {
    return;
  }
  table_.resize(static_cast<size_t>(entries));
  // Edit-distance fast path. A pair whose lower bound (EditLowerBound)
  // exceeds the largest finite threshold exceeds every finite threshold,
  // so it lands in the first +inf threshold's bucket if there is one
  // (else past the last); every other pair takes its exact distance from
  // the kernel, so buckets equal BucketOf(Distance).
  if (metric_->name() == "edit") {
    double limit = -kInf;
    for (double t : thresholds_) {
      if (std::isfinite(t)) limit = std::max(limit, t);
    }
    uint8_t overflow = static_cast<uint8_t>(thresholds_.size());
    for (size_t j = 0; j < thresholds_.size(); ++j) {
      if (thresholds_[j] == kInf) {
        overflow = static_cast<uint8_t>(j);
        break;
      }
    }
    EditForms forms = BuildEditForms(encoded, attr);
    Status st = ParallelFor(pool, k, [&](int64_t b) {
      size_t base = TriIndex(0, static_cast<uint32_t>(b));
      EditDistanceKernel kernel;
      if (!forms.is_null[b]) kernel.SetPattern(forms.text[b]);
      for (int64_t a = 0; a <= b; ++a) {
        uint8_t bucket;
        if (forms.is_null[a] || forms.is_null[b]) {
          bucket = static_cast<uint8_t>(BucketOf(
              (forms.is_null[a] && forms.is_null[b]) ? 0.0 : kInf));
        } else if (EditLowerBound(forms, a, b) > limit) {
          bucket = overflow;
        } else {
          bucket = static_cast<uint8_t>(
              BucketOf(kernel.Distance(forms.text[a])));
        }
        table_[base + a] = bucket;
      }
      return Status::OK();
    });
    (void)st;
    memoized_ = true;
    return;
  }
  Status st = ParallelFor(pool, k, [&](int64_t b) {
    const Value& vb = encoded_->Decode(attr_, static_cast<uint32_t>(b));
    size_t base = TriIndex(0, static_cast<uint32_t>(b));
    for (int64_t a = 0; a <= b; ++a) {
      table_[base + a] = static_cast<uint8_t>(BucketOf(metric_->Distance(
          encoded_->Decode(attr_, static_cast<uint32_t>(a)), vb)));
    }
    return Status::OK();
  });
  (void)st;
  memoized_ = true;
}

}  // namespace famtree
