#include "metric/metric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

namespace famtree {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kHighBit = 0x8000000000000000ull;

/// Nulls: distance 0 to null, +inf to anything else. Returns true when the
/// null rule applies and sets *out.
bool NullRule(const Value& a, const Value& b, double* out) {
  if (a.is_null() || b.is_null()) {
    *out = (a.is_null() && b.is_null()) ? 0.0 : kInf;
    return true;
  }
  return false;
}
}  // namespace

void EditDistanceKernel::SetPattern(std::string_view pattern) {
  size_t words = (pattern.size() + 63) / 64;
  if (words != words_) {
    // Fresh vectors rather than assign(): a per-thread kernel must not
    // keep the storage of the longest pattern it ever saw.
    words_ = words;
    peq_ = std::vector<uint64_t>(256 * words_);
    pv_ = std::vector<uint64_t>(words_);
    mv_ = std::vector<uint64_t>(words_);
  } else {
    std::fill(peq_.begin(), peq_.end(), 0);
  }
  m_ = static_cast<int>(pattern.size());
  for (int i = 0; i < m_; ++i) {
    peq_[static_cast<unsigned char>(pattern[i]) * words_ + i / 64] |=
        kHighBit >> (63 - i % 64);
  }
}

int EditDistanceKernel::Distance(std::string_view text) {
  if (m_ == 0) return static_cast<int>(text.size());
  // Column j of the DP is D[.][j] as vertical deltas: bit i of word w of
  // pv (mv) is set when D[64w+i+1][j] - D[64w+i][j] is +1 (-1). Row 0 is
  // D[0][j] = j, so the horizontal delta entering the first word is +1;
  // each later word takes the delta leaving the top bit of the word
  // before it, a -1 also standing in for the carry of the addition. The
  // score follows D[m][j] through the delta at the pattern's last row.
  const uint64_t last = kHighBit >> (63 - (m_ - 1) % 64);
  std::fill(pv_.begin(), pv_.end(), ~uint64_t{0});
  std::fill(mv_.begin(), mv_.end(), 0);
  int score = m_;
  for (char ch : text) {
    const uint64_t* eqs = &peq_[static_cast<unsigned char>(ch) * words_];
    int hin = 1;
    for (size_t w = 0; w < words_; ++w) {
      uint64_t pv = pv_[w], mv = mv_[w];
      uint64_t neg = hin < 0 ? 1 : 0;
      uint64_t eq = eqs[w];
      uint64_t xv = eq | mv;
      eq |= neg;
      uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
      uint64_t ph = mv | ~(xh | pv);
      uint64_t mh = pv & xh;
      uint64_t top = w + 1 == words_ ? last : kHighBit;
      int hout = static_cast<int>((ph & top) != 0) -
                 static_cast<int>((mh & top) != 0);
      ph = (ph << 1) | (hin > 0 ? 1 : 0);
      mh = (mh << 1) | neg;
      pv_[w] = mh | ~(xv | ph);
      mv_[w] = ph & xv;
      hin = hout;
    }
    score += hin;
  }
  return score;
}

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return static_cast<int>(b.size());
  thread_local EditDistanceKernel kernel;
  kernel.SetPattern(a);
  return kernel.Distance(b);
}

double EditDistanceMetric::Distance(const Value& a, const Value& b) const {
  double nd;
  if (NullRule(a, b, &nd)) return nd;
  // Strings are read in place; only a number is formatted.
  if (a.is_string() && b.is_string()) {
    return LevenshteinDistance(a.as_string(), b.as_string());
  }
  return LevenshteinDistance(a.ToString(), b.ToString());
}

double AbsDiffMetric::Distance(const Value& a, const Value& b) const {
  double nd;
  if (NullRule(a, b, &nd)) return nd;
  if (a.is_numeric() && b.is_numeric()) {
    return std::fabs(a.AsNumeric() - b.AsNumeric());
  }
  return a == b ? 0.0 : kInf;
}

double DiscreteMetric::Distance(const Value& a, const Value& b) const {
  double nd;
  if (NullRule(a, b, &nd)) return nd == 0.0 ? 0.0 : 1.0;
  return a == b ? 0.0 : 1.0;
}

double JaccardQGramMetric::Distance(const Value& a, const Value& b) const {
  double nd;
  if (NullRule(a, b, &nd)) return nd == 0.0 ? 0.0 : 1.0;
  std::string sa = a.ToString(), sb = b.ToString();
  if (sa == sb) return 0.0;
  auto grams = [this](const std::string& s) {
    std::map<std::string, int> g;
    if (static_cast<int>(s.size()) < q_) {
      if (!s.empty()) g[s] = 1;
      return g;
    }
    for (size_t i = 0; i + q_ <= s.size(); ++i) ++g[s.substr(i, q_)];
    return g;
  };
  std::map<std::string, int> ga = grams(sa), gb = grams(sb);
  int inter = 0, uni = 0;
  auto ia = ga.begin();
  auto ib = gb.begin();
  while (ia != ga.end() && ib != gb.end()) {
    if (ia->first == ib->first) {
      inter += std::min(ia->second, ib->second);
      uni += std::max(ia->second, ib->second);
      ++ia;
      ++ib;
    } else if (ia->first < ib->first) {
      uni += ia->second;
      ++ia;
    } else {
      uni += ib->second;
      ++ib;
    }
  }
  for (; ia != ga.end(); ++ia) uni += ia->second;
  for (; ib != gb.end(); ++ib) uni += ib->second;
  if (uni == 0) return 0.0;
  return 1.0 - static_cast<double>(inter) / uni;
}

MetricPtr GetEditDistanceMetric() {
  static const MetricPtr& m = *new MetricPtr(new EditDistanceMetric());
  return m;
}

MetricPtr GetAbsDiffMetric() {
  static const MetricPtr& m = *new MetricPtr(new AbsDiffMetric());
  return m;
}

MetricPtr GetDiscreteMetric() {
  static const MetricPtr& m = *new MetricPtr(new DiscreteMetric());
  return m;
}

MetricPtr GetJaccardQGramMetric(int q) {
  return MetricPtr(new JaccardQGramMetric(q));
}

MetricPtr DefaultMetricFor(ValueType type) {
  switch (type) {
    case ValueType::kInt:
    case ValueType::kDouble:
      return GetAbsDiffMetric();
    case ValueType::kString:
      return GetEditDistanceMetric();
    case ValueType::kNull:
      return GetDiscreteMetric();
  }
  return GetDiscreteMetric();
}

}  // namespace famtree
