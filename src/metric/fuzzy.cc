#include "metric/fuzzy.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "metric/metric.h"

namespace famtree {

double CrispResemblance::Equal(const Value& a, const Value& b) const {
  return a == b ? 1.0 : 0.0;
}

double ReciprocalResemblance::Equal(const Value& a, const Value& b) const {
  if (a.is_numeric() && b.is_numeric()) {
    return 1.0 / (1.0 + beta_ * std::fabs(a.AsNumeric() - b.AsNumeric()));
  }
  return a == b ? 1.0 : 0.0;
}

std::string ReciprocalResemblance::name() const {
  return "reciprocal(beta=" + FormatDouble(beta_) + ")";
}

double EditResemblance::Equal(const Value& a, const Value& b) const {
  if (a.is_null() || b.is_null()) {
    return (a.is_null() && b.is_null()) ? 1.0 : 0.0;
  }
  double d = EditDistanceMetric().Distance(a, b);
  return std::max(0.0, 1.0 - d / scale_);
}

std::string EditResemblance::name() const {
  return "edit(scale=" + FormatDouble(scale_) + ")";
}

ResemblancePtr GetCrispResemblance() {
  static const ResemblancePtr& r = *new ResemblancePtr(new CrispResemblance());
  return r;
}

ResemblancePtr MakeReciprocalResemblance(double beta) {
  return ResemblancePtr(new ReciprocalResemblance(beta));
}

ResemblancePtr MakeEditResemblance(double scale) {
  return ResemblancePtr(new EditResemblance(scale));
}

}  // namespace famtree
