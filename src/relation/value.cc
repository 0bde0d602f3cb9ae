#include "relation/value.h"

#include <cmath>
#include <functional>
#include <limits>

#include "common/strings.h"

namespace famtree {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
  }
  return "?";
}

double Value::AsNumeric() const {
  switch (type()) {
    case ValueType::kInt: return static_cast<double>(as_int());
    case ValueType::kDouble: return as_double();
    default: return std::numeric_limits<double>::quiet_NaN();
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull: return "∅";
    case ValueType::kInt: return std::to_string(as_int());
    case ValueType::kDouble: return FormatDouble(as_double());
    case ValueType::kString: return as_string();
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x6e756c6cULL;
    case ValueType::kInt:
      // Hash ints through their double image unconditionally: operator==
      // compares int-vs-double through AsNumeric(), so an int64 above 2^53
      // whose double image loses precision can still compare equal to that
      // double and must hash identically (distinct giant ints may collide
      // here, which equality-checking consumers resolve by comparison).
      return std::hash<double>()(static_cast<double>(as_int()));
    case ValueType::kDouble:
      return std::hash<double>()(as_double());
    case ValueType::kString:
      return HashCombine(0x73747221ULL, std::hash<std::string>()(as_string()));
  }
  return 0;
}

bool operator==(const Value& a, const Value& b) {
  ValueType ta = a.type(), tb = b.type();
  if (ta == tb) {
    switch (ta) {
      case ValueType::kNull: return true;
      case ValueType::kInt: return a.as_int() == b.as_int();
      case ValueType::kDouble: return a.as_double() == b.as_double();
      case ValueType::kString: return a.as_string() == b.as_string();
    }
  }
  if (a.is_numeric() && b.is_numeric()) return a.AsNumeric() == b.AsNumeric();
  return false;
}

bool operator<(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    switch (v.type()) {
      case ValueType::kNull: return 0;
      case ValueType::kInt:
      case ValueType::kDouble: return 1;
      case ValueType::kString: return 2;
    }
    return 3;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb;
  switch (ra) {
    case 0: return false;  // null == null
    case 1: {
      // Cross-type numeric comparison; exact for the magnitudes we use.
      if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
        return a.as_int() < b.as_int();
      }
      return a.AsNumeric() < b.AsNumeric();
    }
    default: return a.as_string() < b.as_string();
  }
}

bool SortsBefore(const Value& a, const Value& b) {
  auto is_nan = [](const Value& v) {
    return v.type() == ValueType::kDouble && std::isnan(v.as_double());
  };
  bool nan_a = is_nan(a), nan_b = is_nan(b);
  if (nan_a || nan_b) return !nan_a;
  return a < b;
}

}  // namespace famtree
