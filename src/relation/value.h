#ifndef FAMTREE_RELATION_VALUE_H_
#define FAMTREE_RELATION_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/hash.h"

namespace famtree {

/// Runtime type of a Value.
enum class ValueType { kNull = 0, kInt, kDouble, kString };

const char* ValueTypeName(ValueType t);

/// A dynamically typed cell value. Relations in this library are small,
/// dynamically-typed tables in the style of data-profiling tools (Metanome,
/// etc.): each cell holds null, a 64-bit integer, a double or a string.
///
/// Ordering: null sorts before everything; numerics (int/double) compare
/// numerically across the two representations; strings compare
/// lexicographically; numerics sort before strings. This gives Value a total
/// order so it can key ordered containers and drive order dependencies.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(int v) : v_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const char* v) : v_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (v_.index()) {
      case 0: return ValueType::kNull;
      case 1: return ValueType::kInt;
      case 2: return ValueType::kDouble;
      default: return ValueType::kString;
    }
  }

  bool is_null() const { return v_.index() == 0; }
  bool is_numeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }
  bool is_string() const { return type() == ValueType::kString; }

  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Numeric view of the value: ints widen to double. Returns NaN for null
  /// and for strings (callers that care use is_numeric() first).
  double AsNumeric() const;

  /// Display form: "∅" for null, otherwise the literal.
  std::string ToString() const;

  size_t Hash() const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b);
  friend bool operator<=(const Value& a, const Value& b) {
    return a < b || a == b;
  }
  friend bool operator>(const Value& a, const Value& b) { return b < a; }
  friend bool operator>=(const Value& a, const Value& b) { return b <= a; }

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

/// Value's operator< made safe to sort with: a NaN cell is neither below,
/// above nor equal to any number under operator<, which breaks the strict
/// weak order std::sort requires. SortsBefore places every NaN after all
/// other values and keeps operator< everywhere else; NaNs are mutually
/// equivalent, so callers break their ties by row or code.
bool SortsBefore(const Value& a, const Value& b);

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace famtree

#endif  // FAMTREE_RELATION_VALUE_H_
