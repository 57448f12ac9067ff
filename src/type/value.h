#ifndef CALCITE_TYPE_VALUE_H_
#define CALCITE_TYPE_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "geo/geometry.h"

namespace calcite {

class Value;

/// A runtime tuple: one Value per output field of a relational operator.
using Row = std::vector<Value>;

/// A dynamically-typed runtime value flowing through the enumerable engine
/// and the Rex interpreter. SQL NULL is a distinct state (IsNull()). Integer
/// SQL types are carried as int64, approximate numerics as double,
/// DATE/TIME/TIMESTAMP as int64 (days or milliseconds — interpretation is
/// carried by the static RelDataType, not the value), and the
/// semi-structured ARRAY/MAP/MULTISET types as nested containers.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : data_(NullTag{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int(int64_t i) { return Value(std::in_place_type<int64_t>, i); }
  static Value Double(double d) {
    return Value(std::in_place_type<double>, d);
  }
  static Value String(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }
  static Value Array(std::vector<Value> elems);
  static Value Map(std::vector<std::pair<Value, Value>> entries);
  static Value Geometry(geo::GeometryPtr g) {
    return Value(std::in_place_type<geo::GeometryPtr>, std::move(g));
  }

  bool IsNull() const { return std::holds_alternative<NullTag>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const;
  bool is_map() const;
  bool is_geometry() const {
    return std::holds_alternative<geo::GeometryPtr>(data_);
  }
  bool is_numeric() const { return is_int() || is_double(); }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(data_))
                    : std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  const std::vector<Value>& AsArray() const;
  const std::vector<std::pair<Value, Value>>& AsMap() const;
  const geo::GeometryPtr& AsGeometry() const {
    return std::get<geo::GeometryPtr>(data_);
  }

  /// Looks up a key in a MAP value (SQL `map[key]`); returns NULL if absent.
  Value MapLookup(const Value& key) const;

  /// SQL-style three-way comparison for ORDER BY and join keys: returns
  /// <0, 0, >0. NULLs compare equal to each other and sort before non-nulls.
  /// Numeric values compare across int/double representations.
  int Compare(const Value& other) const;

  /// Equality consistent with Compare()==0.
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (ints and integral doubles that are
  /// numerically equal hash identically).
  size_t Hash() const;

  /// Display form used by EXPLAIN and result printing. Strings are rendered
  /// with single quotes; NULL renders as "null".
  std::string ToString() const;

 private:
  struct NullTag {};
  struct Composite {
    // Array/multiset elements, or flattened map entries.
    std::vector<Value> elements;
    std::vector<std::pair<Value, Value>> entries;
    bool is_map = false;
  };
  using Data = std::variant<NullTag, bool, int64_t, double, std::string,
                            geo::GeometryPtr, std::shared_ptr<const Composite>>;

  /// Builds the alternative in place. Moving a temporary Data instead
  /// makes GCC 12 report -Wmaybe-uninitialized inside std::variant's move
  /// constructor, which cannot see which alternative the temporary holds.
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : data_(type, std::forward<Arg>(arg)) {}

  Data data_;
};

/// Hash functor for Row keys in unordered containers.
struct RowHash {
  size_t operator()(const Row& row) const;
};

/// Renders a row as "[v1, v2, ...]".
std::string RowToString(const Row& row);

}  // namespace calcite

#endif  // CALCITE_TYPE_VALUE_H_
