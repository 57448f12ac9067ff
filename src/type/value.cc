#include "type/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace calcite {

namespace {
const std::vector<Value> kEmptyValues;
const std::vector<std::pair<Value, Value>> kEmptyEntries;
}  // namespace

Value Value::Array(std::vector<Value> elems) {
  auto composite = std::make_shared<Composite>();
  composite->elements = std::move(elems);
  return Value(std::in_place_type<std::shared_ptr<const Composite>>,
               std::move(composite));
}

Value Value::Map(std::vector<std::pair<Value, Value>> entries) {
  auto composite = std::make_shared<Composite>();
  composite->entries = std::move(entries);
  composite->is_map = true;
  return Value(std::in_place_type<std::shared_ptr<const Composite>>,
               std::move(composite));
}

bool Value::is_array() const {
  auto* c = std::get_if<std::shared_ptr<const Composite>>(&data_);
  return c != nullptr && !(*c)->is_map;
}

bool Value::is_map() const {
  auto* c = std::get_if<std::shared_ptr<const Composite>>(&data_);
  return c != nullptr && (*c)->is_map;
}

const std::vector<Value>& Value::AsArray() const {
  auto* c = std::get_if<std::shared_ptr<const Composite>>(&data_);
  if (c == nullptr) return kEmptyValues;
  return (*c)->elements;
}

const std::vector<std::pair<Value, Value>>& Value::AsMap() const {
  auto* c = std::get_if<std::shared_ptr<const Composite>>(&data_);
  if (c == nullptr) return kEmptyEntries;
  return (*c)->entries;
}

Value Value::MapLookup(const Value& key) const {
  for (const auto& [k, v] : AsMap()) {
    if (k == key) return v;
  }
  return Value::Null();
}

int Value::Compare(const Value& other) const {
  bool null_a = IsNull();
  bool null_b = other.IsNull();
  if (null_a && null_b) return 0;
  if (null_a) return -1;
  if (null_b) return 1;

  // Cross-representation numeric comparison.
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      int64_t a = AsInt();
      int64_t b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_bool() && other.is_bool()) {
    return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
  }
  if (is_string() && other.is_string()) {
    return AsString().compare(other.AsString());
  }
  if (is_geometry() && other.is_geometry()) {
    return AsGeometry()->ToWkt().compare(other.AsGeometry()->ToWkt());
  }
  if ((is_array() || is_map()) && (other.is_array() || other.is_map())) {
    const auto& a = AsArray();
    const auto& b = other.AsArray();
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
    const auto& ea = AsMap();
    const auto& eb = other.AsMap();
    for (size_t i = 0; i < ea.size() && i < eb.size(); ++i) {
      int c = ea[i].first.Compare(eb[i].first);
      if (c != 0) return c;
      c = ea[i].second.Compare(eb[i].second);
      if (c != 0) return c;
    }
    if (ea.size() != eb.size()) return ea.size() < eb.size() ? -1 : 1;
    return 0;
  }
  // Different kinds: order by variant index for a stable total order.
  return data_.index() < other.data_.index() ? -1 : 1;
}

size_t Value::Hash() const {
  if (IsNull()) return 0x9e3779b9;
  if (is_bool()) return std::hash<bool>()(AsBool());
  if (is_int()) {
    // Hash integral values the same whether stored as int or double.
    return std::hash<double>()(static_cast<double>(AsInt()));
  }
  if (is_double()) return std::hash<double>()(AsDouble());
  if (is_string()) return std::hash<std::string>()(AsString());
  if (is_geometry()) return std::hash<std::string>()(AsGeometry()->ToWkt());
  size_t h = 0x12345678;
  for (const Value& v : AsArray()) h = h * 31 + v.Hash();
  for (const auto& [k, v] : AsMap()) {
    h = h * 31 + k.Hash();
    h = h * 31 + v.Hash();
  }
  return h;
}

std::string Value::ToString() const {
  if (IsNull()) return "null";
  if (is_bool()) return AsBool() ? "true" : "false";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    double d = AsDouble();
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", d);
      return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", d);
    return buf;
  }
  if (is_string()) return "'" + AsString() + "'";
  if (is_geometry()) return AsGeometry()->ToWkt();
  if (is_map()) {
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : AsMap()) {
      if (!first) out += ", ";
      first = false;
      out += k.ToString() + ": " + v.ToString();
    }
    return out + "}";
  }
  std::string out = "[";
  bool first = true;
  for (const Value& v : AsArray()) {
    if (!first) out += ", ";
    first = false;
    out += v.ToString();
  }
  return out + "]";
}

size_t RowHash::operator()(const Row& row) const {
  size_t h = 0;
  for (const Value& v : row) h = h * 1099511628211ULL + v.Hash();
  return h;
}

std::string RowToString(const Row& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + "]";
}

}  // namespace calcite
