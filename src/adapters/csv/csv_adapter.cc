#include "adapters/csv/csv_adapter.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/string_utils.h"

namespace calcite {

namespace {

Result<RelDataTypePtr> ColumnType(const std::string& type_name,
                                  const TypeFactory& tf) {
  std::string lower = ToLower(type_name);
  if (lower == "int" || lower == "integer") {
    return tf.CreateSqlType(SqlTypeName::kInteger, true);
  }
  if (lower == "long" || lower == "bigint") {
    return tf.CreateSqlType(SqlTypeName::kBigInt, true);
  }
  if (lower == "double" || lower == "float") {
    return tf.CreateSqlType(SqlTypeName::kDouble, true);
  }
  if (lower == "string" || lower == "varchar") {
    return tf.CreateSqlType(SqlTypeName::kVarchar, 255, true);
  }
  if (lower == "boolean" || lower == "bool") {
    return tf.CreateSqlType(SqlTypeName::kBoolean, true);
  }
  return Status::InvalidArgument("unsupported CSV column type '" + type_name +
                                 "'");
}

Result<Value> ParseCell(const std::string& text, const RelDataType& type) {
  if (text.empty()) return Value::Null();
  switch (type.type_name()) {
    case SqlTypeName::kInteger:
    case SqlTypeName::kBigInt:
      return Value::Int(std::strtoll(text.c_str(), nullptr, 10));
    case SqlTypeName::kDouble:
      return Value::Double(std::strtod(text.c_str(), nullptr));
    case SqlTypeName::kBoolean:
      return Value::Bool(EqualsIgnoreCase(text, "true"));
    default:
      return Value::String(text);
  }
}

}  // namespace

Result<std::shared_ptr<CsvTable>> CsvTable::FromText(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::InvalidArgument("CSV input is empty");
  }
  TypeFactory tf;
  std::vector<std::string> names;
  std::vector<RelDataTypePtr> types;
  for (const std::string& column : Split(Trim(header), ',')) {
    std::vector<std::string> parts = Split(column, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          "CSV header column must be name:type, got '" + column + "'");
    }
    names.push_back(Trim(parts[0]));
    auto type = ColumnType(Trim(parts[1]), tf);
    if (!type.ok()) return type.status();
    types.push_back(type.value());
  }
  std::vector<Row> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    std::vector<std::string> cells = Split(line, ',');
    if (cells.size() != names.size()) {
      return Status::InvalidArgument("CSV row has " +
                                     std::to_string(cells.size()) +
                                     " cells, expected " +
                                     std::to_string(names.size()));
    }
    Row row;
    for (size_t i = 0; i < cells.size(); ++i) {
      auto value = ParseCell(Trim(cells[i]), *types[i]);
      if (!value.ok()) return value.status();
      row.push_back(std::move(value).value());
    }
    rows.push_back(std::move(row));
  }
  RelDataTypePtr row_type = tf.CreateStructType(names, types);
  return std::shared_ptr<CsvTable>(
      new CsvTable(std::move(row_type), std::move(rows)));
}

Result<std::shared_ptr<CsvTable>> CsvTable::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return FromText(buffer.str());
}

Result<SchemaPtr> CsvSchemaFactory(const std::string& directory) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(directory)) {
    return Status::NotFound("'" + directory + "' is not a directory");
  }
  auto schema = std::make_shared<Schema>();
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".csv") continue;
    auto table = CsvTable::FromFile(entry.path().string());
    if (!table.ok()) return table.status();
    schema->AddTable(entry.path().stem().string(), table.value());
  }
  return SchemaPtr(schema);
}

}  // namespace calcite
