#ifndef CALCITE_ADAPTERS_CSV_CSV_ADAPTER_H_
#define CALCITE_ADAPTERS_CSV_CSV_ADAPTER_H_

#include <memory>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "util/status.h"

namespace calcite {

/// The classic file adapter (Calcite's CSV tutorial adapter): a directory of
/// CSV files becomes a schema; each file a table. The header line declares
/// the columns as `name:type` pairs, e.g. `empno:int,name:string,sal:double`.
/// The parsed file is immutable and held in memory, so the table scans, and
/// builds its columnar decomposition once, through RowStoreTable.
class CsvTable final : public RowStoreTable {
 public:
  /// Parses the CSV text (header + data lines). Supported types: int,
  /// long, double, string, boolean.
  static Result<std::shared_ptr<CsvTable>> FromText(const std::string& text);

  /// Reads a file from disk.
  static Result<std::shared_ptr<CsvTable>> FromFile(const std::string& path);

 private:
  using RowStoreTable::RowStoreTable;
};

/// The schema factory of Figure 3: "the schema factory component acquires
/// the metadata information from the model and generates a schema". Given a
/// directory, produces a Schema with one CsvTable per *.csv file.
Result<SchemaPtr> CsvSchemaFactory(const std::string& directory);

}  // namespace calcite

#endif  // CALCITE_ADAPTERS_CSV_CSV_ADAPTER_H_
