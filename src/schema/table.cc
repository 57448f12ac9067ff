#include "schema/table.h"

#include <algorithm>

namespace calcite {

namespace {

/// Only tables with scan units (DiskTable, which overrides OpenScan) can
/// serve a unit-ranged scan.
Status CheckNoUnitRange(const ScanSpec& spec) {
  if (spec.has_unit_range()) {
    return Status::Internal("table has no paged scan surface");
  }
  return Status::OK();
}

}  // namespace

Result<RowBatchPuller> Table::OpenScan(const ScanSpec& raw_spec) const {
  ScanSpec spec = raw_spec.Normalized();
  CALCITE_RETURN_IF_ERROR(CheckNoUnitRange(spec));
  CALCITE_ASSIGN_OR_RETURN(std::vector<Row> rows, Scan());
  rows.erase(std::remove_if(rows.begin(), rows.end(),
                            [&spec](const Row& row) {
                              return !ScanPredicatesMatch(spec.predicates,
                                                          row);
                            }),
             rows.end());
  return ApplyScanSpecDecorators(ChunkRows(std::move(rows), spec.batch_size),
                                 spec);
}

TableStats RowStoreTable::GetStatistic() const {
  TableStats stat;
  stat.row_count = static_cast<double>(rows_.size());
  return stat;
}

Result<RowBatchPuller> RowStoreTable::OpenScan(const ScanSpec& raw_spec) const {
  ScanSpec spec = raw_spec.Normalized();
  CALCITE_RETURN_IF_ERROR(CheckNoUnitRange(spec));
  return ApplyScanSpecDecorators(
      FilterSliceRows(rows_, spec.batch_size, std::move(spec.predicates)),
      spec);
}

}  // namespace calcite
