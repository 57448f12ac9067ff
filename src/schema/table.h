#ifndef CALCITE_SCHEMA_TABLE_H_
#define CALCITE_SCHEMA_TABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/row_batch.h"
#include "plan/traits.h"
#include "schema/table_stats.h"
#include "type/rel_data_type.h"
#include "type/value.h"
#include "util/status.h"

namespace calcite {

/// A table known to the framework. Adapters implement this to describe the
/// data in their backend (Figure 3: "the data itself is physically accessed
/// via tables"). The minimal contract is a row type plus Scan() — "if an
/// adapter implements the table scan operator, the Calcite optimizer is then
/// able to use client-side operators ... to execute arbitrary SQL queries".
class Table {
 public:
  virtual ~Table() = default;

  /// The relational row type of this table.
  virtual RelDataTypePtr GetRowType(const TypeFactory& factory) const = 0;

  /// Optimizer statistics (schema/table_stats.h): declarative facts from
  /// the adapter plus per-column ANALYZE results when available. Default:
  /// everything unknown.
  virtual TableStats GetStatistic() const { return TableStats{}; }

  /// Full scan of the table contents, in storage order. This is the access
  /// path the enumerable convention uses.
  virtual Result<std::vector<Row>> Scan() const = 0;

  /// The scan entry point of the execution engine: one ScanSpec
  /// (exec/row_batch.h) carries the pushed predicates, the ANALYZE sample
  /// fraction, the access-path hint and the scan-unit range, so a per-scan
  /// feature is a ScanSpec field rather than a new virtual. Result rows
  /// satisfy every pushed predicate and arrive in chunks of at most
  /// spec.batch_size rows. The default serves a Scan()-only table: it runs
  /// Scan(), filters the rows by the predicates, chunks them and applies
  /// sampling; a unit range is an error, since such a table has no scan
  /// units. Tables that hold their rows (RowStoreTable) or page them from
  /// disk (DiskTable) override it to filter before rows are copied. The
  /// returned puller may capture `this`: the caller must keep the table
  /// alive while pulling, which the scan operators do by holding its
  /// TablePtr in the pipeline closure.
  virtual Result<RowBatchPuller> OpenScan(const ScanSpec& spec) const;

  /// OpenScan of every row in `batch_size` chunks.
  Result<RowBatchPuller> ScanBatched(size_t batch_size) const {
    ScanSpec spec;
    spec.batch_size = batch_size;
    return OpenScan(spec);
  }

  /// True if OpenScan(spec) would be served by an index rather than a pass
  /// over the table's rows — the table's own access-path decision, asked
  /// by the morsel executor so that a lookup the table answers from its
  /// index is not fanned out over every scan unit. Default: no index.
  virtual bool ScanUsesIndex(const ScanSpec& spec) const {
    (void)spec;
    return false;
  }

  /// Paged scan surface for tables whose rows live out-of-core and so have
  /// no columnar cache: the table partitions itself into independently
  /// scannable units — for a disk table, a run of heap pages — and the
  /// morsel-driven parallel executor claims whole units as morsels, each
  /// worker opening a unit-ranged OpenScan over only the units it claimed
  /// (bounded memory instead of a whole-table copy before workers start).
  /// 0 (the default) means no paged surface; without a columnar cache
  /// either, scans of the table stay serial. Units must tile the table:
  /// unit-ranged OpenScans over [0, 1), [1, 2), ... [n-1, n) together
  /// yield exactly Scan()'s rows.
  virtual size_t ScanUnitCount() const { return 0; }

  /// The table's contents decomposed into column-major typed storage
  /// (exec/column_batch.h), or nullptr when the table cannot provide it.
  /// This is the access path of the columnar hot path and of the morsel
  /// workers (which claim row-range morsels of it): scans slice zero-copy
  /// column views out of the returned decomposition and evaluate pushed
  /// predicates on the raw columns before any row materialization.
  /// Tables that physically hold rows build the decomposition lazily on
  /// first use and cache it (ColumnarCache); the shared_ptr keeps it alive
  /// for in-flight scans even if the cache is invalidated by a mutation.
  virtual TableColumnsPtr MaterializedColumns(const TypeFactory&) const {
    return nullptr;
  }

  /// True if this table is a stream (time-ordered, unbounded in principle;
  /// §7.2). STREAM queries are only legal on streaming tables.
  virtual bool IsStream() const { return false; }
};

using TablePtr = std::shared_ptr<Table>;

/// The row store of the tables that hold their rows in memory (MemTable,
/// and the CSV, Cassandra and stream adapters): a row type, a vector of
/// rows and the lazily built columnar decomposition of those rows.
/// Subclasses add only what differs — statistics, stream appends, parsing.
class RowStoreTable : public Table {
 public:
  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }

  /// The stored row count; nothing else is known.
  TableStats GetStatistic() const override;

  Result<std::vector<Row>> Scan() const override { return rows_; }

  /// Pushed predicates run against the stored rows directly: rows that fail
  /// are never copied, and the survivors keep their storage order.
  Result<RowBatchPuller> OpenScan(const ScanSpec& spec) const override;

  /// Built on first use and cached until the rows change; the returned
  /// shared_ptr keeps a decomposition alive for scans in flight.
  TableColumnsPtr MaterializedColumns(const TypeFactory&) const override {
    return columnar_.Get(rows_, row_type_);
  }

 protected:
  RowStoreTable(RelDataTypePtr row_type, std::vector<Row> rows)
      : row_type_(std::move(row_type)), rows_(std::move(rows)) {}

  const std::vector<Row>& stored_rows() const { return rows_; }

  /// Mutable access to the rows. Conservatively drops the cached columnar
  /// decomposition — the caller may mutate the rows through the returned
  /// reference. Not to be called while a scan of the table is in flight.
  std::vector<Row>& mutable_rows() {
    columnar_.Invalidate();
    return rows_;
  }

 private:
  RelDataTypePtr row_type_;
  std::vector<Row> rows_;
  ColumnarCache columnar_;
};

/// A straightforward in-memory table: a row type plus a vector of rows.
/// Used by tests, examples, benchmarks and materialized views.
class MemTable : public RowStoreTable {
 public:
  MemTable(RelDataTypePtr row_type, std::vector<Row> rows)
      : RowStoreTable(std::move(row_type), std::move(rows)) {}

  /// The statistic set by set_statistic(), with the stored row count
  /// filled in when it names none.
  TableStats GetStatistic() const override {
    TableStats stat = statistic_;
    if (!stat.row_count.has_value()) {
      stat.row_count = static_cast<double>(stored_rows().size());
    }
    return stat;
  }

  /// Mutable access for test/bench setup.
  std::vector<Row>& rows() { return mutable_rows(); }
  void set_statistic(TableStats statistic) { statistic_ = std::move(statistic); }

 private:
  TableStats statistic_;
};

/// A view: a table defined by a SQL query over other tables. The validator
/// expands views in-place during name resolution (§7.1 uses views to expose
/// semi-structured data relationally).
class ViewTable : public Table {
 public:
  ViewTable(std::string sql, RelDataTypePtr row_type)
      : sql_(std::move(sql)), row_type_(std::move(row_type)) {}

  const std::string& sql() const { return sql_; }

  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }

  Result<std::vector<Row>> Scan() const override {
    return Status::Internal(
        "views are expanded during validation and never scanned directly");
  }

 private:
  std::string sql_;
  RelDataTypePtr row_type_;
};

}  // namespace calcite

#endif  // CALCITE_SCHEMA_TABLE_H_
