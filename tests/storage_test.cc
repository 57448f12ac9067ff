// Unit and differential tests of the out-of-core storage engine
// (src/storage/): disk manager page I/O, buffer pool pin/evict/write-back
// discipline, the row codec, randomized B-tree workloads checked against a
// std::map oracle, and the DiskTable end-to-end surface — heap scans,
// index-range routing of pushed predicates, persistence across reopen, the
// paged scan-unit tiling the parallel executor consumes, and SQL key
// lookups that must read the same pages at every thread count — plus a
// parity check of the scan surface every row-holding table offers (Scan,
// OpenScan, MaterializedColumns) across the in-memory tables and DiskTable.
// Every test works in its own temp directory, removed on teardown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "adapters/cassandra/cassandra_adapter.h"
#include "adapters/csv/csv_adapter.h"
#include "exec/column_batch.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/disk_table.h"
#include "storage/page.h"
#include "storage/row_codec.h"
#include "row_oracle.h"
#include "schema/schema.h"
#include "stream/stream.h"
#include "tools/frameworks.h"
#include "type/rel_data_type.h"

namespace calcite::storage {
namespace {

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::calcite::Status _st = (expr);               \
    ASSERT_TRUE(_st.ok()) << _st.message();             \
  } while (0)

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/calcite_storage_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    dir_ = dir;
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Disk manager
// ---------------------------------------------------------------------------

TEST_F(StorageTest, DiskManagerRoundTripAndZeroFill) {
  auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/true);
  ASSERT_OK(disk.status());
  DiskManager& dm = **disk;

  PageId a = dm.Allocate();
  PageId b = dm.Allocate();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);

  std::vector<char> page(kPageSize, 'x');
  ASSERT_OK(dm.WritePage(b, page.data()));

  // Page `a` was allocated but never written: reads zero-fill.
  std::vector<char> readback(kPageSize, 'q');
  ASSERT_OK(dm.ReadPage(a, readback.data()));
  EXPECT_TRUE(std::all_of(readback.begin(), readback.end(),
                          [](char c) { return c == 0; }));
  ASSERT_OK(dm.ReadPage(b, readback.data()));
  EXPECT_TRUE(std::all_of(readback.begin(), readback.end(),
                          [](char c) { return c == 'x'; }));
}

TEST_F(StorageTest, DiskManagerReopenSeesPageCount) {
  {
    auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/true);
    ASSERT_OK(disk.status());
    std::vector<char> page(kPageSize, 7);
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK((*disk)->WritePage((*disk)->Allocate(), page.data()));
    }
    ASSERT_OK((*disk)->Sync());
  }
  auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/false);
  ASSERT_OK(disk.status());
  EXPECT_EQ((*disk)->page_count(), 5u);
}

// ---------------------------------------------------------------------------
// Slotted page
// ---------------------------------------------------------------------------

TEST_F(StorageTest, SlottedPageInsertUntilFull) {
  std::vector<char> buf(kPageSize);
  SlottedPage page(buf.data());
  page.Init(PageType::kHeap);

  const std::string record(100, 'r');
  std::vector<uint16_t> slots;
  while (true) {
    auto slot = page.Insert(record.data(), record.size());
    if (!slot.has_value()) break;
    slots.push_back(*slot);
  }
  // 4096 - 12 header = 4084 bytes; each record costs 100 + 4 slot = 104.
  EXPECT_EQ(slots.size(), (kPageSize - kPageHeaderSize) / 104);
  EXPECT_EQ(page.slot_count(), slots.size());
  for (uint16_t s : slots) {
    size_t len = 0;
    const char* bytes = page.Get(s, &len);
    EXPECT_EQ(std::string(bytes, len), record);
  }
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

TEST_F(StorageTest, BufferPoolEvictsWhenDataExceedsPool) {
  auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/true);
  ASSERT_OK(disk.status());
  constexpr size_t kPoolPages = 4;
  constexpr size_t kDataPages = 64;
  BufferPool pool(disk->get(), kPoolPages);

  for (size_t i = 0; i < kDataPages; ++i) {
    PageId id = kInvalidPageId;
    auto guard = pool.New(&id);
    ASSERT_OK(guard.status());
    StoreAt<uint64_t>(guard->data(), 0, i);
    guard->MarkDirty();
  }
  // Each page is readable with its own bytes even though only 4 frames
  // exist: eviction wrote the dirty frames back, fetch reloads them.
  for (size_t i = 0; i < kDataPages; ++i) {
    auto guard = pool.Fetch(static_cast<PageId>(i));
    ASSERT_OK(guard.status());
    EXPECT_EQ(LoadAt<uint64_t>(guard->data(), 0), i);
  }
  EXPECT_GE(pool.disk_reads(), kDataPages - kPoolPages);
  EXPECT_GE(pool.disk_writes(), kDataPages - kPoolPages);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST_F(StorageTest, BufferPoolFailsWhenEveryFrameIsPinned) {
  auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/true);
  ASSERT_OK(disk.status());
  BufferPool pool(disk->get(), 2);

  PageId id = kInvalidPageId;
  auto g1 = pool.New(&id);
  ASSERT_OK(g1.status());
  auto g2 = pool.New(&id);
  ASSERT_OK(g2.status());
  EXPECT_EQ(pool.pinned_frames(), 2u);

  auto g3 = pool.New(&id);
  EXPECT_FALSE(g3.ok());

  // Dropping one pin frees a frame; the pool recovers.
  g1->Release();
  EXPECT_EQ(pool.pinned_frames(), 1u);
  auto g4 = pool.New(&id);
  ASSERT_OK(g4.status());
}

TEST_F(StorageTest, BufferPoolPinCountsDropToZero) {
  auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/true);
  ASSERT_OK(disk.status());
  BufferPool pool(disk->get(), 8);
  {
    std::vector<PageGuard> guards;
    for (int i = 0; i < 6; ++i) {
      PageId id = kInvalidPageId;
      auto guard = pool.New(&id);
      ASSERT_OK(guard.status());
      guards.push_back(std::move(*guard));
    }
    // Re-fetch one page through a second guard: pin counts nest.
    auto again = pool.Fetch(guards[0].id());
    ASSERT_OK(again.status());
    EXPECT_EQ(pool.pinned_frames(), 6u);
  }
  EXPECT_EQ(pool.pinned_frames(), 0u);  // the leak assertion
}

TEST_F(StorageTest, DirtyPagesSurvivePoolTeardownAndReopen) {
  {
    auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/true);
    ASSERT_OK(disk.status());
    BufferPool pool(disk->get(), 4);
    for (size_t i = 0; i < 16; ++i) {
      PageId id = kInvalidPageId;
      auto guard = pool.New(&id);
      ASSERT_OK(guard.status());
      StoreAt<uint64_t>(guard->data(), 8, i * 31);
      guard->MarkDirty();
    }
    // No explicit FlushAll: the pool destructor must write back.
  }
  auto disk = DiskManager::Open(Path("t.db"), /*truncate=*/false);
  ASSERT_OK(disk.status());
  BufferPool pool(disk->get(), 4);
  for (size_t i = 0; i < 16; ++i) {
    auto guard = pool.Fetch(static_cast<PageId>(i));
    ASSERT_OK(guard.status());
    EXPECT_EQ(LoadAt<uint64_t>(guard->data(), 8), i * 31);
  }
}

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

TEST_F(StorageTest, RowCodecRoundTrip) {
  std::vector<Row> rows = {
      {},
      {Value::Null()},
      {Value::Bool(true), Value::Bool(false)},
      {Value::Int(0), Value::Int(-1), Value::Int(INT64_MAX),
       Value::Int(INT64_MIN)},
      {Value::Double(0.0), Value::Double(-2.5), Value::Double(1e300)},
      {Value::String(""), Value::String("hello"),
       Value::String(std::string(3000, 'z'))},
      {Value::Int(42), Value::Null(), Value::String("mixed"),
       Value::Double(3.25), Value::Bool(true)},
  };
  for (const Row& row : rows) {
    std::string encoded;
    ASSERT_OK(EncodeRow(row, &encoded));
    auto decoded = DecodeRow(encoded.data(), encoded.size());
    ASSERT_OK(decoded.status());
    ASSERT_EQ(decoded->size(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_TRUE((*decoded)[i] == row[i])
          << "field " << i << ": " << (*decoded)[i].ToString() << " vs "
          << row[i].ToString();
    }
  }
}

TEST_F(StorageTest, RowCodecRejectsCompositesAndCorruption) {
  std::string encoded;
  EXPECT_FALSE(EncodeRow({Value::Array({Value::Int(1)})}, &encoded).ok());

  encoded.clear();
  ASSERT_OK(EncodeRow({Value::Int(7), Value::String("abc")}, &encoded));
  // Truncations at every prefix length must fail, never crash.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeRow(encoded.data(), len).ok()) << "prefix " << len;
  }
  // Trailing garbage is also rejected.
  std::string padded = encoded + "!";
  EXPECT_FALSE(DecodeRow(padded.data(), padded.size()).ok());
}

// ---------------------------------------------------------------------------
// B-tree vs std::map oracle
// ---------------------------------------------------------------------------

struct BTreeFixture {
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTree> tree;
};

BTreeFixture MakeBTree(const std::string& path, size_t pool_pages) {
  BTreeFixture f;
  auto disk = DiskManager::Open(path, /*truncate=*/true);
  EXPECT_TRUE(disk.ok());
  f.disk = std::move(*disk);
  f.pool = std::make_unique<BufferPool>(f.disk.get(), pool_pages);
  auto root = BTree::CreateEmpty(f.pool.get());
  EXPECT_TRUE(root.ok());
  f.tree = std::make_unique<BTree>(f.pool.get(), *root);
  return f;
}

Rid RidFor(int64_t key) {
  return Rid{static_cast<PageId>(key % 977 + 1),
             static_cast<uint16_t>(key % 91)};
}

TEST_F(StorageTest, BTreeRandomizedInsertLookupVsMapOracle) {
  // Several seeds, enough keys to force multi-level splits (leaf capacity
  // is 291, internal fanout 341 — 20k keys gives a 3-level tree).
  for (uint32_t seed : {1u, 42u, 20260807u}) {
    BTreeFixture f = MakeBTree(Path("bt" + std::to_string(seed) + ".db"), 64);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int64_t> dist(-1000000, 1000000);

    std::map<int64_t, Rid> oracle;
    for (int i = 0; i < 20000; ++i) {
      int64_t key = dist(rng);
      Status st = f.tree->Insert(key, RidFor(key));
      if (oracle.count(key)) {
        EXPECT_FALSE(st.ok()) << "duplicate key " << key << " accepted";
      } else {
        ASSERT_OK(st);
        oracle.emplace(key, RidFor(key));
      }
    }

    // Point lookups: every oracle key hits with the right rid; probes
    // around each sampled key miss exactly when the oracle misses.
    size_t checked = 0;
    for (const auto& [key, rid] : oracle) {
      if (++checked % 7 != 0) continue;  // sample 1/7th, keep the test fast
      auto found = f.tree->Lookup(key);
      ASSERT_OK(found.status());
      ASSERT_TRUE(found->has_value()) << "key " << key;
      EXPECT_TRUE(**found == rid);
      auto probe = f.tree->Lookup(key + 1);
      ASSERT_OK(probe.status());
      EXPECT_EQ(probe->has_value(), oracle.count(key + 1) > 0);
    }
  }
}

TEST_F(StorageTest, BTreeRandomizedRangeScansVsMapOracle) {
  BTreeFixture f = MakeBTree(Path("bt_range.db"), 64);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> dist(0, 300000);

  std::map<int64_t, Rid> oracle;
  for (int i = 0; i < 15000; ++i) {
    int64_t key = dist(rng);
    if (oracle.count(key)) continue;
    ASSERT_OK(f.tree->Insert(key, RidFor(key)));
    oracle.emplace(key, RidFor(key));
  }

  for (int trial = 0; trial < 50; ++trial) {
    int64_t a = dist(rng);
    int64_t b = dist(rng);
    int64_t lo = std::min(a, b);
    int64_t hi = std::max(a, b);
    auto got = f.tree->ScanRange(lo, hi);
    ASSERT_OK(got.status());

    auto it = oracle.lower_bound(lo);
    size_t n = 0;
    for (; it != oracle.end() && it->first <= hi; ++it, ++n) {
      ASSERT_LT(n, got->size()) << "range [" << lo << "," << hi << "]";
      EXPECT_EQ((*got)[n].key, it->first);
      EXPECT_TRUE((*got)[n].rid == it->second);
    }
    EXPECT_EQ(n, got->size());
  }

  // Degenerate ranges.
  auto empty = f.tree->ScanRange(10, 9);
  ASSERT_OK(empty.status());
  EXPECT_TRUE(empty->empty());
  auto all = f.tree->ScanRange(INT64_MIN, INT64_MAX);
  ASSERT_OK(all.status());
  EXPECT_EQ(all->size(), oracle.size());
}

TEST_F(StorageTest, BTreeSequentialAndReverseInsertions) {
  // Monotone insert orders hit the edge split paths (always-rightmost /
  // always-leftmost descents).
  for (bool reverse : {false, true}) {
    BTreeFixture f =
        MakeBTree(Path(reverse ? "bt_rev.db" : "bt_seq.db"), 64);
    constexpr int64_t kN = 5000;
    for (int64_t i = 0; i < kN; ++i) {
      int64_t key = reverse ? kN - 1 - i : i;
      ASSERT_OK(f.tree->Insert(key, RidFor(key)));
    }
    auto all = f.tree->ScanRange(INT64_MIN, INT64_MAX);
    ASSERT_OK(all.status());
    ASSERT_EQ(all->size(), static_cast<size_t>(kN));
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ((*all)[i].key, i);
    }
  }
}

TEST_F(StorageTest, BTreeWorksThroughTinyPool) {
  // The whole tree (many levels of pages) cycles through 8 frames; pins
  // must stay bounded and nothing may leak.
  BTreeFixture f = MakeBTree(Path("bt_tiny.db"), 8);
  std::mt19937_64 rng(13);
  std::vector<int64_t> keys(8000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int64_t key : keys) {
    ASSERT_OK(f.tree->Insert(key, RidFor(key)));
  }
  EXPECT_EQ(f.pool->pinned_frames(), 0u);
  EXPECT_GT(f.pool->disk_reads(), f.pool->capacity());

  auto got = f.tree->ScanRange(100, 7900);
  ASSERT_OK(got.status());
  EXPECT_EQ(got->size(), 7801u);
  EXPECT_EQ(f.pool->pinned_frames(), 0u);
}

// ---------------------------------------------------------------------------
// DiskTable
// ---------------------------------------------------------------------------

RelDataTypePtr DiskRowType(const TypeFactory& tf) {
  auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
  auto str_null = tf.CreateSqlType(SqlTypeName::kVarchar, 20, true);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  return tf.CreateStructType({"id", "name", "score"},
                             {int_t, str_null, dbl_null});
}

Row DiskRow(int64_t id) {
  return {Value::Int(id),
          id % 5 == 0 ? Value::Null()
                      : Value::String("n" + std::to_string(id % 23)),
          id % 4 == 0 ? Value::Null()
                      : Value::Double(static_cast<double>(id % 17) * 0.5)};
}

std::vector<Row> DiskRows(int64_t n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) rows.push_back(DiskRow(i));
  return rows;
}

std::vector<Row> Drain(const RowBatchPuller& puller) {
  std::vector<Row> out;
  for (;;) {
    auto batch = puller();
    EXPECT_TRUE(batch.ok()) << batch.status().message();
    if (!batch.ok() || batch->empty()) break;
    for (Row& row : *batch) out.push_back(std::move(row));
  }
  return out;
}

void ExpectSameRows(std::vector<Row> a, std::vector<Row> b) {
  auto key_order = [](const Row& x, const Row& y) {
    return x[0].AsInt() < y[0].AsInt();
  };
  std::sort(a.begin(), a.end(), key_order);
  std::sort(b.begin(), b.end(), key_order);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (size_t c = 0; c < a[i].size(); ++c) {
      EXPECT_TRUE(a[i][c] == b[i][c]) << "row " << i << " col " << c;
    }
  }
}

TEST_F(StorageTest, DiskTableScanMatchesInsertedRows) {
  TypeFactory tf;
  DiskTableOptions opts;
  opts.pool_pages = 16;  // table will span far more pages than this
  auto table = DiskTable::Create(Path("t.db"), DiskRowType(tf), 0, opts);
  ASSERT_OK(table.status());
  auto rows = DiskRows(5000);
  ASSERT_OK((*table)->InsertRows(rows));

  EXPECT_EQ((*table)->row_count(), 5000u);
  EXPECT_GT((*table)->heap_page_count(), opts.pool_pages);

  auto scanned = (*table)->Scan();
  ASSERT_OK(scanned.status());
  ExpectSameRows(*scanned, rows);

  auto puller = (*table)->ScanBatched(333);
  ASSERT_OK(puller.status());
  ExpectSameRows(Drain(*puller), rows);
  EXPECT_EQ((*table)->buffer_pool().pinned_frames(), 0u);
}

TEST_F(StorageTest, DiskTableRejectsBadKeys) {
  TypeFactory tf;
  auto table = DiskTable::Create(Path("t.db"), DiskRowType(tf), 0);
  ASSERT_OK(table.status());
  ASSERT_OK((*table)->InsertRows(DiskRows(10)));

  EXPECT_FALSE((*table)->InsertRows({DiskRow(5)}).ok());  // duplicate
  Row null_key = DiskRow(100);
  null_key[0] = Value::Null();
  EXPECT_FALSE((*table)->InsertRows({null_key}).ok());
  Row string_key = DiskRow(101);
  string_key[0] = Value::String("nope");
  EXPECT_FALSE((*table)->InsertRows({string_key}).ok());
  EXPECT_EQ((*table)->row_count(), 10u);
}

TEST_F(StorageTest, DiskTableIndexScanMatchesHeapScan) {
  TypeFactory tf;
  DiskTableOptions opts;
  opts.pool_pages = 16;
  auto table = DiskTable::Create(Path("t.db"), DiskRowType(tf), 0, opts);
  ASSERT_OK(table.status());
  ASSERT_OK((*table)->InsertRows(DiskRows(8000)));
  DiskTable& t = **table;

  struct Case {
    ScanPredicate::Kind kind;
    Value literal;
    bool expect_index;
  };
  const std::vector<Case> cases = {
      {ScanPredicate::Kind::kEquals, Value::Int(4242), true},
      {ScanPredicate::Kind::kLessThan, Value::Int(100), true},
      {ScanPredicate::Kind::kGreaterThanOrEqual, Value::Int(7900), true},
      {ScanPredicate::Kind::kGreaterThan, Value::Double(7899.5), true},
      {ScanPredicate::Kind::kLessThanOrEqual, Value::Double(99.25), true},
      {ScanPredicate::Kind::kEquals, Value::Double(10.5), true},  // empty
      {ScanPredicate::Kind::kEquals, Value::Null(), true},        // empty
      {ScanPredicate::Kind::kIsNull, Value::Null(), true},        // empty
      {ScanPredicate::Kind::kNotEquals, Value::Int(5), false},
      {ScanPredicate::Kind::kIsNotNull, Value::Null(), false},
  };
  for (const Case& c : cases) {
    ScanPredicate pred;
    pred.kind = c.kind;
    pred.column = 0;
    pred.literal = c.literal;

    ScanSpec spec;
    spec.batch_size = 512;
    spec.predicates = {pred};
    spec.access_path = AccessPath::kForceIndex;
    auto with_index = t.OpenScan(spec);
    ASSERT_OK(with_index.status());
    auto index_rows = Drain(*with_index);
    EXPECT_EQ(t.last_scan_used_index(), c.expect_index)
        << "kind " << static_cast<int>(c.kind);

    spec.access_path = AccessPath::kForceHeap;
    auto without = t.OpenScan(spec);
    ASSERT_OK(without.status());
    EXPECT_FALSE(t.last_scan_used_index());
    ExpectSameRows(index_rows, Drain(*without));
  }

  // Conjunction: both bounds land on the key; a residual predicate on
  // another column is re-applied on the index path.
  ScanPredicate lo;
  lo.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
  lo.column = 0;
  lo.literal = Value::Int(1000);
  ScanPredicate hi;
  hi.kind = ScanPredicate::Kind::kLessThan;
  hi.column = 0;
  hi.literal = Value::Int(2000);
  ScanPredicate residual;
  residual.kind = ScanPredicate::Kind::kIsNotNull;
  residual.column = 2;
  ScanSpec both_spec;
  both_spec.batch_size = 512;
  both_spec.predicates = {lo, hi, residual};
  auto both = t.OpenScan(both_spec);
  ASSERT_OK(both.status());
  auto got = Drain(*both);
  EXPECT_TRUE(t.last_scan_used_index());
  size_t expected = 0;
  for (int64_t id = 1000; id < 2000; ++id) {
    if (id % 4 != 0) ++expected;
  }
  EXPECT_EQ(got.size(), expected);
  for (const Row& row : got) {
    EXPECT_GE(row[0].AsInt(), 1000);
    EXPECT_LT(row[0].AsInt(), 2000);
    EXPECT_FALSE(row[2].IsNull());
  }
  EXPECT_EQ(t.buffer_pool().pinned_frames(), 0u);
}

TEST_F(StorageTest, DiskTableScanUnitsTileTheTable) {
  TypeFactory tf;
  DiskTableOptions opts;
  opts.pool_pages = 16;
  opts.pages_per_run = 3;
  auto table = DiskTable::Create(Path("t.db"), DiskRowType(tf), 0, opts);
  ASSERT_OK(table.status());
  auto rows = DiskRows(4000);
  ASSERT_OK((*table)->InsertRows(rows));

  size_t units = (*table)->ScanUnitCount();
  ASSERT_GT(units, 1u);
  // One unit-ranged OpenScan per unit: every unit holds rows, and together
  // they are the table.
  auto open_units = [&](size_t begin, size_t end) {
    ScanSpec spec;
    spec.unit_begin = begin;
    spec.unit_end = end;
    return (*table)->OpenScan(spec);
  };
  std::vector<Row> concatenated;
  for (size_t u = 0; u < units; ++u) {
    auto unit = open_units(u, u + 1);
    ASSERT_OK(unit.status());
    std::vector<Row> unit_rows = Drain(*unit);
    EXPECT_FALSE(unit_rows.empty());
    for (Row& row : unit_rows) concatenated.push_back(std::move(row));
  }
  ExpectSameRows(concatenated, rows);
  // The empty range at the end yields nothing; a range past it is an error.
  auto at_end = open_units(units, units + 1);
  ASSERT_OK(at_end.status());
  EXPECT_TRUE(Drain(*at_end).empty());
  EXPECT_FALSE(open_units(units + 1, units + 2).ok());
  EXPECT_EQ((*table)->buffer_pool().pinned_frames(), 0u);
}

TEST_F(StorageTest, DiskTablePersistsAcrossReopen) {
  TypeFactory tf;
  auto rows = DiskRows(3000);
  {
    DiskTableOptions opts;
    opts.pool_pages = 8;  // tiny pool: most pages reach disk via eviction
    auto table = DiskTable::Create(Path("t.db"), DiskRowType(tf), 0, opts);
    ASSERT_OK(table.status());
    ASSERT_OK((*table)->InsertRows(rows));
    ASSERT_OK((*table)->Flush());
  }
  auto reopened = DiskTable::Open(Path("t.db"), DiskRowType(tf));
  ASSERT_OK(reopened.status());
  DiskTable& t = **reopened;
  EXPECT_EQ(t.row_count(), 3000u);
  EXPECT_EQ(t.key_column(), 0);

  auto scanned = t.Scan();
  ASSERT_OK(scanned.status());
  ExpectSameRows(*scanned, rows);

  // The reopened index serves lookups and rejects re-insertion.
  ScanPredicate pred;
  pred.kind = ScanPredicate::Kind::kEquals;
  pred.column = 0;
  pred.literal = Value::Int(1234);
  ScanSpec hit_spec;
  hit_spec.batch_size = 64;
  hit_spec.predicates = {pred};
  auto hit = t.OpenScan(hit_spec);
  ASSERT_OK(hit.status());
  auto got = Drain(*hit);
  EXPECT_TRUE(t.last_scan_used_index());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][0].AsInt(), 1234);
  EXPECT_FALSE(t.InsertRows({DiskRow(1234)}).ok());

  // And accepts genuinely new keys.
  ASSERT_OK(t.InsertRows({DiskRow(999999)}));
  EXPECT_EQ(t.row_count(), 3001u);

  auto missing = DiskTable::Open(Path("absent.db"), DiskRowType(tf));
  EXPECT_FALSE(missing.ok());
}

// ---------------------------------------------------------------------------
// Scan surface parity across every table that holds or pages its rows
// ---------------------------------------------------------------------------

/// A table that implements only Scan(): its scans go through the default
/// Table::OpenScan.
class ScanOnlyTable final : public Table {
 public:
  ScanOnlyTable(RelDataTypePtr row_type, std::vector<Row> rows)
      : row_type_(std::move(row_type)), rows_(std::move(rows)) {}
  RelDataTypePtr GetRowType(const TypeFactory&) const override {
    return row_type_;
  }
  Result<std::vector<Row>> Scan() const override { return rows_; }

 private:
  RelDataTypePtr row_type_;
  std::vector<Row> rows_;
};

/// Drains an OpenScan, checking that no batch exceeds `batch_size`.
std::vector<Row> DrainScan(const Table& table, ScanSpec spec) {
  auto puller = table.OpenScan(spec);
  EXPECT_TRUE(puller.ok()) << puller.status().message();
  if (!puller.ok()) return {};
  std::vector<Row> out;
  for (;;) {
    auto batch = (*puller)();
    EXPECT_TRUE(batch.ok()) << batch.status().message();
    if (!batch.ok() || batch->empty()) break;
    EXPECT_LE(batch->size(), spec.batch_size);
    for (Row& row : *batch) out.push_back(std::move(row));
  }
  return out;
}

std::string CsvText(const std::vector<Row>& rows) {
  std::string text = "id:int,name:string,score:double\n";
  for (const Row& row : rows) {
    text += std::to_string(row[0].AsInt()) + ",";
    if (!row[1].IsNull()) text += row[1].AsString();
    text += ",";
    if (!row[2].IsNull()) text += std::to_string(row[2].AsDouble());
    text += "\n";
  }
  return text;
}

TEST_F(StorageTest, EveryTableScansTheSameRowsOnEverySurface) {
  TypeFactory tf;
  const RelDataTypePtr row_type = DiskRowType(tf);
  const std::vector<Row> rows = DiskRows(2500);

  auto csv = CsvTable::FromText(CsvText(rows));
  ASSERT_OK(csv.status());
  auto stream = std::make_shared<stream::StreamTable>(row_type, 0);
  for (const Row& row : rows) ASSERT_OK(stream->Append(row));
  DiskTableOptions opts;
  opts.pool_pages = 16;
  opts.pages_per_run = 3;
  auto disk = DiskTable::Create(Path("t.db"), row_type, 0, opts);
  ASSERT_OK(disk.status());
  ASSERT_OK((*disk)->InsertRows(rows));

  const std::vector<std::pair<std::string, TablePtr>> tables = {
      {"MemTable", std::make_shared<MemTable>(row_type, rows)},
      {"CsvTable", *csv},
      {"StreamTable", stream},
      {"CassandraTable",
       std::make_shared<CassandraTable>(
           row_type, rows, std::vector<int>{1},
           RelCollation({FieldCollation{0, Direction::kDescending}}))},
      {"DiskTable", *disk},
      {"ScanOnlyTable", std::make_shared<ScanOnlyTable>(row_type, rows)},
  };

  auto pred = [](ScanPredicate::Kind kind, int column, Value literal) {
    ScanPredicate p;
    p.kind = kind;
    p.column = column;
    p.literal = std::move(literal);
    return p;
  };
  // A key range (DiskTable's index path) and non-key conjuncts (its heap
  // path), each with a NULL test.
  const std::vector<ScanPredicateList> predicate_lists = {
      {pred(ScanPredicate::Kind::kGreaterThanOrEqual, 0, Value::Int(300)),
       pred(ScanPredicate::Kind::kLessThan, 0, Value::Int(2100)),
       pred(ScanPredicate::Kind::kIsNotNull, 1, Value::Null())},
      {pred(ScanPredicate::Kind::kGreaterThan, 2, Value::Double(2.0)),
       pred(ScanPredicate::Kind::kNotEquals, 1, Value::String("n7"))},
  };

  for (const auto& [name, table] : tables) {
    SCOPED_TRACE(name);
    auto scanned = table->Scan();
    ASSERT_OK(scanned.status());
    ExpectSameRows(*scanned, rows);

    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE("batch_size " + std::to_string(batch_size));
      ScanSpec spec;
      spec.batch_size = batch_size;
      ExpectSameRows(DrainScan(*table, spec), rows);

      for (const ScanPredicateList& predicates : predicate_lists) {
        std::vector<Row> expected;
        for (const Row& row : rows) {
          if (ScanPredicatesMatch(predicates, row)) expected.push_back(row);
        }
        ASSERT_FALSE(expected.empty());
        spec.predicates = predicates;
        ExpectSameRows(DrainScan(*table, spec), expected);
      }
    }

    if (TableColumnsPtr columns = table->MaterializedColumns(tf)) {
      RowBatch boxed;
      ColumnsToRows(SliceTableColumns(columns, 0, columns->num_rows, nullptr),
                    &boxed);
      ExpectSameRows(boxed, rows);
    } else {
      EXPECT_TRUE(name == "DiskTable" || name == "ScanOnlyTable");
    }

    ScanSpec unit_range;
    unit_range.unit_begin = 0;
    unit_range.unit_end = 1;
    if (table->ScanUnitCount() == 0) {
      EXPECT_FALSE(table->OpenScan(unit_range).ok());
    } else {
      unit_range.unit_end = table->ScanUnitCount();
      ExpectSameRows(DrainScan(*table, unit_range), rows);
    }
  }
  EXPECT_EQ((*disk)->buffer_pool().pinned_frames(), 0u);

  // An event appended after a columnar scan reaches the next scan of
  // either kind, while the earlier decomposition stays a valid snapshot.
  TableColumnsPtr before = stream->MaterializedColumns(tf);
  ASSERT_NE(before, nullptr);
  ASSERT_OK(stream->Append(DiskRow(2500)));
  TableColumnsPtr after = stream->MaterializedColumns(tf);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(before->num_rows, rows.size());
  EXPECT_EQ(after->num_rows, rows.size() + 1);
  std::vector<Row> appended = rows;
  appended.push_back(DiskRow(2500));
  RowBatch boxed;
  ColumnsToRows(SliceTableColumns(after, 0, after->num_rows, nullptr), &boxed);
  ExpectSameRows(boxed, appended);
  ExpectSameRows(DrainScan(*stream, ScanSpec{}), appended);
  // The log stays in rowtime order.
  EXPECT_FALSE(stream->Append(DiskRow(5)).ok());
}

// ---------------------------------------------------------------------------
// Key lookups through the executor: same rows and same page reads at every
// thread count
// ---------------------------------------------------------------------------

// `items` (id key, name, score) is the key-filtered table; `lines` (lid key,
// item, qty) is the build side of the d_join2-shaped join. Both ANALYZEd,
// 16-page pools, 2-page scan units.
class KeyLookupTest : public StorageTest {
 protected:
  static constexpr int64_t kItems = 6000;
  static constexpr int64_t kLines = 12000;

  void SetUp() override {
    StorageTest::SetUp();
    TypeFactory tf;
    auto int_t = tf.CreateSqlType(SqlTypeName::kInteger);
    auto dbl_t = tf.CreateSqlType(SqlTypeName::kDouble);
    lines_type_ =
        tf.CreateStructType({"lid", "item", "qty"}, {int_t, int_t, dbl_t});
    std::vector<Row> lines;
    for (int64_t i = 0; i < kLines; ++i) {
      lines.push_back({Value::Int(i), Value::Int(i % kItems),
                       Value::Double(static_cast<double>(i % 7))});
    }
    for (const auto& [name, type, rows] :
         {std::make_tuple("items", DiskRowType(tf), DiskRows(kItems)),
          std::make_tuple("lines", lines_type_, lines)}) {
      auto table = DiskTable::Create(Path(name), type, 0, Options());
      ASSERT_OK(table.status());
      ASSERT_OK((*table)->InsertRows(rows));
      ASSERT_OK((*table)->Analyze());
      ASSERT_OK((*table)->Flush());
    }
  }

  static DiskTableOptions Options() {
    DiskTableOptions opts;
    opts.pool_pages = 16;
    opts.pages_per_run = 2;
    return opts;
  }

  // Reopens both tables from their files (cold pools) into a fresh schema.
  void Reopen() {
    TypeFactory tf;
    auto items = DiskTable::Open(Path("items"), DiskRowType(tf), Options());
    ASSERT_OK(items.status());
    auto lines = DiskTable::Open(Path("lines"), lines_type_, Options());
    ASSERT_OK(lines.status());
    items_ = *items;
    schema_ = std::make_shared<Schema>();
    schema_->AddTable("items", items_);
    schema_->AddTable("lines", *lines);
    ASSERT_GT(items_->heap_page_count(), 2 * Options().pool_pages);
  }

  std::unique_ptr<Connection> Connect(size_t threads, AccessPath path,
                                      size_t batch_size) {
    Connection::Config config;
    config.schema = schema_;
    config.exec_options.num_threads = threads;
    config.exec_options.access_path = path;
    config.exec_options.batch_size = batch_size;
    return std::make_unique<Connection>(std::move(config));
  }

  static std::vector<std::string> Sorted(const std::vector<Row>& rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) out.push_back(RowToString(row));
    std::sort(out.begin(), out.end());
    return out;
  }

  RelDataTypePtr lines_type_;
  SchemaPtr schema_;
  std::shared_ptr<DiskTable> items_;
};

// Each query's pushed key range selects < 1% of items, so ANALYZE-based
// kAuto resolves it to the B-tree.
const std::vector<std::pair<std::string, std::string>>& KeyLookupQueries() {
  static const std::vector<std::pair<std::string, std::string>> queries = {
      {"point", "SELECT id, name FROM items WHERE id = 1234"},
      {"range", "SELECT id, score FROM items WHERE id >= 1000 AND id < 1040"},
      {"between", "SELECT id, score FROM items WHERE id BETWEEN 2000 AND 2039"},
      {"join",
       "SELECT i.name, COUNT(*) AS cnt, SUM(l.qty) AS qty FROM items i "
       "JOIN lines l ON i.id = l.item WHERE i.id >= 300 AND i.id < 340 "
       "GROUP BY i.name"},
  };
  return queries;
}

TEST_F(KeyLookupTest, EveryConfigurationMatchesTheRowOracle) {
  Reopen();
  for (const auto& [name, sql] : KeyLookupQueries()) {
    auto serial = Connect(1, AccessPath::kAuto, 1024);
    auto logical = serial->ParseQuery(sql);
    ASSERT_OK(logical.status());
    auto plan = serial->OptimizePlan(*logical);
    ASSERT_OK(plan.status());
    auto oracle = calcite::testing::OracleRows(*plan);
    ASSERT_OK(oracle.status());
    ASSERT_FALSE(oracle->empty()) << name;
    const std::vector<std::string> want = Sorted(*oracle);
    for (size_t threads : {1, 4}) {
      for (AccessPath path : {AccessPath::kAuto, AccessPath::kForceIndex,
                              AccessPath::kForceHeap}) {
        for (size_t batch : {1, 1024}) {
          auto got = Connect(threads, path, batch)->ExecutePlan(*plan);
          ASSERT_OK(got.status());
          EXPECT_EQ(Sorted(got->rows), want)
              << name << " threads=" << threads
              << " path=" << static_cast<int>(path) << " batch=" << batch;
        }
      }
    }
  }
  EXPECT_EQ(items_->buffer_pool().pinned_frames(), 0u);
}

TEST_F(KeyLookupTest, IndexLookupsReadTheSamePagesAtFourThreads) {
  for (const auto& [name, sql] : KeyLookupQueries()) {
    std::vector<uint64_t> reads;
    for (size_t threads : {1, 4}) {
      Reopen();
      const uint64_t before = items_->buffer_pool().disk_reads();
      auto got = Connect(threads, AccessPath::kAuto, 1024)->Query(sql);
      ASSERT_OK(got.status());
      EXPECT_TRUE(items_->last_scan_used_index()) << name;
      reads.push_back(items_->buffer_pool().disk_reads() - before);
    }
    EXPECT_EQ(reads[1], reads[0]) << name;
    EXPECT_LT(reads[1], items_->heap_page_count() / 4) << name;
  }
}

TEST_F(KeyLookupTest, ParallelHeapScanClearsTheIndexFlag) {
  Reopen();
  const std::string sql = "SELECT id FROM items WHERE id < 100";
  ASSERT_OK(Connect(1, AccessPath::kForceIndex, 1024)->Query(sql).status());
  EXPECT_TRUE(items_->last_scan_used_index());
  auto heap = Connect(4, AccessPath::kForceHeap, 1024)->Query(sql);
  ASSERT_OK(heap.status());
  EXPECT_EQ(heap->rows.size(), 100u);
  EXPECT_FALSE(items_->last_scan_used_index());
}

}  // namespace
}  // namespace calcite::storage
