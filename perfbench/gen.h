// Deterministic TPC-H-shaped data generator for the workload benchmark.
//
// Records are generated as plain structs (the oracle evaluates templates over
// these, never through the engine) and converted to engine rows separately.
// Everything derives from one 64-bit seed through a splitmix64 stream, so the
// same seed and scale always yield byte-identical tables on every platform.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "type/rel_data_type.h"
#include "type/value.h"

namespace perfbench {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo + 1);
    return lo + static_cast<int64_t>(Next() % span);
  }

 private:
  uint64_t state_;
};

struct Region {
  int64_t key;
  std::string name;
};
struct Nation {
  int64_t key;
  std::string name;
  int64_t region;
};
struct Customer {
  int64_t key;
  std::string name;
  int64_t nation;
  double acctbal;
  std::string segment;
};
struct Part {
  int64_t key;
  std::string name;
  std::string brand;
  std::string type;
  int64_t size;
  double retailprice;
};
struct Order {
  int64_t key;
  int64_t cust;
  std::string status;
  double totalprice;
  int64_t date;  // days since the epoch of the data set
  std::string priority;
};
struct LineItem {
  int64_t id;  // surrogate primary key, dense and ascending
  int64_t order;
  int64_t line;
  int64_t part;
  double quantity;
  double extprice;
  std::optional<double> discount;  // about 20% NULL
  double tax;
  std::string returnflag;
  std::string linestatus;
  int64_t shipdate;
  std::string shipmode;
};

struct Dataset {
  std::vector<Region> region;
  std::vector<Nation> nation;
  std::vector<Customer> customer;
  std::vector<Part> part;
  std::vector<Order> orders;
  std::vector<LineItem> lineitem;
};

/// Last order date; ship dates run up to kMaxDate + 121.
constexpr int64_t kMaxDate = 2400;
/// Ship dates at or before this are "shipped" (linestatus F, returnflag R/A).
constexpr int64_t kCurrentDate = 1800;

extern const char* const kSegments[5];
extern const char* const kPriorities[5];
extern const char* const kShipModes[7];
extern const char* const kRegionNames[5];

/// `scale` 1 gives 20000 orders and about 80000 lineitems.
Dataset Generate(uint64_t seed, double scale);

/// Appends one order (key `orderkey`) and its 1-7 lineitems, drawing every
/// field from `rng`; lineitem ids continue from the last one in `data`.
void AppendOrder(Rng& rng, int64_t orderkey, Dataset* data);

/// Engine-side schema and row conversion, one pair per table.
struct RowTypes {
  calcite::RelDataTypePtr region, nation, customer, part, orders, lineitem;
};
RowTypes MakeRowTypes();

calcite::Row ToRow(const Region& r);
calcite::Row ToRow(const Nation& n);
calcite::Row ToRow(const Customer& c);
calcite::Row ToRow(const Part& p);
calcite::Row ToRow(const Order& o);
calcite::Row ToRow(const LineItem& l);

template <typename T>
std::vector<calcite::Row> ToRows(const std::vector<T>& records) {
  std::vector<calcite::Row> rows;
  rows.reserve(records.size());
  for (const T& r : records) rows.push_back(ToRow(r));
  return rows;
}

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
