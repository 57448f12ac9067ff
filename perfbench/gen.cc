#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using calcite::Row;
using calcite::SqlTypeName;
using calcite::Value;

const char* const kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                  "MACHINERY", "HOUSEHOLD"};
const char* const kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                    "4-NOT SPECIFIED", "5-LOW"};
const char* const kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                   "TRUCK",   "MAIL", "FOB"};
const char* const kRegionNames[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                     "MIDDLE EAST"};

namespace {

const char* const kNationNames[25] = {
    "ALGERIA",   "ARGENTINA", "BRAZIL",  "CANADA",         "EGYPT",
    "ETHIOPIA",  "FRANCE",    "GERMANY", "INDIA",          "INDONESIA",
    "IRAN",      "IRAQ",      "JAPAN",   "JORDAN",         "KENYA",
    "MOROCCO",   "MOZAMBIQUE", "PERU",   "CHINA",          "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* const kTypeSize[6] = {"STANDARD", "SMALL", "MEDIUM",
                                  "LARGE",    "ECONOMY", "PROMO"};
const char* const kTypeFinish[5] = {"ANODIZED", "BURNISHED", "PLATED",
                                    "POLISHED", "BRUSHED"};
const char* const kTypeMetal[5] = {"TIN", "NICKEL", "BRASS", "STEEL",
                                   "COPPER"};
const char* const kColors[16] = {
    "almond", "azure",  "blush", "coral", "cyan",  "forest", "ivory", "khaki",
    "lemon",  "linen",  "navy",  "olive", "peach", "plum",   "sienna", "tan"};

/// Money in whole cents, so every price is an exact two-decimal value.
double Cents(int64_t cents) { return static_cast<double>(cents) / 100.0; }

std::string Padded(const char* prefix, int64_t key) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%09lld", prefix,
                static_cast<long long>(key));
  return buf;
}

double RetailPrice(int64_t partkey) {
  return Cents(90000 + (partkey / 10) % 20001 + 100 * (partkey % 1000));
}

}  // namespace

void AppendOrder(Rng& rng, int64_t orderkey, Dataset* data) {
  const int64_t customers = static_cast<int64_t>(data->customer.size());
  const int64_t parts = static_cast<int64_t>(data->part.size());
  // One customer in three never orders, so outer joins pad real rows.
  int64_t cust = rng.Uniform(1, customers);
  if (cust % 3 == 0) cust -= 1;
  Order o;
  o.key = orderkey;
  o.cust = cust;
  o.date = rng.Uniform(0, kMaxDate);
  o.priority = kPriorities[rng.Uniform(0, 4)];
  double total = 0;
  int shipped = 0;
  const int64_t lines = rng.Uniform(1, 7);
  int64_t next_id = data->lineitem.empty() ? 1 : data->lineitem.back().id + 1;
  for (int64_t line = 1; line <= lines; ++line) {
    LineItem l;
    l.id = next_id++;
    l.order = orderkey;
    l.line = line;
    l.part = rng.Uniform(1, parts);
    l.quantity = static_cast<double>(rng.Uniform(1, 50));
    l.extprice = Cents(static_cast<int64_t>(
        std::llround(l.quantity * RetailPrice(l.part) * 100)));
    if (rng.Uniform(0, 4) == 0) {
      l.discount = std::nullopt;
    } else {
      l.discount = Cents(rng.Uniform(0, 10));
    }
    l.tax = Cents(rng.Uniform(0, 8));
    l.shipdate = o.date + rng.Uniform(1, 121);
    if (l.shipdate <= kCurrentDate) {
      l.returnflag = rng.Uniform(0, 1) ? "R" : "A";
      l.linestatus = "F";
      ++shipped;
    } else {
      l.returnflag = "N";
      l.linestatus = "O";
    }
    l.shipmode = kShipModes[rng.Uniform(0, 6)];
    total += l.extprice * (1 + l.tax) * (1 - l.discount.value_or(0));
    data->lineitem.push_back(std::move(l));
  }
  o.status = shipped == lines ? "F" : (shipped == 0 ? "O" : "P");
  o.totalprice = Cents(static_cast<int64_t>(std::llround(total * 100)));
  data->orders.push_back(std::move(o));
}

Dataset Generate(uint64_t seed, double scale) {
  Rng rng(seed ^ 0xC0FFEE5EEDull);
  Dataset data;
  const int64_t orders =
      std::max<int64_t>(100, static_cast<int64_t>(std::llround(20000 * scale)));
  const int64_t customers = std::max<int64_t>(30, orders / 10);
  const int64_t parts = std::max<int64_t>(20, orders / 8);
  for (int64_t r = 0; r < 5; ++r) data.region.push_back({r, kRegionNames[r]});
  for (int64_t n = 0; n < 25; ++n) {
    data.nation.push_back({n, kNationNames[n], kNationRegion[n]});
  }
  data.customer.reserve(static_cast<size_t>(customers));
  for (int64_t c = 1; c <= customers; ++c) {
    data.customer.push_back({c, Padded("Customer#", c), rng.Uniform(0, 24),
                             Cents(rng.Uniform(-99999, 999999)),
                             kSegments[rng.Uniform(0, 4)]});
  }
  data.part.reserve(static_cast<size_t>(parts));
  for (int64_t p = 1; p <= parts; ++p) {
    Part part;
    part.key = p;
    part.name = std::string(kColors[rng.Uniform(0, 15)]) + " " +
                kColors[rng.Uniform(0, 15)] + " " + kColors[rng.Uniform(0, 15)];
    part.brand = "Brand#" + std::to_string(rng.Uniform(1, 5)) +
                 std::to_string(rng.Uniform(1, 5));
    part.type = std::string(kTypeSize[rng.Uniform(0, 5)]) + " " +
                kTypeFinish[rng.Uniform(0, 4)] + " " +
                kTypeMetal[rng.Uniform(0, 4)];
    part.size = rng.Uniform(1, 50);
    part.retailprice = RetailPrice(p);
    data.part.push_back(std::move(part));
  }
  data.orders.reserve(static_cast<size_t>(orders));
  data.lineitem.reserve(static_cast<size_t>(orders) * 4 + 8);
  for (int64_t o = 1; o <= orders; ++o) AppendOrder(rng, o, &data);
  return data;
}

RowTypes MakeRowTypes() {
  static calcite::TypeFactory tf;
  auto integer = tf.CreateSqlType(SqlTypeName::kInteger);
  auto dbl = tf.CreateSqlType(SqlTypeName::kDouble);
  auto dbl_null = tf.CreateSqlType(SqlTypeName::kDouble, -1, true);
  auto str = tf.CreateSqlType(SqlTypeName::kVarchar, 32);
  RowTypes t;
  t.region = tf.CreateStructType({"r_regionkey", "r_name"}, {integer, str});
  t.nation = tf.CreateStructType({"n_nationkey", "n_name", "n_regionkey"},
                                 {integer, str, integer});
  t.customer = tf.CreateStructType(
      {"c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_mktsegment"},
      {integer, str, integer, dbl, str});
  t.part = tf.CreateStructType({"p_partkey", "p_name", "p_brand", "p_type",
                                "p_size", "p_retailprice"},
                               {integer, str, str, str, integer, dbl});
  t.orders = tf.CreateStructType(
      {"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
       "o_orderdate", "o_orderpriority"},
      {integer, integer, str, dbl, integer, str});
  t.lineitem = tf.CreateStructType(
      {"l_id", "l_orderkey", "l_linenumber", "l_partkey", "l_quantity",
       "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
       "l_linestatus", "l_shipdate", "l_shipmode"},
      {integer, integer, integer, integer, dbl, dbl, dbl_null, dbl, str, str,
       integer, str});
  return t;
}

Row ToRow(const Region& r) {
  return {Value::Int(r.key), Value::String(r.name)};
}

Row ToRow(const Nation& n) {
  return {Value::Int(n.key), Value::String(n.name), Value::Int(n.region)};
}

Row ToRow(const Customer& c) {
  return {Value::Int(c.key), Value::String(c.name), Value::Int(c.nation),
          Value::Double(c.acctbal), Value::String(c.segment)};
}

Row ToRow(const Part& p) {
  return {Value::Int(p.key),     Value::String(p.name), Value::String(p.brand),
          Value::String(p.type), Value::Int(p.size),
          Value::Double(p.retailprice)};
}

Row ToRow(const Order& o) {
  return {Value::Int(o.key),           Value::Int(o.cust),
          Value::String(o.status),     Value::Double(o.totalprice),
          Value::Int(o.date),          Value::String(o.priority)};
}

Row ToRow(const LineItem& l) {
  return {Value::Int(l.id),
          Value::Int(l.order),
          Value::Int(l.line),
          Value::Int(l.part),
          Value::Double(l.quantity),
          Value::Double(l.extprice),
          l.discount ? Value::Double(*l.discount) : Value::Null(),
          Value::Double(l.tax),
          Value::String(l.returnflag),
          Value::String(l.linestatus),
          Value::Int(l.shipdate),
          Value::String(l.shipmode)};
}

}  // namespace perfbench
