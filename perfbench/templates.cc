#include "templates.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

using calcite::Row;
using calcite::Value;

namespace {

std::string Q(const std::string& s) { return "'" + s + "'"; }
std::string N(int64_t v) { return std::to_string(v); }
/// Two-decimal literal; k/100.0 is the double the engine parses it to.
std::string Hundredths(int64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(k) / 100.0);
  return buf;
}

Params P(int64_t i0 = 0, int64_t i1 = 0, int64_t i2 = 0) {
  Params p;
  p.i0 = i0;
  p.i1 = i1;
  p.i2 = i2;
  return p;
}

Value V(int64_t v) { return Value::Int(v); }
Value V(double v) { return Value::Double(v); }
Value V(const std::string& v) { return Value::String(v); }

/// SQL SUM over a nullable input: NULL when no non-NULL value was added.
struct Sum {
  double total = 0;
  bool any = false;
  void Add(double v) {
    total += v;
    any = true;
  }
  Value Get() const { return any ? Value::Double(total) : Value::Null(); }
};

int64_t NumOrders(const Dataset& d) {
  return static_cast<int64_t>(d.orders.size());
}

// ------------------------------ analytic ---------------------------------

std::vector<Row> PricingOracle(const Dataset& d, const Params& p) {
  struct Acc {
    double qty = 0, base = 0;
    Sum disc_price, charge;
    double disc_total = 0;
    int64_t disc_n = 0, n = 0;
  };
  std::map<std::pair<std::string, std::string>, Acc> groups;
  for (const LineItem& l : d.lineitem) {
    if (l.shipdate > p.i0) continue;
    Acc& a = groups[{l.returnflag, l.linestatus}];
    a.qty += l.quantity;
    a.base += l.extprice;
    if (l.discount) {
      a.disc_price.Add(l.extprice * (1 - *l.discount));
      a.charge.Add(l.extprice * (1 - *l.discount) * (1 + l.tax));
      a.disc_total += *l.discount;
      ++a.disc_n;
    }
    ++a.n;
  }
  std::vector<Row> out;
  for (const auto& [k, a] : groups) {
    out.push_back({V(k.first), V(k.second), V(a.qty), V(a.base),
                   a.disc_price.Get(), a.charge.Get(),
                   V(a.qty / static_cast<double>(a.n)),
                   a.disc_n ? V(a.disc_total / static_cast<double>(a.disc_n))
                            : Value::Null(),
                   V(a.n)});
  }
  return out;
}

std::vector<Row> SelectiveOracle(const Dataset& d, const Params& p) {
  const double lo = static_cast<double>(p.i1 - 1) / 100.0;
  const double hi = static_cast<double>(p.i1 + 1) / 100.0;
  Sum revenue;
  for (const LineItem& l : d.lineitem) {
    if (l.shipdate >= p.i0 && l.shipdate < p.i0 + 365 && l.discount &&
        *l.discount >= lo && *l.discount <= hi &&
        l.quantity < static_cast<double>(p.i2)) {
      revenue.Add(l.extprice * *l.discount);
    }
  }
  return {{revenue.Get()}};
}

std::vector<Row> Join3TopkOracle(const Dataset& d, const Params& p) {
  std::unordered_set<int64_t> custs;
  for (const Customer& c : d.customer) {
    if (c.segment == p.s0) custs.insert(c.key);
  }
  std::unordered_map<int64_t, int64_t> order_date;
  for (const Order& o : d.orders) {
    if (o.date < p.i0 && custs.count(o.cust)) order_date[o.key] = o.date;
  }
  std::map<int64_t, double> revenue;
  for (const LineItem& l : d.lineitem) {
    if (l.shipdate > p.i0 && l.discount && order_date.count(l.order)) {
      revenue[l.order] += l.extprice * (1 - *l.discount);
    }
  }
  std::vector<std::pair<double, int64_t>> ranked;
  for (const auto& [key, rev] : revenue) ranked.push_back({rev, key});
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<Row> out;
  for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
    out.push_back({V(ranked[i].second), V(order_date[ranked[i].second]),
                   V(ranked[i].first)});
  }
  return out;
}

std::vector<Row> Join4Oracle(const Dataset& d, const Params& p) {
  std::unordered_map<int64_t, int64_t> cust_nation;
  for (const Customer& c : d.customer) cust_nation[c.key] = c.nation;
  std::unordered_map<int64_t, int64_t> order_nation;
  for (const Order& o : d.orders) {
    if (o.date >= p.i0 && o.date < p.i0 + 365) {
      order_nation[o.key] = cust_nation.at(o.cust);
    }
  }
  std::map<std::string, std::pair<int64_t, double>> groups;
  for (const LineItem& l : d.lineitem) {
    auto it = order_nation.find(l.order);
    if (it == order_nation.end()) continue;
    auto& g = groups[d.nation[static_cast<size_t>(it->second)].name];
    ++g.first;
    g.second += l.extprice;
  }
  std::vector<Row> out;
  for (const auto& [name, g] : groups) {
    out.push_back({V(name), V(g.first), V(g.second)});
  }
  return out;
}

std::vector<Row> LeftJoinOracle(const Dataset& d, const Params& p) {
  std::unordered_map<int64_t, int64_t> counts;
  for (const Order& o : d.orders) {
    if (o.priority == p.s0) ++counts[o.cust];
  }
  std::vector<Row> out;
  for (const Customer& c : d.customer) {
    auto it = counts.find(c.key);
    out.push_back({V(c.key), V(c.name),
                   V(it == counts.end() ? int64_t{0} : it->second)});
  }
  return out;
}

std::vector<Row> GroupBy2Oracle(const Dataset& d, const Params& p) {
  struct Acc {
    int64_t n = 0;
    double qty = 0, lo = 0, hi = 0;
  };
  std::map<std::pair<std::string, std::string>, Acc> groups;
  for (const LineItem& l : d.lineitem) {
    if (l.shipdate < p.i0) continue;
    Acc& a = groups[{l.shipmode, l.returnflag}];
    if (a.n == 0) a.lo = a.hi = l.extprice;
    ++a.n;
    a.qty += l.quantity;
    a.lo = std::min(a.lo, l.extprice);
    a.hi = std::max(a.hi, l.extprice);
  }
  std::vector<Row> out;
  for (const auto& [k, a] : groups) {
    out.push_back(
        {V(k.first), V(k.second), V(a.n), V(a.qty), V(a.lo), V(a.hi)});
  }
  return out;
}

std::vector<Row> CaseLikeOracle(const Dataset& d, const Params& p) {
  struct Acc {
    double promo = 0;
    int64_t undiscounted = 0, n = 0;
  };
  std::map<std::string, Acc> groups;
  for (const LineItem& l : d.lineitem) {
    if (l.shipdate < p.i0 || l.shipdate >= p.i0 + 30) continue;
    const Part& part = d.part[static_cast<size_t>(l.part - 1)];
    Acc& a = groups[part.brand];
    if (part.type.rfind("PROMO", 0) == 0) a.promo += l.extprice;
    if (!l.discount) ++a.undiscounted;
    ++a.n;
  }
  std::vector<Row> out;
  for (const auto& [brand, a] : groups) {
    out.push_back({V(brand), V(a.promo), V(a.undiscounted), V(a.n)});
  }
  return out;
}

std::vector<Row> WindowOracle(const Dataset& d, const Params& p) {
  std::vector<const Order*> kept;
  std::unordered_map<int64_t, double> totals;
  for (const Order& o : d.orders) {
    if (o.date >= p.i0 && o.date < p.i0 + 90) {
      kept.push_back(&o);
      totals[o.cust] += o.totalprice;
    }
  }
  std::vector<Row> out;
  for (const Order* o : kept) {
    out.push_back(
        {V(o->cust), V(o->key), V(o->totalprice), V(totals[o->cust])});
  }
  return out;
}

std::vector<Row> UnionOracle(const Dataset& d, const Params& p) {
  std::set<int64_t> keys;
  for (const Order& o : d.orders) {
    if (o.totalprice > static_cast<double>(p.i0)) keys.insert(o.cust);
  }
  for (const Customer& c : d.customer) {
    if (c.acctbal < static_cast<double>(p.i1)) keys.insert(c.key);
  }
  std::vector<Row> out;
  for (int64_t k : keys) out.push_back({V(k)});
  return out;
}

std::vector<Row> TopnOracle(const Dataset& d, const Params& p) {
  std::vector<const LineItem*> kept;
  for (const LineItem& l : d.lineitem) {
    if (l.shipmode == p.s0) kept.push_back(&l);
  }
  const size_t n = std::min<size_t>(20, kept.size());
  std::partial_sort(kept.begin(), kept.begin() + static_cast<long>(n),
                    kept.end(), [](const LineItem* a, const LineItem* b) {
                      if (a->extprice != b->extprice) {
                        return a->extprice > b->extprice;
                      }
                      if (a->order != b->order) return a->order < b->order;
                      return a->line < b->line;
                    });
  std::vector<Row> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back({V(kept[i]->order), V(kept[i]->line), V(kept[i]->extprice)});
  }
  return out;
}

// -------------------------------- short ----------------------------------

std::vector<Row> PointOracle(const Dataset& d, const Params& p) {
  std::vector<Row> out;
  for (const Order& o : d.orders) {
    if (o.key == p.i0) {
      out.push_back({V(o.key), V(o.cust), V(o.totalprice), V(o.status),
                     V(o.priority)});
    }
  }
  return out;
}

std::vector<Row> Join2Oracle(const Dataset& d, const Params& p) {
  std::vector<Row> out;
  for (const Nation& n : d.nation) {
    const Region& r = d.region[static_cast<size_t>(n.region)];
    if (r.name == p.s0) out.push_back({V(n.name), V(r.name)});
  }
  return out;
}

std::vector<Row> Join3Oracle(const Dataset& d, const Params& p) {
  std::vector<Row> out;
  for (const Customer& c : d.customer) {
    if (c.key < p.i0 || c.key >= p.i0 + 10) continue;
    const Nation& n = d.nation[static_cast<size_t>(c.nation)];
    out.push_back({V(c.key), V(c.name), V(n.name),
                   V(d.region[static_cast<size_t>(n.region)].name)});
  }
  return out;
}

std::vector<Row> SmallGroupByOracle(const Dataset& d, const Params& p) {
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
  for (const Nation& n : d.nation) {
    if (n.key >= p.i0) continue;
    auto [it, fresh] = groups.try_emplace(n.region, 0, n.key);
    ++it->second.first;
    it->second.second = std::max(it->second.second, n.key);
  }
  std::vector<Row> out;
  for (const auto& [region, g] : groups) {
    out.push_back({V(region), V(g.first), V(g.second)});
  }
  return out;
}

std::vector<Row> CaseInOracle(const Dataset& d, const Params& p) {
  const std::set<int64_t> wanted = {p.i2, (p.i2 + 7) % 25, (p.i2 + 13) % 25};
  std::vector<Row> out;
  for (const Nation& n : d.nation) {
    if (!wanted.count(n.key)) continue;
    const bool near = n.region == p.i0 || n.region == p.i1;
    out.push_back({V(n.key), V(n.name), V(std::string(near ? "near" : "far"))});
  }
  return out;
}

std::vector<Row> SmallUnionOracle(const Dataset& d, const Params& p) {
  std::set<std::string> names;
  for (const Region& r : d.region) {
    if (r.key == p.i0) names.insert(r.name);
  }
  for (const Nation& n : d.nation) {
    if (n.key == p.i1) names.insert(n.name);
  }
  std::vector<Row> out;
  for (const std::string& name : names) out.push_back({V(name)});
  return out;
}

// -------------------------------- disk -----------------------------------

template <typename Keep, typename Emit>
std::vector<Row> LineitemFilter(const Dataset& d, Keep keep, Emit emit) {
  std::vector<Row> out;
  for (const LineItem& l : d.lineitem) {
    if (keep(l)) out.push_back(emit(l));
  }
  return out;
}

int64_t NumLineitems(const Dataset& d) {
  return static_cast<int64_t>(d.lineitem.size());
}

std::vector<Row> DiskScanAggOracle(const Dataset& d, const Params& p) {
  std::map<std::string, std::pair<int64_t, double>> groups;
  for (const LineItem& l : d.lineitem) {
    if (l.shipdate >= p.i0) continue;
    auto& g = groups[l.returnflag];
    ++g.first;
    g.second += l.extprice;
  }
  std::vector<Row> out;
  for (const auto& [flag, g] : groups) {
    out.push_back({V(flag), V(g.first), V(g.second)});
  }
  return out;
}

std::vector<Row> DiskJoin2Oracle(const Dataset& d, const Params& p) {
  std::unordered_map<int64_t, const std::string*> prio;
  for (const Order& o : d.orders) {
    if (o.key >= p.i0 && o.key < p.i0 + 500) prio[o.key] = &o.priority;
  }
  std::map<std::string, std::pair<int64_t, double>> groups;
  for (const LineItem& l : d.lineitem) {
    auto it = prio.find(l.order);
    if (it == prio.end()) continue;
    auto& g = groups[*it->second];
    ++g.first;
    g.second += l.quantity;
  }
  std::vector<Row> out;
  for (const auto& [name, g] : groups) {
    out.push_back({V(name), V(g.first), V(g.second)});
  }
  return out;
}

std::vector<Template> BuildTemplates() {
  std::vector<Template> t;
  // Q1-shaped pricing summary: arithmetic aggregates over most of lineitem.
  t.push_back({"a_pricing", true, {"lineitem"},
               [](Rng& r, const Dataset&) { return P(r.Uniform(1500, 2300)); },
               [](const Params& p) {
                 return "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS "
                        "sum_qty, SUM(l_extendedprice) AS sum_base_price, "
                        "SUM(l_extendedprice * (1 - l_discount)) AS "
                        "sum_disc_price, SUM(l_extendedprice * "
                        "(1 - l_discount) * (1 + l_tax)) AS sum_charge, "
                        "AVG(l_quantity) AS avg_qty, AVG(l_discount) AS "
                        "avg_disc, COUNT(*) AS "
                        "count_order FROM lineitem WHERE l_shipdate <= " +
                        N(p.i0) +
                        " GROUP BY l_returnflag, l_linestatus ORDER BY "
                        "l_returnflag, l_linestatus";
               },
               PricingOracle});
  // Q6-shaped selective range conjunction.
  t.push_back({"a_selective", false, {"lineitem"},
               [](Rng& r, const Dataset&) {
                 return P(365 * r.Uniform(0, 5), r.Uniform(2, 9),
                               r.Uniform(24, 25));
               },
               [](const Params& p) {
                 return "SELECT SUM(l_extendedprice * l_discount) AS revenue "
                        "FROM lineitem WHERE l_shipdate >= " + N(p.i0) +
                        " AND l_shipdate < " + N(p.i0 + 365) +
                        " AND l_discount >= " + Hundredths(p.i1 - 1) +
                        " AND l_discount <= " + Hundredths(p.i1 + 1) +
                        " AND l_quantity < " + N(p.i2);
               },
               SelectiveOracle});
  // Q3-shaped three-way join with a top-k.
  t.push_back({"a_join3_topk", true, {"customer", "orders", "lineitem"},
               [](Rng& r, const Dataset&) {
                 Params p = P(r.Uniform(1000, 1600));
                 p.s0 = kSegments[r.Uniform(0, 4)];
                 return p;
               },
               [](const Params& p) {
                 return "SELECT o.o_orderkey, o.o_orderdate, "
                        "SUM(l.l_extendedprice * (1 - l.l_discount)) AS "
                        "revenue FROM customer c JOIN orders o ON "
                        "c.c_custkey = o.o_custkey JOIN lineitem l ON "
                        "l.l_orderkey = o.o_orderkey WHERE c.c_mktsegment = " +
                        Q(p.s0) +
                        " AND o.o_orderdate < " + N(p.i0) +
                        " AND l.l_shipdate > " + N(p.i0) +
                        " AND l.l_discount IS NOT NULL GROUP BY o.o_orderkey, "
                        "o.o_orderdate ORDER BY revenue DESC, o.o_orderkey "
                        "LIMIT 10";
               },
               Join3TopkOracle});
  t.push_back({"a_join4", false, {"lineitem", "orders", "customer", "nation"},
               [](Rng& r, const Dataset&) { return P(365 * r.Uniform(0, 5)); },
               [](const Params& p) {
                 return "SELECT n.n_name, COUNT(*) AS cnt, "
                        "SUM(l.l_extendedprice) AS revenue FROM lineitem l "
                        "JOIN orders o ON l.l_orderkey = o.o_orderkey JOIN "
                        "customer c ON o.o_custkey = c.c_custkey JOIN nation n "
                        "ON c.c_nationkey = n.n_nationkey WHERE o.o_orderdate "
                        ">= " + N(p.i0) + " AND o.o_orderdate < " +
                        N(p.i0 + 365) + " GROUP BY n.n_name";
               },
               Join4Oracle});
  t.push_back({"a_left_join", false, {"customer", "orders"},
               [](Rng& r, const Dataset&) {
                 Params p;
                 p.s0 = kPriorities[r.Uniform(0, 4)];
                 return p;
               },
               [](const Params& p) {
                 return "SELECT c.c_custkey, c.c_name, COUNT(o.o_orderkey) AS "
                        "order_count FROM customer c LEFT JOIN orders o ON "
                        "c.c_custkey = o.o_custkey AND o.o_orderpriority = " +
                        Q(p.s0) + " GROUP BY c.c_custkey, c.c_name";
               },
               LeftJoinOracle});
  t.push_back({"a_groupby2", false, {"lineitem"},
               [](Rng& r, const Dataset&) { return P(r.Uniform(0, 2000)); },
               [](const Params& p) {
                 return "SELECT l_shipmode, l_returnflag, COUNT(*) AS cnt, "
                        "SUM(l_quantity) AS sum_qty, MIN(l_extendedprice) AS "
                        "min_price, MAX(l_extendedprice) AS max_price FROM "
                        "lineitem WHERE l_shipdate >= " + N(p.i0) +
                        " GROUP BY l_shipmode, l_returnflag";
               },
               GroupBy2Oracle});
  t.push_back({"a_case_like", false, {"lineitem", "part"},
               [](Rng& r, const Dataset&) { return P(r.Uniform(0, 2400)); },
               [](const Params& p) {
                 return "SELECT p.p_brand, SUM(CASE WHEN p.p_type LIKE "
                        "'PROMO%' THEN l.l_extendedprice ELSE 0.0 END) AS "
                        "promo_revenue, SUM(CASE WHEN l.l_discount IS NULL "
                        "THEN 1 ELSE 0 END) AS undiscounted, COUNT(*) AS cnt "
                        "FROM lineitem l JOIN part p ON "
                        "l.l_partkey = p.p_partkey WHERE l.l_shipdate >= " +
                        N(p.i0) +
                        " AND l.l_shipdate < " + N(p.i0 + 30) +
                        " GROUP BY p.p_brand";
               },
               CaseLikeOracle});
  t.push_back({"a_window", false, {"orders"},
               [](Rng& r, const Dataset&) { return P(r.Uniform(0, 2300)); },
               [](const Params& p) {
                 return "SELECT o_custkey, o_orderkey, o_totalprice, "
                        "SUM(o_totalprice) OVER (PARTITION BY o_custkey) AS "
                        "cust_total FROM orders WHERE o_orderdate >= " +
                        N(p.i0) + " AND o_orderdate < " + N(p.i0 + 90);
               },
               WindowOracle});
  t.push_back({"a_union", false, {"orders", "customer"},
               [](Rng& r, const Dataset&) {
                 return P(r.Uniform(350000, 450000), r.Uniform(-900, 0));
               },
               [](const Params& p) {
                 return "SELECT o_custkey AS k FROM orders WHERE "
                        "o_totalprice > " + N(p.i0) +
                        " UNION SELECT c_custkey FROM customer WHERE "
                        "c_acctbal < " + N(p.i1);
               },
               UnionOracle});
  t.push_back({"a_topn", true, {"lineitem"},
               [](Rng& r, const Dataset&) {
                 Params p;
                 p.s0 = kShipModes[r.Uniform(0, 6)];
                 return p;
               },
               [](const Params& p) {
                 return "SELECT l_orderkey, l_linenumber, l_extendedprice FROM "
                        "lineitem WHERE l_shipmode = " + Q(p.s0) +
                        " ORDER BY l_extendedprice DESC, l_orderkey, "
                        "l_linenumber LIMIT 20";
               },
               TopnOracle});

  t.push_back({"s_point", false, {"orders"},
               [](Rng& r, const Dataset& d) {
                 return P(r.Uniform(1, NumOrders(d)));
               },
               [](const Params& p) {
                 return "SELECT o_orderkey, o_custkey, o_totalprice, "
                        "o_orderstatus, o_orderpriority FROM orders WHERE "
                        "o_orderkey = " + N(p.i0);
               },
               PointOracle});
  t.push_back({"s_join2", false, {"nation", "region"},
               [](Rng& r, const Dataset&) {
                 Params p;
                 p.s0 = kRegionNames[r.Uniform(0, 4)];
                 return p;
               },
               [](const Params& p) {
                 return "SELECT n.n_name, r.r_name FROM nation n JOIN region r "
                        "ON n.n_regionkey = r.r_regionkey WHERE r.r_name = " +
                        Q(p.s0);
               },
               Join2Oracle});
  t.push_back({"s_join3", false, {"customer", "nation", "region"},
               [](Rng& r, const Dataset& d) {
                 const auto customers = static_cast<int64_t>(d.customer.size());
                 return P(r.Uniform(1, customers - 9));
               },
               [](const Params& p) {
                 return "SELECT c.c_custkey, c.c_name, n.n_name, r.r_name FROM "
                        "customer c JOIN nation n ON c.c_nationkey = "
                        "n.n_nationkey JOIN region r ON n.n_regionkey = "
                        "r.r_regionkey WHERE c.c_custkey >= " + N(p.i0) +
                        " AND c.c_custkey < " + N(p.i0 + 10);
               },
               Join3Oracle});
  t.push_back({"s_groupby", false, {"nation"},
               [](Rng& r, const Dataset&) { return P(r.Uniform(1, 25)); },
               [](const Params& p) {
                 return "SELECT n_regionkey, COUNT(*) AS cnt, MAX(n_nationkey) "
                        "AS max_key FROM nation WHERE n_nationkey < " +
                        N(p.i0) + " GROUP BY n_regionkey";
               },
               SmallGroupByOracle});
  t.push_back({"s_case_in", false, {"nation"},
               [](Rng& r, const Dataset&) {
                 const int64_t a = r.Uniform(0, 4);
                 return P(a, (a + r.Uniform(1, 4)) % 5, r.Uniform(0, 24));
               },
               [](const Params& p) {
                 return "SELECT n_nationkey, n_name, CASE WHEN n_regionkey "
                        "IN (" + N(p.i0) + ", " + N(p.i1) +
                        ") THEN 'near' ELSE 'far' END AS zone FROM nation "
                        "WHERE n_nationkey IN (" + N(p.i2) + ", " +
                        N((p.i2 + 7) % 25) + ", " + N((p.i2 + 13) % 25) + ")";
               },
               CaseInOracle});
  t.push_back({"s_union", false, {"region", "nation"},
               [](Rng& r, const Dataset&) {
                 return P(r.Uniform(0, 4), r.Uniform(0, 24));
               },
               [](const Params& p) {
                 return "SELECT r_name AS name FROM region WHERE "
                        "r_regionkey = " + N(p.i0) +
                        " UNION SELECT n_name FROM nation WHERE "
                        "n_nationkey = " + N(p.i1);
               },
               SmallUnionOracle});

  t.push_back({"d_point_key", false, {"lineitem"},
               [](Rng& r, const Dataset& d) {
                 return P(r.Uniform(1, NumLineitems(d)));
               },
               [](const Params& p) {
                 return "SELECT l_id, l_orderkey, l_quantity, l_extendedprice, "
                        "l_shipmode FROM lineitem WHERE l_id = " + N(p.i0);
               },
               [](const Dataset& d, const Params& p) {
                 return LineitemFilter(
                     d, [&](const LineItem& l) { return l.id == p.i0; },
                     [](const LineItem& l) -> Row {
                       return {V(l.id), V(l.order), V(l.quantity),
                               V(l.extprice), V(l.shipmode)};
                     });
               }});
  t.push_back({"d_range_key", false, {"lineitem"},
               [](Rng& r, const Dataset& d) {
                 return P(r.Uniform(1, NumLineitems(d) - 199));
               },
               [](const Params& p) {
                 return "SELECT l_id, l_extendedprice FROM lineitem WHERE l_id "
                        ">= " + N(p.i0) + " AND l_id < " + N(p.i0 + 200);
               },
               [](const Dataset& d, const Params& p) {
                 return LineitemFilter(
                     d,
                     [&](const LineItem& l) {
                       return l.id >= p.i0 && l.id < p.i0 + 200;
                     },
                     [](const LineItem& l) -> Row {
                       return {V(l.id), V(l.extprice)};
                     });
               }});
  t.push_back({"d_between_key", false, {"lineitem"},
               [](Rng& r, const Dataset& d) {
                 return P(r.Uniform(1, NumLineitems(d) - 199));
               },
               [](const Params& p) {
                 return "SELECT l_id, l_quantity FROM lineitem WHERE l_id "
                        "BETWEEN " + N(p.i0) + " AND " + N(p.i0 + 199);
               },
               [](const Dataset& d, const Params& p) {
                 return LineitemFilter(
                     d,
                     [&](const LineItem& l) {
                       return l.id >= p.i0 && l.id <= p.i0 + 199;
                     },
                     [](const LineItem& l) -> Row {
                       return {V(l.id), V(l.quantity)};
                     });
               }});
  t.push_back({"d_nonkey_filter", false, {"lineitem"},
               [](Rng& r, const Dataset&) {
                 Params p = P(r.Uniform(45, 48));
                 p.s0 = kShipModes[r.Uniform(0, 6)];
                 return p;
               },
               [](const Params& p) {
                 return "SELECT l_id, l_extendedprice FROM lineitem WHERE "
                        "l_quantity > " + N(p.i0) +
                        " AND l_shipmode = " + Q(p.s0);
               },
               [](const Dataset& d, const Params& p) {
                 return LineitemFilter(
                     d,
                     [&](const LineItem& l) {
                       return l.quantity > static_cast<double>(p.i0) &&
                              l.shipmode == p.s0;
                     },
                     [](const LineItem& l) -> Row {
                       return {V(l.id), V(l.extprice)};
                     });
               }});
  t.push_back({"d_scan_agg", false, {"lineitem"},
               [](Rng& r, const Dataset&) { return P(r.Uniform(1000, 2500)); },
               [](const Params& p) {
                 return "SELECT l_returnflag, COUNT(*) AS cnt, "
                        "SUM(l_extendedprice) AS revenue FROM lineitem WHERE "
                        "l_shipdate < " + N(p.i0) + " GROUP BY l_returnflag";
               },
               DiskScanAggOracle});
  t.push_back({"d_join2", false, {"orders", "lineitem"},
               [](Rng& r, const Dataset& d) {
                 return P(r.Uniform(1, NumOrders(d) - 499));
               },
               [](const Params& p) {
                 return "SELECT o.o_orderpriority, COUNT(*) AS cnt, "
                        "SUM(l.l_quantity) AS qty FROM orders o JOIN "
                        "lineitem l ON o.o_orderkey = l.l_orderkey WHERE "
                        "o.o_orderkey >= " + N(p.i0) +
                        " AND o.o_orderkey < " + N(p.i0 + 500) +
                        " GROUP BY o.o_orderpriority";
               },
               DiskJoin2Oracle});
  return t;
}

/// Total order for canonical sorting: NULL < numbers < strings < booleans.
int Rank(const Value& v) {
  if (v.IsNull()) return 0;
  if (v.is_numeric()) return 1;
  if (v.is_string()) return 2;
  return 3;
}

bool ValueLess(const Value& a, const Value& b) {
  if (Rank(a) != Rank(b)) return Rank(a) < Rank(b);
  if (a.is_numeric()) return a.AsDouble() < b.AsDouble();
  if (a.is_string()) return a.AsString() < b.AsString();
  if (a.is_bool()) return a.AsBool() < b.AsBool();
  return false;
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      ValueLess);
}

bool ValueMatches(const Value& got, const Value& want) {
  if (got.IsNull() || want.IsNull()) return got.IsNull() && want.IsNull();
  if (got.is_numeric() && want.is_numeric()) {
    const double g = got.AsDouble(), w = want.AsDouble();
    const double scale = std::max({1.0, std::fabs(g), std::fabs(w)});
    return std::fabs(g - w) <= 1e-9 * scale;
  }
  if (got.is_string() && want.is_string()) {
    return got.AsString() == want.AsString();
  }
  if (got.is_bool() && want.is_bool()) return got.AsBool() == want.AsBool();
  return false;
}

std::string RowText(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i ? ", " : "") + row[i].ToString();
  }
  return out + ")";
}

}  // namespace

const std::vector<Template>& AllTemplates() {
  static const std::vector<Template> templates = BuildTemplates();
  return templates;
}

const Template& FindTemplate(const std::string& name) {
  for (const Template& t : AllTemplates()) {
    if (name == t.name) return t;
  }
  throw std::invalid_argument("unknown template " + name);
}

bool SameResult(std::vector<Row> got, std::vector<Row> want, bool ordered,
                std::string* why) {
  if (got.size() != want.size()) {
    *why = "row count " + std::to_string(got.size()) + ", expected " +
           std::to_string(want.size());
    return false;
  }
  if (!ordered) {
    std::sort(got.begin(), got.end(), RowLess);
    std::sort(want.begin(), want.end(), RowLess);
  }
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].size() == want[i].size();
    for (size_t c = 0; same && c < got[i].size(); ++c) {
      same = ValueMatches(got[i][c], want[i][c]);
    }
    if (!same) {
      *why = "row " + std::to_string(i) + " is " + RowText(got[i]) +
             ", expected " + RowText(want[i]);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
