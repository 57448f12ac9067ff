// End-to-end SQL workload benchmark.
//
//   perfbench --workload analytic|short|disk|ingest --seed N --seconds S
//             --trace 0|1 [--scale X] [--data-dir DIR] [--trace-out FILE]
//   perfbench --self-test [--seed N] [--data-dir DIR]
//
// Every workload is a closed loop with one client: the next operation is
// issued only after the previous result has been drained. With --trace 0 the
// last stdout line carries the end-to-end metrics; with --trace 1 the run is
// repeated with each layer called one by one inside spans, and the last line
// carries the per-layer metrics. Lines before it start with '#' and hold the
// run metadata. See README.md in this directory for the metric definitions.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "exec/row_batch.h"
#include "exec/simd.h"
#include "gen.h"
#include "plan/hep_planner.h"
#include "plan/volcano_planner.h"
#include "rel/core.h"
#include "rel/rel_writer.h"
#include "rules/core_rules.h"
#include "schema/analyze.h"
#include "schema/schema.h"
#include "schema/table.h"
#include "sql/parser.h"
#include "sql/sql_to_rel.h"
#include "storage/disk_table.h"
#include "templates.h"
#include "tools/frameworks.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using calcite::Connection;
using calcite::Row;
using calcite::SchemaPtr;
using calcite::Status;
using calcite::storage::DiskTable;
using calcite::storage::DiskTableOptions;

// Set-up is repeated and its median reported, so work moved into set-up
// shows without one slow repetition deciding the number.
constexpr int kSetups = 5;
// Buffer pool per disk table: several times smaller than lineitem's heap at
// scale 1 (about 2100 pages), larger than every dimension table.
constexpr size_t kPoolPages = 256;
// Rows per InsertRows call while loading.
constexpr size_t kLoadChunk = 4096;
// ingest: orders per batch (each with 1-7 lineitems), warm-up batches, and
// the base table size relative to --scale.
constexpr int kBatchOrders = 512;
constexpr int kWarmupBatches = 8;
constexpr double kIngestBaseScale = 0.25;
// Literal sets drawn per template; a seed's texts repeat from this pool.
constexpr size_t kLiteralPool = 16;
// A single-threaded client moves to the next CPU after this much busy time.
constexpr double kRotateMs = 25;

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.ToString());
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Moves the calling thread over the CPUs it may run on, one step per
/// Step(). On a shared host one CPU can run at a fraction of its speed for
/// seconds at a time; a single-threaded client that visits every CPU in turn
/// pays that on a share of every run rather than on the whole of an unlucky
/// one. Threads inherit the affinity of the thread that creates them, so the
/// original mask is restored before any multi-threaded engine call.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Step() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Restore() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}
uint64_t Fnv1a(const std::string& s) { return Fnv1a(s.data(), s.size()); }

/// Order-independent checksum contribution of one row: FNV-1a over each
/// value's type tag and bytes (the generator writes only NULL, int64,
/// double and string values).
uint64_t RowHash(const Row& row) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const calcite::Value& v : row) {
    if (v.is_int()) {
      const int64_t x = v.AsInt();
      h = Fnv1a(&x, sizeof(x), Fnv1a("i", 1, h));
    } else if (v.is_double()) {
      const double x = v.AsDouble();
      h = Fnv1a(&x, sizeof(x), Fnv1a("d", 1, h));
    } else if (v.is_string()) {
      h = Fnv1a(v.AsString().data(), v.AsString().size(), Fnv1a("s", 1, h));
    } else {
      h = Fnv1a("n", 1, h);
    }
  }
  return h;
}

// ----------------------------- environment ---------------------------------

enum class Storage { kMem, kDisk };

struct SetupStats {
  double total_s = 0;
  double generate_s = 0;
  double insert_s = 0, flush_s = 0, analyze_s = 0;
  size_t rows = 0;
};

struct Env {
  Dataset data;
  SchemaPtr schema;
  std::map<std::string, std::shared_ptr<DiskTable>> disk;
  std::unique_ptr<Connection> conn;
  calcite::ExecOptions exec;

  uint64_t DiskReads() const {
    uint64_t n = 0;
    for (const auto& [name, t] : disk) n += t->buffer_pool().disk_reads();
    return n;
  }
  uint64_t DiskWrites() const {
    uint64_t n = 0;
    for (const auto& [name, t] : disk) n += t->buffer_pool().disk_writes();
    return n;
  }
  size_t HeapPages(const std::vector<const char*>& tables) const {
    size_t n = 0;
    for (const char* name : tables) {
      auto it = disk.find(name);
      if (it != disk.end()) n += it->second->heap_page_count();
    }
    return n;
  }
};

/// Creates a disk table and loads `rows` into it; returns the table.
std::shared_ptr<DiskTable> LoadDiskTable(const fs::path& file,
                                         calcite::RelDataTypePtr type,
                                         std::vector<Row> rows,
                                         size_t pool_pages, SetupStats* stats) {
  DiskTableOptions options;
  options.pool_pages = pool_pages;
  auto created = DiskTable::Create(file.string(), type, 0, options);
  Check(created.status(), "create " + file.string());
  std::shared_ptr<DiskTable> table = created.value();
  int64_t t0 = NowNs();
  for (size_t i = 0; i < rows.size(); i += kLoadChunk) {
    const size_t end = std::min(rows.size(), i + kLoadChunk);
    std::vector<Row> chunk(rows.begin() + static_cast<long>(i),
                           rows.begin() + static_cast<long>(end));
    Check(table->InsertRows(chunk), "insert " + file.string());
  }
  int64_t t1 = NowNs();
  Check(table->Flush(), "flush " + file.string());
  int64_t t2 = NowNs();
  stats->insert_s += Seconds(t1 - t0);
  stats->flush_s += Seconds(t2 - t1);
  return table;
}

void AnalyzeDiskTable(DiskTable* table, SetupStats* stats) {
  int64_t t0 = NowNs();
  Check(table->Analyze(), "analyze");
  Check(table->Flush(), "flush after analyze");
  stats->analyze_s += Seconds(NowNs() - t0);
}

/// Generates the data set for `seed`, loads it into MemTables or DiskTables
/// (files under `dir`) and runs ANALYZE on every table.
std::unique_ptr<Env> BuildEnv(uint64_t seed, double scale, Storage storage,
                              const fs::path& dir, size_t threads,
                              size_t pool_pages, SetupStats* stats) {
  const int64_t start = NowNs();
  auto env = std::make_unique<Env>();
  env->data = Generate(seed, scale);
  stats->generate_s = Seconds(NowNs() - start);
  const RowTypes types = MakeRowTypes();
  env->schema = std::make_shared<calcite::Schema>();
  auto add = [&](const char* name, const calcite::RelDataTypePtr& type,
                 auto& records) {
    stats->rows += records.size();
    if (storage == Storage::kDisk) {
      auto table = LoadDiskTable(dir / (std::string(name) + ".db"), type,
                                 ToRows(records), pool_pages, stats);
      AnalyzeDiskTable(table.get(), stats);
      env->disk[name] = table;
      env->schema->AddTable(name, table);
      return;
    }
    auto table = std::make_shared<calcite::MemTable>(type, ToRows(records));
    const int64_t t0 = NowNs();
    auto analyzed = calcite::AnalyzeTable(*table);
    Check(analyzed.status(), std::string("analyze ") + name);
    calcite::TableStats table_stats = std::move(analyzed).value();
    table_stats.unique_keys = {{0}};
    table->set_statistic(std::move(table_stats));
    stats->analyze_s += Seconds(NowNs() - t0);
    env->schema->AddTable(name, table);
  };
  add("region", types.region, env->data.region);
  add("nation", types.nation, env->data.nation);
  add("customer", types.customer, env->data.customer);
  add("part", types.part, env->data.part);
  add("orders", types.orders, env->data.orders);
  add("lineitem", types.lineitem, env->data.lineitem);
  Connection::Config config;
  config.schema = env->schema;
  config.exec_options.num_threads = threads;
  env->exec = config.exec_options;
  env->conn = std::make_unique<Connection>(std::move(config));
  stats->total_s = Seconds(NowNs() - start);
  return env;
}

// ------------------------------ templates -----------------------------------

/// One template with its seeded literal pool and the oracle's answers.
struct Instance {
  const Template* t;
  std::vector<std::string> sql;
  std::vector<std::vector<Row>> expected;
};

std::vector<Instance> MakeInstances(const std::vector<const char*>& names,
                                    const Dataset& data, uint64_t seed,
                                    size_t pool) {
  std::vector<Instance> out;
  for (const char* name : names) {
    Instance inst{&FindTemplate(name), {}, {}};
    Rng rng(seed * 0x9E3779B97F4A7C15ull ^ Fnv1a(name));
    for (size_t k = 0; k < pool; ++k) {
      Params p = inst.t->draw(rng, data);
      inst.sql.push_back(inst.t->sql(p));
      inst.expected.push_back(inst.t->oracle(data, p));
    }
    out.push_back(std::move(inst));
  }
  return out;
}

// --------------------------- query execution --------------------------------

struct Outcome {
  bool ok = false;
  double ms = 0;
  size_t rows = 0;
};

int g_reported_failures = 0;

bool Verify(const Instance& inst, size_t k,
            calcite::Result<std::vector<Row>> rows, Outcome* out) {
  std::string why;
  if (!rows.ok()) {
    why = rows.status().ToString();
  } else {
    out->rows = rows.value().size();
    out->ok = SameResult(std::move(rows).value(), inst.expected[k],
                         inst.t->ordered, &why);
  }
  if (!out->ok && g_reported_failures++ < 5) {
    std::cerr << "mismatch in " << inst.t->name << ": " << why << "\n  "
              << inst.sql[k] << "\n";
  }
  return out->ok;
}

Outcome RunQuery(Connection& conn, const Instance& inst, size_t k) {
  Outcome out;
  const int64_t t0 = NowNs();
  auto result = conn.Query(inst.sql[k]);
  out.ms = static_cast<double>(NowNs() - t0) / 1e6;
  using Rows = calcite::Result<std::vector<Row>>;
  Rows rows = result.ok() ? Rows(std::move(result).value().rows)
                          : Rows(result.status());
  Verify(inst, k, std::move(rows), &out);
  return out;
}

/// Counters sampled at the span boundaries of one traced operation.
struct OpCounters {
  size_t tmpl = 0;
  double hep_fires = 0, volcano_fires = 0, volcano_exprs = 0;
  double metadata = 0, rows_out = 0, reads = 0, writes = 0, heap_pages = 0;
};

/// Connection::Query with every layer called on its own inside a span:
/// parse, convert, Hep, ClearCache, Volcano, ClearCache, execute + drain.
/// Each layer's working objects (converter, planners, batch puller) live
/// inside its span, so their destructors are charged to that layer.
calcite::Result<std::vector<Row>> TracedQuery(Env& env, const std::string& sql,
                                              Tracer& tr, int64_t op,
                                              OpCounters* c,
                                              calcite::RelNodePtr* plan) {
  using namespace calcite;
  Connection& conn = *env.conn;
  PlannerContext* ctx = conn.context();
  MetadataQuery* mq = ctx->metadata();
  const int64_t md0 = mq->computation_count();
  const int root = tr.Begin("query", -1, op);
  auto span = [&](const char* name, auto fn) {
    const int s = tr.Begin(name, root, op);
    auto out = fn();
    tr.End(s);
    return out;
  };
  auto body = [&]() -> Result<std::vector<Row>> {
    auto ast = span("sql.parse", [&] { return SqlParser::Parse(sql); });
    if (!ast.ok()) return ast.status();
    auto logical = span("sql.convert", [&] {
      SqlToRelConverter converter(conn.schema(), ctx);
      return converter.Convert(ast.value());
    });
    if (!logical.ok()) return logical.status();
    auto rewritten = span("plan.hep", [&] {
      HepPlanner hep(StandardLogicalRules(), ctx);
      auto out = hep.Optimize(logical.value());
      c->hep_fires = hep.rule_fire_count();
      return out;
    });
    if (!rewritten.ok()) return rewritten.status();
    mq->ClearCache();
    // As Connection::OptimizePlan: a top-level ORDER BY becomes a required
    // collation of the cost-based phase.
    RelTraitSet required(Convention::Enumerable());
    if (const auto* sort = dynamic_cast<const Sort*>(logical.value().get())) {
      required = required.WithCollation(sort->collation());
    }
    auto physical = span("plan.volcano", [&] {
      VolcanoPlanner volcano(conn.PhysicalRules(), ctx,
                             VolcanoPlanner::Options{});
      auto out = volcano.Optimize(rewritten.value(), required);
      c->volcano_fires = volcano.rule_fire_count();
      c->volcano_exprs = volcano.expr_count();
      return out;
    });
    if (!physical.ok()) return physical.status();
    mq->ClearCache();
    *plan = physical.value();
    const uint64_t reads0 = env.DiskReads(), writes0 = env.DiskWrites();
    auto rows = span("exec.execute", [&]() -> Result<std::vector<Row>> {
      auto puller = physical.value()->ExecuteBatched(env.exec.Normalized());
      if (!puller.ok()) return puller.status();
      return DrainBatches(puller.value());
    });
    c->reads = static_cast<double>(env.DiskReads() - reads0);
    c->writes = static_cast<double>(env.DiskWrites() - writes0);
    return rows;
  };
  auto rows = body();
  tr.End(root);
  c->metadata = static_cast<double>(mq->computation_count() - md0);
  return rows;
}

// -------------------------------- metrics -----------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void PrintResult(const RunResult& r) {
  std::cout << "{\"correct\": "
            << (r.correct && r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << FormatNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

std::vector<const char*> TemplatesWithPrefix(char prefix) {
  std::vector<const char*> out;
  for (const Template& t : AllTemplates()) {
    if (t.name[0] == prefix) out.push_back(t.name);
  }
  return out;
}

/// Every per-layer metric, initialised to 0; a workload overwrites the ones
/// that apply to it, so 0 reads "not exercised by this workload".
void InitPerLayer(RunResult* r) {
  for (const char* n : {"sql.parse_us", "sql.convert_us", "plan.hep_us"}) {
    r->Set(n, 0, "us");
  }
  r->Set("plan.hep_rule_fires", 0, "count");
  r->Set("plan.volcano_us", 0, "us");
  r->Set("plan.volcano_rule_fires", 0, "count");
  r->Set("plan.volcano_exprs", 0, "count");
  r->Set("metadata.computations", 0, "count");
  r->Set("exec.execute_us", 0, "us");
  r->Set("exec.rows_out", 0, "count");
  for (const Template& t : AllTemplates()) {
    r->Set(std::string("exec.") + t.name + "_us", 0, "us");
  }
  r->Set("exec.nproc_slowdown", 0, "ratio");
  r->Set("storage.disk_reads", 0, "count");
  r->Set("storage.disk_writes", 0, "count");
  r->Set("storage.reads_per_heap_page", 0, "ratio");
  for (const char* t : TemplatesWithPrefix('d')) {
    r->Set(std::string("storage.") + t + "_reads", 0, "count");
    r->Set(std::string("storage.") + t + "_serial_reads", 0, "count");
  }
  for (const char* n : {"storage.insert_us", "storage.flush_us",
                        "storage.reopen_us", "storage.analyze_us",
                        "query.other_us"}) {
    r->Set(n, 0, "us");
  }
  r->Set("trace.overhead_pct", 0, "%");
}

// ---------------------------- query workloads -------------------------------

struct QuerySpec {
  const char* name;
  /// One round of the closed loop, one template per slot. Every round has
  /// an odd number of slots so the median latency falls inside one
  /// template's latency cluster instead of on the gap between two.
  std::vector<const char*> round;
  Storage storage;
  bool nproc_threads;
};

const std::vector<QuerySpec>& QuerySpecs() {
  static const std::vector<QuerySpec> specs = {
      {"analytic",
       {"a_pricing", "a_selective", "a_join3_topk", "a_join4", "a_left_join",
        "a_groupby2", "a_case_like", "a_window", "a_union", "a_topn",
        "a_selective"},
       Storage::kMem, false},
      {"short",
       {"s_point", "s_join2", "s_join3", "s_point", "s_groupby", "s_case_in",
        "s_union"},
       Storage::kMem, false},
      {"disk",
       {"d_point_key", "d_range_key", "d_between_key", "d_point_key",
        "d_nonkey_filter", "d_range_key", "d_scan_agg", "d_point_key",
        "d_join2"},
       Storage::kDisk, true},
  };
  return specs;
}

/// Exact read counts of each template at one thread from a cold buffer
/// pool: every table is reopened from its file before the query, so the
/// count repeats run after run (the morsel-parallel scan at nproc threads
/// does not). Sets storage.<template>_serial_reads, and storage.reopen_us
/// as the median time to reopen all tables.
void SerialColdReads(const Env& env, const fs::path& dir,
                     const std::vector<Instance>& instances, RunResult* r) {
  const RowTypes types = MakeRowTypes();
  const std::map<std::string, calcite::RelDataTypePtr> row_types = {
      {"region", types.region},     {"nation", types.nation},
      {"customer", types.customer}, {"part", types.part},
      {"orders", types.orders},     {"lineitem", types.lineitem}};
  std::vector<double> reopen_us;
  for (const Instance& inst : instances) {
    Env cold;
    cold.schema = std::make_shared<calcite::Schema>();
    const int64_t t0 = NowNs();
    for (const auto& [name, table] : env.disk) {
      DiskTableOptions options;
      options.pool_pages = table->buffer_pool().capacity();
      auto opened = DiskTable::Open((dir / (name + ".db")).string(),
                                    row_types.at(name), options);
      Check(opened.status(), "reopen " + name);
      cold.disk[name] = opened.value();
      cold.schema->AddTable(name, opened.value());
    }
    reopen_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    Connection::Config config;
    config.schema = cold.schema;
    Connection conn(std::move(config));
    const uint64_t before = cold.DiskReads();
    r->Count(RunQuery(conn, inst, 0).ok);
    r->Set(std::string("storage.") + inst.t->name + "_serial_reads",
           static_cast<double>(cold.DiskReads() - before), "count");
  }
  r->Set("storage.reopen_us", Median(reopen_us), "us");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1;
  std::string data_dir = ".bench_build/data";
  std::string trace_out;
  bool self_test = false;
};

/// The run's table files; emptied by Reset() and removed on every exit path.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(fs::path p) : path(std::move(p)) { Reset(); }
  void Reset() {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

fs::path RunDir(const Args& a) {
  return fs::path(a.data_dir) / (a.workload + "-" + std::to_string(getpid()));
}

void PrintRunHeader(const Args& a, size_t threads) {
  std::cout << "# perfbench workload=" << a.workload << " seed=" << a.seed
            << " scale=" << a.scale << " seconds=" << a.seconds
            << " trace=" << (a.trace ? 1 : 0) << " nproc=" << Nproc()
            << " engine_threads=" << threads
            << " simd=" << calcite::simd::CompiledLevelName()
            << " build=" << PERFBENCH_BUILD_TYPE << "\n";
}

/// The closed loop: whole rounds over `slots` until the operations report
/// `budget_s` of engine-busy time. Each operation draws its literal set
/// from a pool of `pool` with a stream seeded by `seed`, so the traced
/// replay repeats the untraced sequence. `op(slot, k)` returns the
/// operation's busy milliseconds, or a negative value to stop. With a
/// rotation, the client moves to the next CPU every kRotateMs of busy time.
template <typename Op>
void ClosedLoop(const std::vector<size_t>& slots, size_t pool, uint64_t seed,
                double budget_s, CpuRotation* rotation, Op op) {
  Rng rng(seed ^ 0x0B5E55EDull);
  double busy_ms = 0, rotated_at = 0;
  const int64_t wall0 = NowNs();
  // The wall-clock cap keeps a run inside its time limit however slow the
  // answer checks between operations are.
  while (busy_ms < budget_s * 1e3 &&
         Seconds(NowNs() - wall0) < 4 * budget_s + 10) {
    if (rotation != nullptr && busy_ms - rotated_at >= kRotateMs) {
      rotation->Step();
      rotated_at = busy_ms;
    }
    for (size_t slot : slots) {
      const double ms = op(slot, static_cast<size_t>(rng.Next() % pool));
      if (ms < 0) return;
      busy_ms += ms;
    }
  }
}

double Qps(const std::vector<double>& ms) {
  return static_cast<double>(ms.size()) / (Sum(ms) / 1e3);
}

/// The end-to-end metrics, from per-template latencies of the timed phase.
void SetEndToEnd(const std::vector<double>& setup_s,
                 const std::vector<double>& warmup_s,
                 const std::vector<std::vector<double>>& per_tmpl_ms,
                 double rows_per_s, RunResult* r) {
  std::vector<double> all;
  double log_sum = 0;
  for (const std::vector<double>& ms : per_tmpl_ms) {
    all.insert(all.end(), ms.begin(), ms.end());
    log_sum += std::log(Median(ms));
  }
  r->Set("setup_s", Median(setup_s), "s");
  r->Set("warmup_s", Median(warmup_s), "s");
  r->Set("qps", Qps(all), "1/s");
  r->Set("latency_p50_ms", Percentile(all, 0.50), "ms");
  r->Set("latency_p95_ms", Percentile(all, 0.95), "ms");
  r->Set("latency_geomean_ms",
         std::exp(log_sum / static_cast<double>(per_tmpl_ms.size())), "ms");
  r->Set("ingest_rows_per_s", rows_per_s, "1/s");
  r->Set("peak_rss_mb", PeakRssMb(), "MB");
}

void PrintErrorRate(const RunResult& r, size_t samples) {
  std::cout << "# latency samples=" << samples << " error_rate="
            << FormatNumber(static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted))
            << " (" << r.failed << "/" << r.attempted << ")\n";
}

/// Per-layer metrics of a traced query workload: medians per operation of
/// span self time and of the counters taken at the span boundaries.
void SetQueryLayers(const Tracer& tr, const std::vector<OpCounters>& ops,
                    const std::vector<const char*>& names, bool disk,
                    const SetupStats& setup, RunResult* r) {
  const auto self = tr.SelfTimesUs();
  auto median = [&](auto value, auto keep) {
    std::vector<double> v;
    for (size_t op = 0; op < ops.size(); ++op) {
      if (keep(ops[op])) {
        v.push_back(value(self.at(static_cast<int64_t>(op)), ops[op]));
      }
    }
    return Median(v);
  };
  auto all = [](const OpCounters&) { return true; };
  auto span_us = [](const char* name) {
    return [name](const std::map<std::string, double>& m, const OpCounters&) {
      auto it = m.find(name);
      return it == m.end() ? 0.0 : it->second;
    };
  };
  auto counter = [](double OpCounters::*field) {
    return [field](const std::map<std::string, double>&, const OpCounters& c) {
      return c.*field;
    };
  };
  r->Set("sql.parse_us", median(span_us("sql.parse"), all), "us");
  r->Set("sql.convert_us", median(span_us("sql.convert"), all), "us");
  r->Set("plan.hep_us", median(span_us("plan.hep"), all), "us");
  r->Set("plan.volcano_us", median(span_us("plan.volcano"), all), "us");
  r->Set("exec.execute_us", median(span_us("exec.execute"), all), "us");
  r->Set("query.other_us", median(span_us("query"), all), "us");
  auto count = [&](const std::string& name, double OpCounters::*field) {
    r->Set(name, median(counter(field), all), "count");
  };
  count("plan.hep_rule_fires", &OpCounters::hep_fires);
  count("plan.volcano_rule_fires", &OpCounters::volcano_fires);
  count("plan.volcano_exprs", &OpCounters::volcano_exprs);
  count("metadata.computations", &OpCounters::metadata);
  count("exec.rows_out", &OpCounters::rows_out);
  for (size_t i = 0; i < names.size(); ++i) {
    auto of_tmpl = [i](const OpCounters& c) { return c.tmpl == i; };
    r->Set(std::string("exec.") + names[i] + "_us",
           median(span_us("exec.execute"), of_tmpl), "us");
    if (disk) {
      r->Set(std::string("storage.") + names[i] + "_reads",
             median(counter(&OpCounters::reads), of_tmpl), "count");
    }
  }
  if (disk) {
    count("storage.disk_reads", &OpCounters::reads);
    count("storage.disk_writes", &OpCounters::writes);
    auto per_page = [](const auto&, const OpCounters& c) {
      return c.reads / c.heap_pages;
    };
    r->Set("storage.reads_per_heap_page", median(per_page, all), "ratio");
    r->Set("storage.insert_us", setup.insert_s * 1e6, "us");
    r->Set("storage.flush_us", setup.flush_s * 1e6, "us");
    r->Set("storage.analyze_us", setup.analyze_s * 1e6, "us");
  }

  // Share of traced time per layer, summed over operations.
  std::map<std::string, double> layer_us;
  double total_us = 0;
  for (const auto& [op, m] : self) {
    for (const auto& [name, us] : m) {
      const std::string layer = name.substr(0, name.find('.'));
      layer_us[layer == "query" ? "other" : layer] += us;
      total_us += us;
    }
  }
  std::cout << "# time_share";
  for (const auto& [layer, us] : layer_us) {
    std::cout << " " << layer << "=" << FormatNumber(100 * us / total_us)
              << "%";
  }
  std::cout << "\n";
}

/// Known defect: the morsel-parallel executor at nproc threads against
/// serial execution, same queries over the same tables, median of three
/// runs each. Returns the ratio of the summed medians.
double NprocSlowdown(Env& env, const std::vector<Instance>& instances,
                     RunResult* r) {
  Connection::Config config;
  config.schema = env.schema;
  config.exec_options.num_threads = Nproc();
  Connection parallel(std::move(config));
  double serial_ms = 0, parallel_ms = 0;
  for (const Instance& inst : instances) {
    std::vector<double> s, p;
    for (int rep = 0; rep < 3; ++rep) {
      const Outcome os = RunQuery(*env.conn, inst, 0);
      const Outcome op = RunQuery(parallel, inst, 0);
      r->Count(os.ok);
      r->Count(op.ok);
      s.push_back(os.ms);
      p.push_back(op.ms);
    }
    serial_ms += Median(s);
    parallel_ms += Median(p);
  }
  return parallel_ms / serial_ms;
}

int RunQueryWorkload(const QuerySpec& spec, const Args& a) {
  const size_t threads = spec.nproc_threads ? Nproc() : 1;
  PrintRunHeader(a, threads);
  ScratchDir dir(RunDir(a));
  RunResult r;
  std::vector<const char*> names;  // distinct templates, in round order
  std::vector<size_t> slots;       // round slot -> index into names
  for (const char* n : spec.round) {
    auto it = std::find_if(names.begin(), names.end(),
                           [&](const char* m) { return !std::strcmp(m, n); });
    if (it == names.end()) it = names.insert(names.end(), n);
    slots.push_back(static_cast<size_t>(it - names.begin()));
  }

  // Set-up and warm-up, repeated; the last environment is measured.
  CpuRotation rotation;
  std::vector<double> setup_s, warmup_s, load_rate;
  std::unique_ptr<Env> env;
  std::vector<Instance> instances;
  SetupStats setup;
  for (int i = 0; i < kSetups; ++i) {
    rotation.Step();
    env.reset();
    // Hand the freed set-up back to the OS, so peak RSS measures one
    // set-up's footprint rather than allocator leftovers of earlier ones.
    malloc_trim(0);
    dir.Reset();
    setup = SetupStats{};
    env = BuildEnv(a.seed, a.scale, spec.storage, dir.path, threads,
                   kPoolPages, &setup);
    setup_s.push_back(setup.total_s);
    load_rate.push_back(static_cast<double>(setup.rows) /
                        (setup.total_s - setup.generate_s));
    if (instances.empty()) {
      instances = MakeInstances(names, env->data, a.seed, kLiteralPool);
    }
    if (threads > 1) rotation.Restore();
    double warm_ms = 0;
    for (const Instance& inst : instances) {
      const Outcome o = RunQuery(*env->conn, inst, 0);
      r.Count(o.ok);
      warm_ms += o.ms;
    }
    warmup_s.push_back(warm_ms / 1e3);
  }

  // Untraced closed loop (half the time when a traced replay follows).
  CpuRotation* client_rotation = threads == 1 ? &rotation : nullptr;
  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  std::vector<std::vector<double>> per_tmpl(names.size());
  std::set<std::string> texts;
  ClosedLoop(slots, kLiteralPool, a.seed, budget, client_rotation,
             [&](size_t slot, size_t k) {
    texts.insert(instances[slot].sql[k]);
    const Outcome o = RunQuery(*env->conn, instances[slot], k);
    r.Count(o.ok);
    per_tmpl[slot].push_back(o.ms);
    return o.ms;
  });
  std::vector<double> all_ms;
  for (const auto& v : per_tmpl) {
    all_ms.insert(all_ms.end(), v.begin(), v.end());
  }

  std::cout << "# setup_s=" << FormatNumber(Median(setup_s))
            << " warmup_s=" << FormatNumber(Median(warmup_s))
            << " rows_loaded=" << setup.rows << "\n";
  if (spec.storage == Storage::kDisk) {
    for (const auto& [name, t] : env->disk) {
      std::cout << "# table " << name << " rows=" << t->row_count()
                << " heap_pages=" << t->heap_page_count()
                << " pool_pages=" << t->buffer_pool().capacity() << "\n";
    }
  } else {
    std::cout << "# tables are MemTables (no buffer pool); lineitem rows="
              << env->data.lineitem.size() << "\n";
  }
  std::cout << "# distinct_text_share="
            << FormatNumber(static_cast<double>(texts.size()) /
                            static_cast<double>(all_ms.size()))
            << " (" << texts.size() << " distinct of " << all_ms.size()
            << " operations)\n";
  PrintErrorRate(r, all_ms.size());
  for (size_t i = 0; i < names.size(); ++i) {
    std::cout << "# template " << names[i] << " n=" << per_tmpl[i].size()
              << " median_ms=" << FormatNumber(Median(per_tmpl[i])) << "\n";
  }
  if (!a.trace) {
    SetEndToEnd(setup_s, warmup_s, per_tmpl, Median(load_rate), &r);
    PrintResult(r);
    return 0;
  }

  // Traced replay: the same operation sequence, layer by layer.
  InitPerLayer(&r);
  Tracer tr;
  std::vector<OpCounters> ops;
  std::vector<double> traced_ms;
  std::set<std::pair<size_t, size_t>> guarded;
  int guard_failures = 0;
  ClosedLoop(slots, kLiteralPool, a.seed, budget, client_rotation,
             [&](size_t slot, size_t k) {
    const Instance& inst = instances[slot];
    OpCounters c;
    c.tmpl = slot;
    c.heap_pages = static_cast<double>(env->HeapPages(inst.t->tables));
    calcite::RelNodePtr plan;
    const int root = static_cast<int>(tr.spans().size());
    auto rows = TracedQuery(*env, inst.sql[k], tr,
                            static_cast<int64_t>(ops.size()), &c, &plan);
    traced_ms.push_back(tr.DurationMs(root));
    Outcome o;
    r.Count(Verify(inst, k, std::move(rows), &o));
    c.rows_out = static_cast<double>(o.rows);
    ops.push_back(c);
    // Plan-identity guard: the replayed plan must be the plan
    // Connection::OptimizePlan picks for the same text.
    if (plan && guarded.insert({slot, k}).second) {
      auto expected = env->conn->Explain(inst.sql[k], /*optimized=*/true);
      if (!expected.ok() || expected.value() != calcite::ExplainPlan(plan)) {
        ++guard_failures;
        std::cerr << "plan-identity guard failed for " << inst.t->name << "\n";
      }
    }
    return traced_ms.back();
  });
  std::cout << "# plan_identity_guard checked=" << guarded.size()
            << " failed=" << guard_failures << "\n";
  if (guard_failures > 0) r.correct = false;
  SetQueryLayers(tr, ops, names, spec.storage == Storage::kDisk, setup, &r);
  r.Set("trace.overhead_pct", (Qps(all_ms) / Qps(traced_ms) - 1) * 100, "%");
  if (spec.storage == Storage::kDisk) {
    SerialColdReads(*env, dir.path, instances, &r);
  }
  rotation.Restore();
  if (std::strcmp(spec.name, "analytic") == 0) {
    r.Set("exec.nproc_slowdown", NprocSlowdown(*env, instances, &r), "ratio");
  }
  if (!a.trace_out.empty()) tr.WriteJsonLines(a.trace_out);
  PrintResult(r);
  return 0;
}

// ------------------------------- ingest -------------------------------------

/// One ingest operation: a batch of new orders and their lineitems, inserted
/// and flushed on both tables. The rows count as acknowledged once both
/// flushes return OK.
struct Batch {
  std::vector<Row> orders, lineitem;
};

struct IngestEnv {
  Dataset data;
  std::shared_ptr<DiskTable> orders, lineitem;
  uint64_t checksum = 0;  // over every acknowledged row
  size_t acked = 0;
  int64_t next_key = 0;

  void Ack(const std::vector<Row>& rows) {
    for (const Row& row : rows) checksum += RowHash(row);
    acked += rows.size();
  }
  void Ack(const Batch& b) {
    Ack(b.orders);
    Ack(b.lineitem);
  }
  uint64_t DiskReads() const {
    return orders->buffer_pool().disk_reads() +
           lineitem->buffer_pool().disk_reads();
  }
  uint64_t DiskWrites() const {
    return orders->buffer_pool().disk_writes() +
           lineitem->buffer_pool().disk_writes();
  }
};

std::unique_ptr<IngestEnv> BuildIngestEnv(uint64_t seed, double scale,
                                          const fs::path& dir, SetupStats* st) {
  const int64_t start = NowNs();
  auto env = std::make_unique<IngestEnv>();
  env->data = Generate(seed, scale * kIngestBaseScale);
  const RowTypes types = MakeRowTypes();
  std::vector<Row> orders = ToRows(env->data.orders);
  std::vector<Row> lineitem = ToRows(env->data.lineitem);
  env->Ack(orders);
  env->Ack(lineitem);
  st->rows = env->acked;
  env->orders = LoadDiskTable(dir / "orders.db", types.orders,
                              std::move(orders), kPoolPages, st);
  env->lineitem = LoadDiskTable(dir / "lineitem.db", types.lineitem,
                                std::move(lineitem), kPoolPages, st);
  AnalyzeDiskTable(env->orders.get(), st);
  AnalyzeDiskTable(env->lineitem.get(), st);
  env->next_key = static_cast<int64_t>(env->data.orders.size()) + 1;
  st->total_s = Seconds(NowNs() - start);
  return env;
}

Batch NextBatch(IngestEnv* env, Rng& rng) {
  // Only the last lineitem is kept between batches (it carries the next
  // id), so memory stays flat however many batches a run writes.
  env->data.orders.clear();
  std::vector<LineItem>& lineitem = env->data.lineitem;
  lineitem.erase(lineitem.begin(), lineitem.end() - 1);
  for (int i = 0; i < kBatchOrders; ++i) {
    AppendOrder(rng, env->next_key++, &env->data);
  }
  Batch b;
  b.orders = ToRows(env->data.orders);
  for (size_t i = 1; i < lineitem.size(); ++i) {
    b.lineitem.push_back(ToRow(lineitem[i]));
  }
  return b;
}

/// Writes one batch; on success the caller acknowledges it (IngestEnv::Ack)
/// outside the timed region.
bool WriteBatch(IngestEnv* env, const Batch& b, Tracer* tr, int64_t op) {
  auto step = [&](const char* name, int parent, auto fn) {
    const int s = tr ? tr->Begin(name, parent, op) : -1;
    Status st = fn();
    if (tr) tr->End(s);
    return st.ok();
  };
  const int root = tr ? tr->Begin("ingest", -1, op) : -1;
  DiskTable& orders = *env->orders;
  DiskTable& lineitem = *env->lineitem;
  const bool ok =
      step("storage.insert", root,
           [&] { return orders.InsertRows(b.orders); }) &&
      step("storage.insert", root,
           [&] { return lineitem.InsertRows(b.lineitem); }) &&
      step("storage.flush", root, [&] { return orders.Flush(); }) &&
      step("storage.flush", root, [&] { return lineitem.Flush(); });
  if (tr) tr->End(root);
  return ok;
}

/// ANALYZE at the end, then the durability check: drop the tables, reopen
/// both files, and compare row count and checksum with what was
/// acknowledged. Returns false on any mismatch.
bool FinishIngest(IngestEnv* env, const fs::path& dir, Tracer* tr,
                  double* analyze_us, double* reopen_us) {
  const RowTypes types = MakeRowTypes();
  int64_t t0 = NowNs();
  const int sa = tr ? tr->Begin("storage.analyze", -1, -1) : -1;
  bool ok = env->orders->Analyze().ok() && env->lineitem->Analyze().ok() &&
            env->orders->Flush().ok() && env->lineitem->Flush().ok();
  if (tr) tr->End(sa);
  *analyze_us = static_cast<double>(NowNs() - t0) / 1e3;
  env->orders.reset();
  env->lineitem.reset();
  DiskTableOptions options;
  options.pool_pages = kPoolPages;
  t0 = NowNs();
  const int sr = tr ? tr->Begin("storage.reopen", -1, -1) : -1;
  auto orders =
      DiskTable::Open((dir / "orders.db").string(), types.orders, options);
  auto lineitem =
      DiskTable::Open((dir / "lineitem.db").string(), types.lineitem, options);
  if (tr) tr->End(sr);
  *reopen_us = static_cast<double>(NowNs() - t0) / 1e3;
  if (!ok || !orders.ok() || !lineitem.ok()) return false;
  uint64_t checksum = 0;
  size_t rows = 0;
  for (const auto* t : {&orders.value(), &lineitem.value()}) {
    auto puller = (*t)->ScanBatched(1024);
    if (!puller.ok()) return false;
    for (;;) {
      auto batch = puller.value()();
      if (!batch.ok()) return false;
      if (batch.value().empty()) break;
      for (const Row& row : batch.value()) checksum += RowHash(row);
      rows += batch.value().size();
    }
  }
  const bool durable = rows == env->acked && checksum == env->checksum;
  std::cout << "# durability reopened_rows=" << rows
            << " acknowledged_rows=" << env->acked
            << " checksum_match=" << (checksum == env->checksum ? 1 : 0)
            << "\n";
  return durable;
}

int RunIngest(const Args& a) {
  PrintRunHeader(a, 1);
  ScratchDir dir(RunDir(a));
  RunResult r;
  CpuRotation rotation;
  std::vector<double> setup_s, warmup_s;
  std::unique_ptr<IngestEnv> env;
  int64_t base_orders = 0;
  Rng rng(0);  // batch contents; restarts with every set-up
  Tracer tr;
  bool traced = false;
  std::vector<double> writes, reads;  // per traced batch
  // Writes one batch, recording its busy milliseconds in `ms` and its rows
  // in `rows`; returns -1 once a write failed, since the tables' state is
  // unknown after that.
  auto write_one = [&](std::vector<double>* ms, size_t* rows) -> double {
    const Batch b = NextBatch(env.get(), rng);
    const uint64_t writes0 = env->DiskWrites(), reads0 = env->DiskReads();
    const int root = static_cast<int>(tr.spans().size());
    const int64_t t0 = NowNs();
    const bool ok = WriteBatch(env.get(), b, traced ? &tr : nullptr,
                               static_cast<int64_t>(writes.size()));
    const double op_ms =
        traced ? tr.DurationMs(root) : static_cast<double>(NowNs() - t0) / 1e6;
    r.Count(ok);
    if (!ok) return -1;
    env->Ack(b);
    ms->push_back(op_ms);
    *rows += b.orders.size() + b.lineitem.size();
    if (traced) {
      writes.push_back(static_cast<double>(env->DiskWrites() - writes0));
      reads.push_back(static_cast<double>(env->DiskReads() - reads0));
    }
    return op_ms;
  };

  for (int i = 0; i < kSetups; ++i) {
    rotation.Step();
    env.reset();
    malloc_trim(0);  // as in RunQueryWorkload
    dir.Reset();
    SetupStats st;
    env = BuildIngestEnv(a.seed, a.scale, dir.path, &st);
    setup_s.push_back(st.total_s);
    base_orders = env->next_key - 1;
    rng = Rng(a.seed ^ 0x1A6E57ull);
    std::vector<double> warm_ms;
    size_t warm_rows = 0;
    for (int b = 0; b < kWarmupBatches; ++b) {
      if (write_one(&warm_ms, &warm_rows) < 0) break;
    }
    warmup_s.push_back(Sum(warm_ms) / 1e3);
  }

  const double budget = a.trace ? a.seconds / 2 : a.seconds;
  const std::vector<size_t> one_slot = {0};
  std::vector<std::vector<double>> lat_ms(1);
  size_t rows = 0;
  ClosedLoop(one_slot, 1, a.seed, budget, &rotation,
             [&](size_t, size_t) { return write_one(&lat_ms[0], &rows); });
  std::vector<double> traced_ms;
  size_t traced_rows = 0;
  if (a.trace) {
    traced = true;
    ClosedLoop(one_slot, 1, a.seed, budget, &rotation,
               [&](size_t, size_t) {
                 return write_one(&traced_ms, &traced_rows);
               });
  }
  double analyze_us = 0, reopen_us = 0;
  const bool durable = FinishIngest(env.get(), dir.path,
                                    a.trace ? &tr : nullptr, &analyze_us,
                                    &reopen_us);
  r.Count(durable);
  if (!durable) r.correct = false;

  std::cout << "# setup_s=" << FormatNumber(Median(setup_s))
            << " base_orders=" << base_orders
            << " batch_orders=" << kBatchOrders << " flush_policy=every_batch"
            << " pool_pages=" << kPoolPages
            << " (latencies are the OS page cache's, not a device's)\n";
  PrintErrorRate(r, lat_ms[0].size());
  if (!a.trace) {
    const double rows_per_s =
        static_cast<double>(rows) / (Sum(lat_ms[0]) / 1e3);
    SetEndToEnd(setup_s, warmup_s, lat_ms, rows_per_s, &r);
    PrintResult(r);
    return 0;
  }

  InitPerLayer(&r);
  std::vector<double> insert_us, flush_us, other_us;
  for (const auto& [op, m] : tr.SelfTimesUs()) {
    if (op < 0) continue;  // the final ANALYZE and reopen
    insert_us.push_back(m.at("storage.insert"));
    flush_us.push_back(m.at("storage.flush"));
    other_us.push_back(m.at("ingest"));
  }
  r.Set("storage.insert_us", Median(insert_us), "us");
  r.Set("storage.flush_us", Median(flush_us), "us");
  r.Set("storage.analyze_us", analyze_us, "us");
  r.Set("storage.reopen_us", reopen_us, "us");
  r.Set("storage.disk_writes", Median(writes), "count");
  r.Set("storage.disk_reads", Median(reads), "count");
  r.Set("query.other_us", Median(other_us), "us");
  r.Set("trace.overhead_pct", (Qps(lat_ms[0]) / Qps(traced_ms) - 1) * 100, "%");
  if (!a.trace_out.empty()) tr.WriteJsonLines(a.trace_out);
  PrintResult(r);
  return 0;
}

// ------------------------------- self-test ----------------------------------

/// The engine must agree with the oracle on every template at threads
/// {1, nproc} over MemTable and DiskTable, and a short ingest must survive a
/// reopen. Small scale, small buffer pool so disk scans evict.
int RunSelfTest(const Args& a) {
  ScratchDir dir(fs::path(a.data_dir) /
                 ("self-test-" + std::to_string(getpid())));
  std::vector<const char*> names;
  for (const Template& t : AllTemplates()) names.push_back(t.name);
  int checks = 0, failures = 0;
  std::set<size_t> thread_counts = {1, Nproc()};
  for (Storage storage : {Storage::kMem, Storage::kDisk}) {
    for (size_t threads : thread_counts) {
      dir.Reset();
      SetupStats st;
      auto env = BuildEnv(a.seed, 0.05, storage, dir.path, threads, 16, &st);
      const auto instances = MakeInstances(names, env->data, a.seed, 3);
      for (const Instance& inst : instances) {
        for (size_t k = 0; k < inst.sql.size(); ++k) {
          ++checks;
          if (!RunQuery(*env->conn, inst, k).ok) {
            ++failures;
            std::cout << "FAIL " << inst.t->name << " storage="
                      << (storage == Storage::kMem ? "mem" : "disk")
                      << " threads=" << threads << "\n";
          }
        }
      }
    }
  }
  dir.Reset();
  SetupStats st;
  auto ingest = BuildIngestEnv(a.seed, 0.05, dir.path, &st);
  Rng rng(a.seed);
  for (int i = 0; i < 20; ++i) {
    ++checks;
    Batch b = NextBatch(ingest.get(), rng);
    if (WriteBatch(ingest.get(), b, nullptr, 0)) {
      ingest->Ack(b);
    } else {
      ++failures;
    }
  }
  double analyze_us = 0, reopen_us = 0;
  ++checks;
  if (!FinishIngest(ingest.get(), dir.path, nullptr, &analyze_us, &reopen_us)) {
    ++failures;
    std::cout << "FAIL ingest durability\n";
  }
  std::cout << "self-test: " << checks << " checks, " << failures
            << " failures\n";
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: perfbench --workload analytic|short|disk|ingest "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--scale X] [--data-dir DIR] "
               "[--trace-out FILE]\n"
               "       perfbench --self-test [--seed N] [--data-dir DIR]\n";
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--scale") a.scale = std::stod(v);
    else if (flag == "--data-dir") a.data_dir = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else return Usage();
  }
  if (a.self_test) return RunSelfTest(a);
  if (a.seconds <= 0 || a.scale <= 0) return Usage();
  if (a.workload == "ingest") return RunIngest(a);
  for (const QuerySpec& spec : QuerySpecs()) {
    if (a.workload == spec.name) return RunQueryWorkload(spec, a);
  }
  return Usage();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
