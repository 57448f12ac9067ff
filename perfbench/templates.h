// Query templates of the workload benchmark and their independent oracle.
//
// Each template is SQL text with seeded literals plus a hand-written C++
// evaluation of the same question over the generator's records. The oracle
// never calls into the engine, so an engine bug cannot hide in both sides.
#ifndef PERFBENCH_TEMPLATES_H_
#define PERFBENCH_TEMPLATES_H_

#include <string>
#include <vector>

#include "gen.h"

namespace perfbench {

/// The literals of one template instance.
struct Params {
  int64_t i0 = 0;
  int64_t i1 = 0;
  int64_t i2 = 0;
  std::string s0;
};

struct Template {
  const char* name;
  /// Compare results in order (the SQL has a total ORDER BY) or as
  /// multisets.
  bool ordered;
  /// Tables the SQL references, for reads-per-heap-page.
  std::vector<const char*> tables;
  Params (*draw)(Rng& rng, const Dataset& data);
  std::string (*sql)(const Params& p);
  std::vector<calcite::Row> (*oracle)(const Dataset& data, const Params& p);
};

/// All templates, in workload order: a_* (analytic), s_* (short), d_* (disk).
const std::vector<Template>& AllTemplates();
const Template& FindTemplate(const std::string& name);

/// True when `got` equals `want` — in order when `ordered`, otherwise as
/// multisets — with a relative tolerance on numbers (int and double compare
/// by value). On mismatch `why` describes the first difference.
bool SameResult(std::vector<calcite::Row> got, std::vector<calcite::Row> want,
                bool ordered, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_TEMPLATES_H_
