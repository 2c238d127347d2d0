// Physical plan execution.
//
// Interprets an optimizer plan (opt::Plan) against the stored data: leaves
// scan into row-id selection vectors, joins hash the smaller input into a
// flat chained table, and the root only counts its matches — the exact
// COUNT(*). Nothing is cached between calls (DESIGN.md §8). Alongside the
// answer it reports operator-level work statistics — the "actually executed"
// end-to-end numbers (experiment R17), complementing the noise-free cost
// replay of eval::EvaluatePlanQuality.

#ifndef LCE_EXEC_PLAN_EXECUTOR_H_
#define LCE_EXEC_PLAN_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "src/optimizer/planner.h"
#include "src/query/query.h"
#include "src/storage/database.h"
#include "src/util/status.h"

namespace lce {
namespace exec {

/// Work performed by one plan execution.
struct ExecStats {
  uint64_t tuples_scanned = 0;   // base rows read by leaf scans
  uint64_t tuples_built = 0;     // rows inserted into join hash tables
  uint64_t tuples_probed = 0;    // rows probing join hash tables
  uint64_t tuples_output = 0;    // rows emitted by all joins
  uint64_t peak_intermediate = 0;  // largest leaf or join output
  double result = 0;             // final COUNT(*)

  /// Total work in tuple operations — the executed-latency proxy.
  uint64_t TotalWork() const {
    return tuples_scanned + tuples_built + tuples_probed + tuples_output;
  }
};

class PlanExecutor {
 public:
  struct Options {
    /// Execution aborts (ResourceExhausted-style) when any join's output
    /// exceeds this many tuples — a bad plan's blowup is the finding, not a
    /// reason to hang the harness.
    uint64_t max_intermediate_tuples = 20'000'000;
  };

  PlanExecutor(const storage::Database* db, Options options)
      : db_(db), options_(options) {}
  explicit PlanExecutor(const storage::Database* db)
      : PlanExecutor(db, Options{}) {}

  /// Executes `plan` for `q`; the returned stats' `result` equals the exact
  /// COUNT(*) of the query (verified against the analytic executor in tests).
  Result<ExecStats> Execute(const query::Query& q,
                            const opt::Plan& plan) const;

 private:
  /// Row-id tuples over a set of base tables (columnar, parallel arrays).
  struct Intermediate {
    std::vector<int> tables;                  // base table ids
    std::vector<std::vector<uint32_t>> rows;  // rows[i] for tables[i]
    uint64_t size = 0;  // tuple count; all a counted-only node keeps
  };

  Status ExecuteNode(const query::Query& q, const opt::Plan& plan, int node,
                     bool count_only, ExecStats* stats,
                     Intermediate* out) const;

  const storage::Database* db_;
  Options options_;
};

}  // namespace exec
}  // namespace lce

#endif  // LCE_EXEC_PLAN_EXECUTOR_H_
