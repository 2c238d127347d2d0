#include "src/exec/plan_executor.h"

#include <algorithm>
#include <bit>

#include "src/exec/executor.h"
#include "src/util/logging.h"

namespace lce {
namespace exec {

namespace {

constexpr uint32_t kChainEnd = UINT32_MAX;

// The key columns of the one query join edge between `build` and `probe`,
// build side first; `*_pos` is the table's position in its intermediate.
// The edges form a spanning tree (query::Validate), so there is exactly one.
struct JoinKeys {
  int build_pos;
  const std::vector<storage::Value>* build_col;
  int probe_pos;
  const std::vector<storage::Value>* probe_col;
};

JoinKeys ConnectingEdge(const query::Query& q, const storage::Database& db,
                        const std::vector<int>& build,
                        const std::vector<int>& probe) {
  const storage::DatabaseSchema& schema = db.schema();
  JoinKeys keys{};
  int found = 0;
  for (int e : q.join_edges) {
    const storage::JoinEdge& je = schema.joins[e];
    const int table[2] = {schema.TableIndex(je.left_table),
                          schema.TableIndex(je.right_table)};
    const std::string* column[2] = {&je.left_column, &je.right_column};
    auto key_col = [&](int side) {
      return &db.table(table[side])
                  .column(schema.tables[table[side]].ColumnIndex(*column[side]));
    };
    for (int b = 0; b < 2; ++b) {
      auto bt = std::find(build.begin(), build.end(), table[b]);
      auto pt = std::find(probe.begin(), probe.end(), table[1 - b]);
      if (bt == build.end() || pt == probe.end()) continue;
      keys = {static_cast<int>(bt - build.begin()), key_col(b),
              static_cast<int>(pt - probe.begin()), key_col(1 - b)};
      ++found;
    }
  }
  LCE_CHECK_MSG(found == 1, "subplans must meet on exactly one join edge");
  return keys;
}

// Flat chained hash table over the build side's keys: bucket heads, one
// `next` link per build tuple, and the keys copied contiguously. Tuples are
// inserted in reverse, so each chain lists them in ascending order.
class JoinTable {
 public:
  JoinTable(const std::vector<storage::Value>& col,
            const std::vector<uint32_t>& rows)
      : shift_(64 - std::bit_width(rows.size() | 1)),  // buckets > rows
        head_(size_t{1} << (64 - shift_), kChainEnd),
        next_(rows.size()),
        keys_(rows.size()) {
    for (size_t i = rows.size(); i-- > 0;) {
      keys_[i] = col[rows[i]];
      uint32_t& head = head_[Bucket(keys_[i])];
      next_[i] = head;
      head = static_cast<uint32_t>(i);
    }
  }

  // Calls `fn(i)` for each build tuple i whose key equals `key`, ascending.
  template <typename Fn>
  void ForEachMatch(storage::Value key, Fn&& fn) const {
    for (uint32_t i = head_[Bucket(key)]; i != kChainEnd; i = next_[i]) {
      if (keys_[i] == key) fn(i);
    }
  }

 private:
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Bucket(storage::Value key) const {
    return (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_;
  }

  int shift_;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<storage::Value> keys_;
};

}  // namespace

Status PlanExecutor::ExecuteNode(const query::Query& q, const opt::Plan& plan,
                                 int node, bool count_only, ExecStats* stats,
                                 Intermediate* out) const {
  const opt::PlanNode& n = plan.nodes[node];
  if (n.IsLeaf()) {
    *out = {{n.table}, {FilterRows(*db_, q, n.table)}};
    out->size = out->rows[0].size();
    stats->tuples_scanned += db_->table(n.table).num_rows();
    stats->peak_intermediate = std::max(stats->peak_intermediate, out->size);
    return Status::OK();
  }

  Intermediate left, right;
  Status s = ExecuteNode(q, plan, n.left, false, stats, &left);
  if (s.ok()) s = ExecuteNode(q, plan, n.right, false, stats, &right);
  if (!s.ok()) return s;

  // Hash join, building on the smaller input.
  const bool build_left = left.size <= right.size;
  const Intermediate& build = build_left ? left : right;
  const Intermediate& probe = build_left ? right : left;
  const JoinKeys keys = ConnectingEdge(q, *db_, build.tables, probe.tables);
  const JoinTable table(*keys.build_col, build.rows[keys.build_pos]);
  const std::vector<storage::Value>& probe_col = *keys.probe_col;
  const std::vector<uint32_t>& probe_rows = probe.rows[keys.probe_pos];
  stats->tuples_built += build.size;
  stats->tuples_probed += probe.size;

  // The root only counts. Other joins collect (build, probe) index pairs in
  // one probe pass, stopping as soon as the budget is exceeded, then gather
  // each output column.
  const uint64_t budget = options_.max_intermediate_tuples;
  std::vector<uint32_t> build_idx, probe_idx;
  if (count_only) {
    for (uint32_t r : probe_rows) {
      table.ForEachMatch(probe_col[r], [&](uint32_t) { ++out->size; });
    }
  } else {
    build_idx.reserve(probe.size);
    probe_idx.reserve(probe.size);
    for (uint64_t j = 0; j < probe.size && out->size <= budget; ++j) {
      table.ForEachMatch(probe_col[probe_rows[j]], [&](uint32_t i) {
        build_idx.push_back(i);
        probe_idx.push_back(static_cast<uint32_t>(j));
      });
      out->size = build_idx.size();
    }
  }
  if (out->size > budget) {
    return Status::Internal(
        "intermediate result exceeded the execution budget (" +
        std::to_string(budget) + " tuples)");
  }
  stats->tuples_output += out->size;
  stats->peak_intermediate = std::max(stats->peak_intermediate, out->size);
  if (count_only) return Status::OK();

  auto gather = [&](const Intermediate& in, const std::vector<uint32_t>& idx) {
    for (size_t c = 0; c < in.tables.size(); ++c) {
      out->tables.push_back(in.tables[c]);
      std::vector<uint32_t>& col = out->rows.emplace_back(out->size);
      for (uint64_t o = 0; o < out->size; ++o) col[o] = in.rows[c][idx[o]];
    }
  };
  gather(build, build_idx);
  gather(probe, probe_idx);
  return Status::OK();
}

Result<ExecStats> PlanExecutor::Execute(const query::Query& q,
                                        const opt::Plan& plan) const {
  LCE_CHECK_MSG(plan.root >= 0, "empty plan");
  ExecStats stats;
  Intermediate root;
  Status s = ExecuteNode(q, plan, plan.root, /*count_only=*/true, &stats, &root);
  if (!s.ok()) return s;
  stats.result = static_cast<double>(root.size);
  return stats;
}

}  // namespace exec
}  // namespace lce
