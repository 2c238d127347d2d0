#include "src/query/query.h"

#include <algorithm>
#include <sstream>

#include "src/util/logging.h"

namespace lce {
namespace query {

std::string ToSql(const Query& q, const storage::DatabaseSchema& schema) {
  std::ostringstream oss;
  oss << "SELECT COUNT(*) FROM ";
  for (size_t i = 0; i < q.tables.size(); ++i) {
    if (i > 0) oss << ", ";
    oss << schema.tables[q.tables[i]].name;
  }
  bool first = true;
  auto conj = [&]() -> std::ostream& {
    oss << (first ? " WHERE " : " AND ");
    first = false;
    return oss;
  };
  for (int j : q.join_edges) {
    const storage::JoinEdge& e = schema.joins[j];
    conj() << e.left_table << "." << e.left_column << " = " << e.right_table
           << "." << e.right_column;
  }
  for (const Predicate& p : q.predicates) {
    const auto& t = schema.tables[p.col.table];
    const std::string col = t.name + "." + t.columns[p.col.column].name;
    if (p.lo == p.hi) {
      conj() << col << " = " << p.lo;
    } else {
      conj() << col << " BETWEEN " << p.lo << " AND " << p.hi;
    }
  }
  oss << ";";
  return oss.str();
}

Status Validate(const Query& q, const storage::Database& db) {
  const storage::DatabaseSchema& schema = db.schema();
  if (q.tables.empty()) return Status::InvalidArgument("query has no tables");
  for (size_t i = 0; i < q.tables.size(); ++i) {
    if (q.tables[i] < 0 || q.tables[i] >= db.num_tables()) {
      return Status::InvalidArgument("table index out of range");
    }
    if (i > 0 && q.tables[i] <= q.tables[i - 1]) {
      return Status::InvalidArgument("tables must be sorted and unique");
    }
  }
  if (q.join_edges.size() != q.tables.size() - 1) {
    return Status::InvalidArgument("join edges must form a spanning tree");
  }
  std::vector<int> parent(db.num_tables());  // union-find over the edges
  for (int t : q.tables) parent[t] = t;
  auto root = [&](int t) {
    while (parent[t] != t) t = parent[t] = parent[parent[t]];
    return t;
  };
  for (int j : q.join_edges) {
    if (j < 0 || j >= static_cast<int>(schema.joins.size())) {
      return Status::InvalidArgument("join edge index out of range");
    }
    const storage::JoinEdge& e = schema.joins[j];
    const int lt = e.left_table_index;
    const int rt = e.right_table_index;
    if (!q.UsesTable(lt) || !q.UsesTable(rt)) {
      return Status::InvalidArgument("join edge touches a table not in query");
    }
    if (root(lt) == root(rt)) {
      return Status::InvalidArgument(
          "query join edges do not form a spanning tree");
    }
    parent[root(lt)] = root(rt);
  }
  for (const Predicate& p : q.predicates) {
    if (!q.UsesTable(p.col.table)) {
      return Status::InvalidArgument("predicate on table not in query");
    }
    const auto& tschema = schema.tables[p.col.table];
    if (p.col.column < 0 ||
        p.col.column >= static_cast<int>(tschema.columns.size())) {
      return Status::InvalidArgument("predicate column out of range");
    }
    if (p.lo > p.hi) {
      return Status::InvalidArgument("predicate lo > hi");
    }
  }
  return Status::OK();
}

Query Restrict(const Query& q, const std::vector<int>& tables,
               const storage::DatabaseSchema& schema) {
  Query sub;
  sub.tables = tables;
  std::sort(sub.tables.begin(), sub.tables.end());
  auto in_subset = [&](int t) {
    return std::find(sub.tables.begin(), sub.tables.end(), t) !=
           sub.tables.end();
  };
  for (int e : q.join_edges) {
    const storage::JoinEdge& je = schema.joins[e];
    LCE_CHECK_MSG(je.left_table_index >= 0 && je.right_table_index >= 0,
                  "Restrict needs a schema with resolved joins");
    if (in_subset(je.left_table_index) && in_subset(je.right_table_index)) {
      sub.join_edges.push_back(e);
    }
  }
  for (const Predicate& p : q.predicates) {
    if (in_subset(p.col.table)) sub.predicates.push_back(p);
  }
  return sub;
}

std::string JoinTemplateKey(const Query& q) {
  std::vector<int> edges = q.join_edges;
  std::sort(edges.begin(), edges.end());
  std::ostringstream oss;
  oss << "t";
  for (int t : q.tables) oss << "_" << t;
  oss << ":j";
  for (int e : edges) oss << "_" << e;
  return oss.str();
}

}  // namespace query
}  // namespace lce
