#include "src/storage/database.h"

#include <queue>

#include "src/storage/column_index.h"
#include "src/util/logging.h"

namespace lce {
namespace storage {

Database::Database(DatabaseSchema schema) : schema_(std::move(schema)) {
  LCE_CHECK_MSG(!schema_.tables.empty(), "database needs at least one table");
  for (const auto& ts : schema_.tables) {
    tables_.push_back(std::make_unique<Table>(ts));
  }
  schema_.ResolveJoins();
  for (const auto& j : schema_.joins) {
    LCE_CHECK_MSG(j.left_table_index >= 0,
                  "join references unknown table " << j.left_table);
    LCE_CHECK_MSG(j.right_table_index >= 0,
                  "join references unknown table " << j.right_table);
  }
}

Database::~Database() = default;

const DatabaseIndex& Database::index() const {
  std::call_once(index_once_,
                 [this] { index_ = std::make_unique<DatabaseIndex>(this); });
  return *index_;
}

Table& Database::table(int index) {
  LCE_CHECK(index >= 0 && index < num_tables());
  return *tables_[index];
}

const Table& Database::table(int index) const {
  LCE_CHECK(index >= 0 && index < num_tables());
  return *tables_[index];
}

Result<Table*> Database::FindTable(const std::string& name) {
  int idx = schema_.TableIndex(name);
  if (idx < 0) return Status::NotFound("table " + name);
  return tables_[idx].get();
}

Result<const Table*> Database::FindTable(const std::string& name) const {
  int idx = schema_.TableIndex(name);
  if (idx < 0) return Status::NotFound("table " + name);
  return static_cast<const Table*>(tables_[idx].get());
}

void Database::FinalizeAll() {
  for (auto& t : tables_) t->Finalize();
}

std::vector<int> Database::IncidentJoins(int table_index) const {
  std::vector<int> out;
  const std::string& name = schema_.tables[table_index].name;
  for (size_t j = 0; j < schema_.joins.size(); ++j) {
    if (schema_.joins[j].left_table == name ||
        schema_.joins[j].right_table == name) {
      out.push_back(static_cast<int>(j));
    }
  }
  return out;
}

int Database::JoinBetween(int table_a, int table_b) const {
  const std::string& a = schema_.tables[table_a].name;
  const std::string& b = schema_.tables[table_b].name;
  for (size_t j = 0; j < schema_.joins.size(); ++j) {
    const JoinEdge& e = schema_.joins[j];
    if ((e.left_table == a && e.right_table == b) ||
        (e.left_table == b && e.right_table == a)) {
      return static_cast<int>(j);
    }
  }
  return -1;
}

bool Database::IsConnected(const std::vector<int>& table_indexes) const {
  if (table_indexes.empty()) return false;
  if (table_indexes.size() == 1) return true;
  std::vector<bool> in_set(num_tables(), false);
  for (int t : table_indexes) in_set[t] = true;
  std::vector<bool> visited(num_tables(), false);
  std::queue<int> frontier;
  frontier.push(table_indexes[0]);
  visited[table_indexes[0]] = true;
  size_t reached = 1;
  while (!frontier.empty()) {
    int cur = frontier.front();
    frontier.pop();
    for (int t : table_indexes) {
      if (!visited[t] && JoinBetween(cur, t) >= 0) {
        visited[t] = true;
        ++reached;
        frontier.push(t);
      }
    }
  }
  return reached == table_indexes.size();
}

uint64_t Database::SizeBytes() const {
  uint64_t total = 0;
  for (const auto& t : tables_) total += t->SizeBytes();
  return total;
}

}  // namespace storage
}  // namespace lce
