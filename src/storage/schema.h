// Logical schema metadata: tables, columns, and the PK–FK join graph.

#ifndef LCE_STORAGE_SCHEMA_H_
#define LCE_STORAGE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lce {
namespace storage {

/// A column definition. `is_key` marks primary-key columns, which workload
/// generators never use in range predicates (matching common CE benchmarks).
struct ColumnDef {
  std::string name;
  bool is_key = false;
};

struct TableSchema {
  std::string name;
  std::vector<ColumnDef> columns;

  /// Index of a column by name; -1 when absent.
  int ColumnIndex(std::string_view column_name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == column_name) return static_cast<int>(i);
    }
    return -1;
  }
};

/// An equi-join edge `left.left_column = right.right_column`. By convention
/// the left side is the primary-key (dimension) side.
struct JoinEdge {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;

  /// Schema indexes of the four names above, so hot paths (parsing,
  /// validation, sub-plan restriction) compare ints instead of scanning
  /// names. Filled by DatabaseSchema::ResolveJoins(), which the Database
  /// constructor runs; -1 until then, and for a name the schema lacks.
  int left_table_index = -1;
  int left_column_index = -1;
  int right_table_index = -1;
  int right_column_index = -1;
};

/// Full logical schema of a database: tables plus join graph. Estimators use
/// this to size their encodings; workload generators use it to craft valid
/// join predicates.
struct DatabaseSchema {
  std::string name;
  std::vector<TableSchema> tables;
  std::vector<JoinEdge> joins;

  int TableIndex(std::string_view table_name) const {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (tables[i].name == table_name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Fills every join edge's table and column indexes from its names.
  void ResolveJoins() {
    for (JoinEdge& e : joins) {
      e.left_table_index = TableIndex(e.left_table);
      e.right_table_index = TableIndex(e.right_table);
      e.left_column_index =
          e.left_table_index < 0
              ? -1
              : tables[e.left_table_index].ColumnIndex(e.left_column);
      e.right_column_index =
          e.right_table_index < 0
              ? -1
              : tables[e.right_table_index].ColumnIndex(e.right_column);
    }
  }

  /// Total number of (table, column) pairs, the width basis of flat encodings.
  int TotalColumns() const {
    int n = 0;
    for (const auto& t : tables) n += static_cast<int>(t.columns.size());
    return n;
  }

  /// Flat index of a column across all tables (tables in schema order).
  int GlobalColumnIndex(const std::string& table_name,
                        const std::string& column_name) const {
    int offset = 0;
    for (const auto& t : tables) {
      if (t.name == table_name) {
        int c = t.ColumnIndex(column_name);
        return c < 0 ? -1 : offset + c;
      }
      offset += static_cast<int>(t.columns.size());
    }
    return -1;
  }
};

}  // namespace storage
}  // namespace lce

#endif  // LCE_STORAGE_SCHEMA_H_
