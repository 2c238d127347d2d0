#include "src/query/query.h"

#include <gtest/gtest.h>

#include "src/storage/datagen.h"

namespace lce {
namespace query {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 1);
  }
  std::unique_ptr<storage::Database> db_;
};

Query TitleCompaniesQuery() {
  Query q;
  q.tables = {0, 1};  // title, movie_companies
  q.join_edges = {0};
  q.predicates = {{{0, 1}, 2, 5}};  // title.kind_id BETWEEN 2 AND 5
  return q;
}

TEST_F(QueryTest, ToSqlRendersJoinsAndPredicates) {
  std::string sql = ToSql(TitleCompaniesQuery(), db_->schema());
  EXPECT_NE(sql.find("SELECT COUNT(*) FROM title, movie_companies"),
            std::string::npos);
  EXPECT_NE(sql.find("title.id = movie_companies.movie_id"),
            std::string::npos);
  EXPECT_NE(sql.find("title.kind_id BETWEEN 2 AND 5"), std::string::npos);
}

TEST_F(QueryTest, ToSqlRendersEqualityAsEquals) {
  Query q;
  q.tables = {0};
  q.predicates = {{{0, 1}, 3, 3}};
  std::string sql = ToSql(q, db_->schema());
  EXPECT_NE(sql.find("title.kind_id = 3"), std::string::npos);
  EXPECT_EQ(sql.find("BETWEEN"), std::string::npos);
}

TEST_F(QueryTest, ValidateAcceptsWellFormedQuery) {
  EXPECT_TRUE(Validate(TitleCompaniesQuery(), *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsEmptyTables) {
  Query q;
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsUnsortedTables) {
  Query q = TitleCompaniesQuery();
  std::swap(q.tables[0], q.tables[1]);
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsMissingJoinEdge) {
  Query q = TitleCompaniesQuery();
  q.join_edges.clear();
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsDisconnectedTables) {
  Query q;
  q.tables = {1, 2};  // movie_companies, movie_info: both FK to title only
  q.join_edges = {0};
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsInvertedRange) {
  Query q = TitleCompaniesQuery();
  q.predicates[0].lo = 10;
  q.predicates[0].hi = 2;
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST_F(QueryTest, ValidateRejectsPredicateOnUnusedTable) {
  Query q = TitleCompaniesQuery();
  q.predicates.push_back({{3, 1}, 0, 1});  // movie_keyword not in query
  EXPECT_FALSE(Validate(q, *db_).ok());
}

TEST(QueryValidateTest, JoinEdgesMustSpanTheQueryTables) {
  // a, b and c form a triangle; d hangs off c. Three edges over four tables
  // can pass the edge count while closing the triangle and leaving d out,
  // even though d is join-connected in the schema.
  storage::datagen::DatabaseGenSpec spec;
  spec.name = "triangle";
  spec.tables = {
      {.name = "a", .rows = 20, .columns = {{.name = "ak", .is_key = true}}},
      {.name = "b",
       .rows = 20,
       .columns = {{.name = "bk", .is_key = true},
                   {.name = "a_fk", .ref_table = "a"}}},
      {.name = "c",
       .rows = 20,
       .columns = {{.name = "ck", .is_key = true},
                   {.name = "a_fk", .ref_table = "a"},
                   {.name = "b_fk", .ref_table = "b"}}},
      {.name = "d",
       .rows = 20,
       .columns = {{.name = "c_fk", .ref_table = "c"}}},
  };
  spec.joins = {{"a", "ak", "b", "a_fk"},
                {"b", "bk", "c", "b_fk"},
                {"a", "ak", "c", "a_fk"},
                {"c", "ck", "d", "c_fk"}};
  auto db = storage::datagen::Generate(spec, 1);

  Query tree;
  tree.tables = {0, 1, 2, 3};
  tree.join_edges = {0, 1, 3};
  EXPECT_TRUE(Validate(tree, *db).ok());

  Query cycle = tree;
  cycle.join_edges = {0, 1, 2};  // closes a-b-c, never reaches d
  Status s = Validate(cycle, *db);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("spanning tree"), std::string::npos);

  Query repeated = tree;
  repeated.join_edges = {0, 0, 3};  // right count, c unreached
  EXPECT_EQ(Validate(repeated, *db).code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryTest, JoinTemplateKeyIsOrderInsensitive) {
  Query a;
  a.tables = {0, 1, 2};
  a.join_edges = {0, 1};
  Query b = a;
  std::swap(b.join_edges[0], b.join_edges[1]);
  EXPECT_EQ(JoinTemplateKey(a), JoinTemplateKey(b));
  Query c = a;
  c.tables = {0, 1, 3};
  c.join_edges = {0, 2};
  EXPECT_NE(JoinTemplateKey(a), JoinTemplateKey(c));
}

TEST_F(QueryTest, RestrictKeepsInducedStructure) {
  Query q;
  q.tables = {0, 1, 2};
  q.join_edges = {0, 1};
  q.predicates = {{{0, 1}, 1, 3}, {{2, 1}, 0, 10}};
  Query sub = Restrict(q, {0, 1}, db_->schema());
  EXPECT_EQ(sub.tables, (std::vector<int>{0, 1}));
  EXPECT_EQ(sub.join_edges, (std::vector<int>{0}));
  ASSERT_EQ(sub.predicates.size(), 1u);
  EXPECT_EQ(sub.predicates[0].col.table, 0);
  EXPECT_TRUE(Validate(sub, *db_).ok());
}

TEST_F(QueryTest, RestrictToSingleTableDropsJoins) {
  Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  Query sub = Restrict(q, {1}, db_->schema());
  EXPECT_TRUE(sub.join_edges.empty());
  EXPECT_TRUE(Validate(sub, *db_).ok());
}

}  // namespace
}  // namespace query
}  // namespace lce
