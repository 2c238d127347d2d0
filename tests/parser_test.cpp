#include "src/query/parser.h"

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/storage/datagen.h"
#include "src/workload/generator.h"

namespace lce {
namespace query {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::TpchLikeSpec(0.03), 1);
  }
  std::unique_ptr<storage::Database> db_;
};

TEST_F(ParserTest, ParsesSingleTableQuery) {
  auto result = ParseSql(
      "SELECT COUNT(*) FROM customer WHERE customer.c_nationkey = 7;", *db_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Query& q = result.value();
  EXPECT_EQ(q.tables, (std::vector<int>{0}));
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(q.predicates[0].lo, 7);
  EXPECT_EQ(q.predicates[0].hi, 7);
}

TEST_F(ParserTest, ParsesJoinAndBetween) {
  auto result = ParseSql(
      "SELECT COUNT(*) FROM customer, orders "
      "WHERE customer.c_custkey = orders.o_custkey "
      "AND orders.o_orderdate BETWEEN 100 AND 500;",
      *db_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Query& q = result.value();
  EXPECT_EQ(q.tables.size(), 2u);
  EXPECT_EQ(q.join_edges, (std::vector<int>{0}));
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(q.predicates[0].lo, 100);
  EXPECT_EQ(q.predicates[0].hi, 500);
}

TEST_F(ParserTest, JoinConditionOrderInsensitive) {
  auto result = ParseSql(
      "SELECT COUNT(*) FROM customer, orders "
      "WHERE orders.o_custkey = customer.c_custkey;",
      *db_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().join_edges, (std::vector<int>{0}));
}

TEST_F(ParserTest, OpenRangesCloseAgainstColumnStats) {
  auto result = ParseSql(
      "SELECT COUNT(*) FROM orders WHERE orders.o_orderdate >= 1000 "
      "AND orders.o_orderdate < 1200;",
      *db_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().predicates.size(), 1u);
  EXPECT_EQ(result.value().predicates[0].lo, 1000);
  EXPECT_EQ(result.value().predicates[0].hi, 1199);
}

TEST_F(ParserTest, KeywordsAreCaseInsensitive) {
  auto result = ParseSql(
      "select count(*) from customer where customer.c_acctbal between 5 and "
      "50;",
      *db_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(ParserTest, LowerAndMixedCaseKeywordsParseLikeUpperCase) {
  const std::string upper =
      "SELECT COUNT(*) FROM customer, orders "
      "WHERE customer.c_custkey = orders.o_custkey "
      "AND orders.o_orderdate BETWEEN 100 AND 500 "
      "AND customer.c_acctbal >= 7;";
  auto want = ParseSql(upper, *db_);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (const char* sql :
       {"select count(*) from customer, orders "
        "where customer.c_custkey = orders.o_custkey "
        "and orders.o_orderdate between 100 and 500 "
        "and customer.c_acctbal >= 7;",
        "SeLeCt CoUnT(*) FrOm customer, orders "
        "wHeRe customer.c_custkey = orders.o_custkey "
        "AnD orders.o_orderdate bEtWeEn 100 aNd 500 "
        "aND customer.c_acctbal >= 7;"}) {
    auto got = ParseSql(sql, *db_);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    EXPECT_EQ(ToSql(got.value(), db_->schema()),
              ToSql(want.value(), db_->schema()));
  }
  // A keyword must match whole: a longer or shorter identifier is not it.
  EXPECT_FALSE(ParseSql("SELECTS COUNT(*) FROM customer;", *db_).ok());
  EXPECT_FALSE(ParseSql("SELECT COUN(*) FROM customer;", *db_).ok());
  auto bad = ParseSql("SELECT COUNT(*) FROMX customer;", *db_);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("expected FROM near 'FROMX'"),
            std::string::npos)
      << bad.status().ToString();
}

TEST_F(ParserTest, ReversedJoinConditionResolvesToTheSameEdge) {
  const storage::DatabaseSchema& schema = db_->schema();
  ASSERT_FALSE(schema.joins.empty());
  for (size_t j = 0; j < schema.joins.size(); ++j) {
    const storage::JoinEdge& e = schema.joins[j];
    const std::string from =
        "SELECT COUNT(*) FROM " + e.left_table + ", " + e.right_table;
    const std::string left = e.left_table + "." + e.left_column;
    const std::string right = e.right_table + "." + e.right_column;
    for (const std::string& sql :
         {from + " WHERE " + left + " = " + right + ";",
          from + " WHERE " + right + " = " + left + ";"}) {
      auto result = ParseSql(sql, *db_);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
      EXPECT_EQ(result.value().join_edges, (std::vector<int>{static_cast<int>(j)}))
          << sql;
    }
  }
}

// Names of 16 bytes or more do not fit a std::string's inline buffer; the
// parser must resolve them and quote them in errors all the same.
class LongNameParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::DatabaseSchema s;
    s.name = "long_names";
    s.tables = {
        storage::TableSchema{kAccounts,
                             {{"customer_account_id", true},
                              {"lifetime_balance_cents", false}}},
        storage::TableSchema{kLedger,
                             {{"transaction_id", true},
                              {"customer_account_ref", false},
                              {"transaction_amount_cents", false}}}};
    s.joins = {{kAccounts, "customer_account_id", kLedger,
                "customer_account_ref"}};
    db_ = std::make_unique<storage::Database>(std::move(s));
    for (storage::Value i = 0; i < 100; ++i) {
      db_->table(0).AppendRow({i, i % 50});
      db_->table(1).AppendRow({i, i % 100, i * 3});
    }
    db_->FinalizeAll();
  }

  static constexpr const char* kAccounts = "customer_accounts_archive";
  static constexpr const char* kLedger = "account_transactions_ledger";
  std::unique_ptr<storage::Database> db_;
};

TEST_F(LongNameParserTest, AcceptsLongTableAndColumnNames) {
  for (const char* sql :
       {"SELECT COUNT(*) FROM customer_accounts_archive, "
        "account_transactions_ledger WHERE "
        "customer_accounts_archive.customer_account_id = "
        "account_transactions_ledger.customer_account_ref AND "
        "customer_accounts_archive.lifetime_balance_cents BETWEEN 10 AND 40 "
        "AND account_transactions_ledger.transaction_amount_cents >= 30;",
        "select count(*) from account_transactions_ledger, "
        "customer_accounts_archive where "
        "account_transactions_ledger.customer_account_ref = "
        "customer_accounts_archive.customer_account_id and "
        "customer_accounts_archive.lifetime_balance_cents between 10 and 40 "
        "and account_transactions_ledger.transaction_amount_cents >= 30;"}) {
    auto result = ParseSql(sql, *db_);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    const Query& q = result.value();
    EXPECT_EQ(q.tables, (std::vector<int>{0, 1}));
    EXPECT_EQ(q.join_edges, (std::vector<int>{0}));
    ASSERT_EQ(q.predicates.size(), 2u);
    EXPECT_EQ(q.predicates[0].col, (ColumnRef{0, 1}));
    EXPECT_EQ(q.predicates[0].lo, 10);
    EXPECT_EQ(q.predicates[0].hi, 40);
    EXPECT_EQ(q.predicates[1].col, (ColumnRef{1, 2}));
    EXPECT_EQ(q.predicates[1].lo, 30);
  }
}

TEST_F(LongNameParserTest, RejectionsQuoteTheLongName) {
  const struct {
    std::string sql;
    std::string quoted;
  } cases[] = {
      {"SELECT COUNT(*) FROM customer_accounts_archival_copy;",
       "unknown table customer_accounts_archival_copy"},
      {"SELECT COUNT(*) FROM customer_accounts_archive WHERE "
       "customer_accounts_archive.lifetime_balance_dollars = 3;",
       "unknown column "
       "customer_accounts_archive.lifetime_balance_dollars"},
      {"SELECT COUNT(*) FROM customer_accounts_archive WHERE "
       "customer_accounts_archive_old.lifetime_balance_cents = 3;",
       "unknown table customer_accounts_archive_old"},
      {"SELECT COUNT(*) FROM customer_accounts_archive WHERE "
       "customer_accounts_archive. = 3;",
       "expected column name after 'customer_accounts_archive.'"},
      {"SELECT COUNT(*) FROM customer_accounts_archive WHERE "
       "customer_accounts_archive.lifetime_balance_cents "
       "approximately_equals_operator 3;",
       "expected comparison near 'approximately_equals_operator'"},
      {"SELECT COUNT(*) FROM customer_accounts_archive "
       "trailing_identifier_past_the_inline_buffer;",
       "trailing input near 'trailing_identifier_past_the_inline_buffer'"},
      {"SELECT COUNT(*) FROM customer_accounts_archive WHERE "
       "customer_accounts_archive.lifetime_balance_cents BETWEEN "
       "lower_bound_identifier AND 5;",
       "expected number after BETWEEN near 'lower_bound_identifier'"},
      {"SELECT COUNT(*) FROM customer_accounts_archive, "
       "account_transactions_ledger WHERE "
       "customer_accounts_archive.lifetime_balance_cents = "
       "account_transactions_ledger.transaction_amount_cents;",
       "no declared join edge matches the join condition"},
  };
  for (const auto& c : cases) {
    // A temporary copy of the statement: error text must not point into it.
    auto result = ParseSql(std::string(c.sql), *db_);
    ASSERT_FALSE(result.ok()) << c.sql;
    EXPECT_NE(result.status().message().find(c.quoted), std::string::npos)
        << c.sql << " -> " << result.status().ToString();
  }
}

TEST_F(ParserTest, RoundTripsToSqlOutput) {
  workload::WorkloadOptions opts;
  opts.max_joins = 3;
  workload::WorkloadGenerator gen(db_.get(), opts);
  exec::Executor ex(db_.get());
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    Query original = gen.GenerateQuery(&rng);
    std::string sql = ToSql(original, db_->schema());
    auto parsed = ParseSql(sql, *db_);
    ASSERT_TRUE(parsed.ok()) << sql << " -> " << parsed.status().ToString();
    // Semantics must match: identical true cardinalities.
    EXPECT_DOUBLE_EQ(ex.Cardinality(parsed.value()), ex.Cardinality(original))
        << sql;
  }
}

TEST_F(ParserTest, RejectsUnknownTable) {
  auto result = ParseSql("SELECT COUNT(*) FROM nope;", *db_);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown table"),
            std::string::npos);
}

TEST_F(ParserTest, RejectsUnknownColumn) {
  auto result =
      ParseSql("SELECT COUNT(*) FROM customer WHERE customer.zzz = 1;", *db_);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown column"),
            std::string::npos);
}

TEST_F(ParserTest, RejectsUndeclaredJoin) {
  // customer and part are not adjacent in the join graph.
  auto result = ParseSql(
      "SELECT COUNT(*) FROM customer, part "
      "WHERE customer.c_custkey = part.p_partkey;",
      *db_);
  EXPECT_FALSE(result.ok());
}

TEST_F(ParserTest, RejectsDisconnectedFromClause) {
  auto result = ParseSql("SELECT COUNT(*) FROM customer, part;", *db_);
  EXPECT_FALSE(result.ok());
}

TEST_F(ParserTest, RejectsContradictoryConstraints) {
  auto result = ParseSql(
      "SELECT COUNT(*) FROM customer WHERE customer.c_acctbal > 100 AND "
      "customer.c_acctbal < 50;",
      *db_);
  EXPECT_FALSE(result.ok());
}

TEST_F(ParserTest, RejectsTrailingGarbage) {
  auto result =
      ParseSql("SELECT COUNT(*) FROM customer; GRANT ALL", *db_);
  EXPECT_FALSE(result.ok());
}

// --- Hostile-input hardening ------------------------------------------------
// The serving front end hands this parser raw request strings, so every
// malformed, truncated, oversized, or garbage input must come back as a
// Status — never a throw, crash, or hang.

TEST_F(ParserTest, RejectsOverflowIntegerLiterals) {
  for (const char* sql :
       {"SELECT COUNT(*) FROM customer WHERE "
        "customer.c_acctbal = 99999999999999999999;",
        "SELECT COUNT(*) FROM customer WHERE "
        "customer.c_acctbal = -99999999999999999999;",
        "SELECT COUNT(*) FROM customer WHERE customer.c_acctbal BETWEEN "
        "123456789012345678901234567890 AND 5;",
        "SELECT COUNT(*) FROM customer WHERE customer.c_acctbal BETWEEN "
        "1 AND 123456789012345678901234567890;",
        "SELECT COUNT(*) FROM customer WHERE "
        "customer.c_acctbal < 99999999999999999999;"}) {
    auto result = ParseSql(sql, *db_);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_NE(result.status().message().find("out of range"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(ParserTest, StrictBoundsSaturateAtInt64Edges) {
  // "< INT64_MIN" and "> INT64_MAX" must not overflow v-1 / v+1; the
  // saturated range collapses against the column stats and reports as
  // contradictory instead.
  for (const char* sql :
       {"SELECT COUNT(*) FROM customer WHERE "
        "customer.c_acctbal < -9223372036854775808;",
        "SELECT COUNT(*) FROM customer WHERE "
        "customer.c_acctbal > 9223372036854775807;"}) {
    auto result = ParseSql(sql, *db_);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_NE(result.status().message().find("contradictory"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(ParserTest, RejectsOversizedStatement) {
  std::string sql = "SELECT COUNT(*) FROM customer WHERE ";
  while (sql.size() <= 70 * 1024) {
    sql += "customer.c_acctbal >= 1 AND ";
  }
  sql += "customer.c_acctbal >= 1;";
  auto result = ParseSql(sql, *db_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("exceeds"), std::string::npos);
}

TEST_F(ParserTest, RejectsOversizedFromList) {
  std::string sql = "SELECT COUNT(*) FROM customer";
  for (int i = 0; i < 1025; ++i) sql += ",customer";
  sql += ";";
  auto result = ParseSql(sql, *db_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("FROM list exceeds"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ParserTest, EveryTruncatedPrefixReturnsWithoutCrashing) {
  const std::string sql =
      "SELECT COUNT(*) FROM customer, orders "
      "WHERE customer.c_custkey = orders.o_custkey "
      "AND orders.o_orderdate BETWEEN 100 AND 500 "
      "AND customer.c_acctbal >= -17;";
  ASSERT_TRUE(ParseSql(sql, *db_).ok());
  for (size_t len = 0; len < sql.size(); ++len) {
    // The only requirement is a clean Status return on every prefix; most
    // prefixes are invalid, a few (dropped trailing terms) legally parse.
    auto result = ParseSql(sql.substr(0, len), *db_);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty()) << "prefix " << len;
    }
  }
}

TEST_F(ParserTest, ByteSoupNeverCrashes) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup;
    size_t len = rng.Below(256);
    soup.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      soup.push_back(static_cast<char>(rng.Below(256)));  // NULs included
    }
    auto result = ParseSql(soup, *db_);
    EXPECT_FALSE(result.ok()) << "trial " << trial;
  }
}

TEST_F(ParserTest, MutatedValidStatementsNeverCrash) {
  const std::string base =
      "SELECT COUNT(*) FROM customer, orders "
      "WHERE customer.c_custkey = orders.o_custkey "
      "AND orders.o_orderdate BETWEEN 100 AND 500;";
  Rng rng(78);
  for (int trial = 0; trial < 300; ++trial) {
    std::string sql = base;
    // A handful of random byte flips per trial keeps most structure intact,
    // probing deeper parser states than pure noise reaches.
    int flips = 1 + static_cast<int>(rng.Below(4));
    for (int f = 0; f < flips; ++f) {
      sql[rng.Below(static_cast<uint32_t>(sql.size()))] =
          static_cast<char>(rng.Below(256));
    }
    auto result = ParseSql(sql, *db_);  // ok or error; returning is the test
    (void)result;
  }
}

TEST_F(ParserTest, MergesMultipleConstraintsOnOneColumn) {
  auto result = ParseSql(
      "SELECT COUNT(*) FROM customer WHERE customer.c_acctbal >= 10 AND "
      "customer.c_acctbal <= 90 AND customer.c_acctbal >= 20;",
      *db_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().predicates.size(), 1u);
  EXPECT_EQ(result.value().predicates[0].lo, 20);
  EXPECT_EQ(result.value().predicates[0].hi, 90);
}

}  // namespace
}  // namespace query
}  // namespace lce
