#include "src/query/encoder.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/exec/executor.h"
#include "src/storage/datagen.h"

namespace lce {
namespace query {
namespace {

class EncoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = storage::datagen::Generate(storage::datagen::ImdbLikeSpec(0.02), 1);
    encoder_ = std::make_unique<QueryEncoder>(db_.get(),
                                              QueryEncoder::Options{}, 7);
  }
  /// One query's MSCN sets, each a row-major block of `*_rows` tokens.
  struct Sets {
    MscnCounts rows;
    std::vector<float> tables, joins, predicates;
  };

  /// MscnEncodeInto `q` into fresh zeroed blocks of the documented widths;
  /// without `table_bitmaps` a table token is its one-hot columns alone.
  Sets Encode(const Query& q, bool table_bitmaps = true) const {
    const int tdim = table_bitmaps ? encoder_->mscn_table_dim()
                                   : db_->num_tables();
    const int jdim = encoder_->mscn_join_dim();
    const int pdim = encoder_->mscn_pred_dim();
    Sets sets;
    sets.rows = encoder_->MscnTokenCounts(q);
    sets.tables.assign(static_cast<size_t>(sets.rows.tables) * tdim, 0.0f);
    sets.joins.assign(static_cast<size_t>(sets.rows.joins) * jdim, 0.0f);
    sets.predicates.assign(static_cast<size_t>(sets.rows.predicates) * pdim,
                           0.0f);
    encoder_->MscnEncodeInto(
        q, {sets.tables.data(), tdim, sets.joins.data(), jdim,
            sets.predicates.data(), pdim, table_bitmaps});
    return sets;
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<QueryEncoder> encoder_;
};

TEST_F(EncoderTest, FlatDimensionsMatchSchema) {
  int tables = db_->num_tables();
  int joins = static_cast<int>(db_->schema().joins.size());
  int cols = db_->schema().TotalColumns();
  EXPECT_EQ(encoder_->flat_dim(), tables + joins + 2 * cols);
  EXPECT_EQ(encoder_->flat_dim_for(FlatVariant::kRangeOnly), 2 * cols);
  EXPECT_EQ(encoder_->flat_dim_for(FlatVariant::kCoarse),
            encoder_->flat_dim());
}

TEST_F(EncoderTest, FlatEncodingMarksStructure) {
  Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  std::vector<float> enc = encoder_->FlatEncode(q);
  EXPECT_FLOAT_EQ(enc[0], 1.0f);  // title
  EXPECT_FLOAT_EQ(enc[1], 1.0f);  // movie_companies
  EXPECT_FLOAT_EQ(enc[2], 0.0f);
  EXPECT_FLOAT_EQ(enc[db_->num_tables()], 1.0f);  // join edge 0
}

TEST_F(EncoderTest, UnconstrainedColumnsEncodeFullRange) {
  Query q;
  q.tables = {0};
  std::vector<float> enc = encoder_->FlatEncode(q);
  int base = db_->num_tables() + static_cast<int>(db_->schema().joins.size());
  for (int c = 0; c < db_->schema().TotalColumns(); ++c) {
    EXPECT_FLOAT_EQ(enc[base + 2 * c], 0.0f);
    EXPECT_FLOAT_EQ(enc[base + 2 * c + 1], 1.0f);
  }
}

TEST_F(EncoderTest, PredicateNormalizationUsesColumnStats) {
  const storage::Table& title = db_->table(0);
  storage::Value min = title.stats(1).min;
  storage::Value max = title.stats(1).max;
  Query q;
  q.tables = {0};
  q.predicates = {{{0, 1}, min, max}};
  std::vector<float> enc = encoder_->FlatEncode(q);
  int base = db_->num_tables() + static_cast<int>(db_->schema().joins.size());
  int gc = db_->schema().GlobalColumnIndex("title", "kind_id");
  EXPECT_FLOAT_EQ(enc[base + 2 * gc], 0.0f);
  EXPECT_FLOAT_EQ(enc[base + 2 * gc + 1], 1.0f);
  // A midpoint predicate lands strictly inside (0, 1).
  q.predicates[0].lo = (min + max) / 2;
  q.predicates[0].hi = (min + max) / 2;
  enc = encoder_->FlatEncode(q);
  EXPECT_GT(enc[base + 2 * gc], 0.1f);
  EXPECT_LT(enc[base + 2 * gc + 1], 0.9f);
}

TEST_F(EncoderTest, CoarseVariantQuantizes) {
  Query q;
  q.tables = {0};
  q.predicates = {{{0, 2}, 13, 77}};
  std::vector<float> full = encoder_->FlatEncode(q, FlatVariant::kFull);
  std::vector<float> coarse = encoder_->FlatEncode(q, FlatVariant::kCoarse);
  for (float v : coarse) {
    float scaled = v * 10.0f;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-4);
  }
  EXPECT_EQ(full.size(), coarse.size());
}

TEST_F(EncoderTest, MscnSetsHaveDocumentedShapes) {
  Query q;
  q.tables = {0, 1, 2};
  q.join_edges = {0, 1};
  q.predicates = {{{0, 1}, 0, 2}};
  Sets sets = Encode(q);
  EXPECT_EQ(sets.rows.tables, 3);
  EXPECT_EQ(sets.rows.joins, 2);
  EXPECT_EQ(sets.rows.predicates, 1);
  // One-hots land in each token's own row of its set.
  const int tdim = encoder_->mscn_table_dim();
  for (int r = 0; r < 3; ++r) {
    for (int t = 0; t < db_->num_tables(); ++t) {
      EXPECT_FLOAT_EQ(sets.tables[r * tdim + t], t == q.tables[r] ? 1 : 0);
    }
  }
  const int jdim = encoder_->mscn_join_dim();
  EXPECT_FLOAT_EQ(sets.joins[0 * jdim + 0], 1.0f);
  EXPECT_FLOAT_EQ(sets.joins[1 * jdim + 1], 1.0f);
  EXPECT_FLOAT_EQ(sets.predicates[db_->schema().GlobalColumnIndex(
                      "title", "kind_id")],
                  1.0f);
}

TEST_F(EncoderTest, MscnEmptySetsGetZeroToken) {
  Query q;
  q.tables = {0};
  Sets sets = Encode(q);
  ASSERT_EQ(sets.rows.joins, 1);
  ASSERT_EQ(sets.rows.predicates, 1);
  for (float v : sets.joins) EXPECT_FLOAT_EQ(v, 0.0f);
  for (float v : sets.predicates) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST_F(EncoderTest, MscnBitmapTracksSelectivity) {
  // An unconstrained table has an all-ones bitmap; a very selective predicate
  // leaves almost no bits set.
  Query open;
  open.tables = {0};
  Sets open_sets = Encode(open);
  int bitmap_base = db_->num_tables();
  int sample = encoder_->mscn_table_dim() - bitmap_base;
  double open_bits = 0;
  for (int s = 0; s < sample; ++s) {
    open_bits += open_sets.tables[bitmap_base + s];
  }
  EXPECT_DOUBLE_EQ(open_bits, sample);

  Query narrow = open;
  narrow.predicates = {{{0, 2}, -1000000, -999999}};  // empty range
  Sets narrow_sets = Encode(narrow);
  double narrow_bits = 0;
  for (int s = 0; s < sample; ++s) {
    narrow_bits += narrow_sets.tables[bitmap_base + s];
  }
  EXPECT_DOUBLE_EQ(narrow_bits, 0);
}

// Without bitmaps (FCN+Pool's input) each table token is the leading
// one-hot columns of the MSCN token; the join and predicate sets match.
TEST_F(EncoderTest, MscnWithoutBitmapsKeepsOneHotsOnly) {
  Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  q.predicates = {{{0, 1}, 0, 2}, {{1, 1}, 5, 9}};
  Sets full = Encode(q);
  Sets bare = Encode(q, /*table_bitmaps=*/false);
  ASSERT_EQ(bare.rows.tables, full.rows.tables);
  const int tables = db_->num_tables();
  const int tdim = encoder_->mscn_table_dim();
  for (int r = 0; r < full.rows.tables; ++r) {
    for (int c = 0; c < tables; ++c) {
      EXPECT_EQ(bare.tables[r * tables + c], full.tables[r * tdim + c]);
    }
  }
  EXPECT_EQ(bare.joins, full.joins);
  EXPECT_EQ(bare.predicates, full.predicates);
}

TEST_F(EncoderTest, SequenceHasOneTokenPerItem) {
  Query q;
  q.tables = {0, 1};
  q.join_edges = {0};
  q.predicates = {{{0, 1}, 0, 2}, {{1, 1}, 5, 9}};
  auto seq = encoder_->SequenceEncode(q);
  EXPECT_EQ(seq.size(), 2u + 1u + 2u);  // tables + joins + predicates
  for (const auto& token : seq) {
    EXPECT_EQ(token.size(), static_cast<size_t>(encoder_->seq_token_dim()));
  }
}

TEST_F(EncoderTest, LabelTransformRoundTrips) {
  for (double card : {1.0, 10.0, 1234.0, 1e6}) {
    float y = encoder_->NormalizeLog(card);
    EXPECT_GE(y, 0.0f);
    EXPECT_LE(y, 1.0f);
    EXPECT_NEAR(encoder_->DenormalizeLog(y), card, card * 1e-3);
  }
  // Sub-one cardinalities clamp to one tuple.
  EXPECT_DOUBLE_EQ(encoder_->DenormalizeLog(encoder_->NormalizeLog(0.0)), 1.0);
}

}  // namespace
}  // namespace query
}  // namespace lce
