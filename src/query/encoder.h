// Query featurization for the learned estimators.
//
// Three encodings from the query-driven CE literature:
//  * Flat: [table one-hots | join one-hots | (lo, hi) per global column],
//    consumed by Linear / FCN / FCN+Pool (Dutt et al.'s range featurization).
//  * MSCN sets: {table tokens with sample bitmaps}, {join tokens},
//    {predicate tokens} (Kipf et al.).
//  * Sequence: one token per table/join/predicate item, consumed by the
//    RNN / LSTM estimators (Ortiz et al.).
//
// The encoder snapshots column statistics (for [0,1] range normalization) and
// per-table row samples (for MSCN bitmaps) at construction; estimators keep
// their snapshot when the underlying data drifts, exactly like a deployed
// model whose featurizer was fit at training time.

#ifndef LCE_QUERY_ENCODER_H_
#define LCE_QUERY_ENCODER_H_

#include <cstdint>
#include <vector>

#include "src/query/query.h"
#include "src/storage/database.h"

namespace lce {
namespace query {

/// Where MscnEncodeInto writes one query's three MSCN input sets (table,
/// join and predicate tokens): three caller-owned row blocks, zero-filled,
/// each with room for the matching MscnTokenCounts() rows. Row r of a block
/// starts at `base + r * ld`. An empty set is a single all-zero token, so
/// set pooling stays well-defined.
struct MscnRows {
  float* tables = nullptr;
  int tables_ld = 0;
  float* joins = nullptr;
  int joins_ld = 0;
  float* predicates = nullptr;
  int predicates_ld = 0;
  /// False writes only the table one-hots (the first num_tables floats of
  /// each table token) and skips the sample bitmaps: FCN+Pool's input.
  bool table_bitmaps = true;
};

/// Row counts of one query's MSCN sets (empty sets count their zero token).
struct MscnCounts {
  int tables = 0;
  int joins = 0;
  int predicates = 0;
};

/// Variant knob for the encoding-ablation experiment (R12).
enum class FlatVariant {
  kFull,       // table one-hots + join one-hots + normalized ranges
  kRangeOnly,  // normalized ranges only (no structural context)
  kCoarse,     // full layout but ranges quantized to 10 bins
};

class QueryEncoder {
 public:
  struct Options {
    int mscn_sample_size = 64;  // bitmap width per table
  };

  QueryEncoder(const storage::Database* db, Options options, uint64_t seed);

  // -- Flat encoding ---------------------------------------------------------
  int flat_dim() const { return num_tables_ + num_joins_ + 2 * num_columns_; }
  std::vector<float> FlatEncode(const Query& q,
                                FlatVariant variant = FlatVariant::kFull) const;
  /// FlatEncode into `out`, which holds flat_dim_for(variant) floats; every
  /// one of them is written.
  void FlatEncodeInto(const Query& q, FlatVariant variant, float* out) const;
  int flat_dim_for(FlatVariant variant) const;

  // -- MSCN set encoding -----------------------------------------------------
  int mscn_table_dim() const { return num_tables_ + options_.mscn_sample_size; }
  int mscn_join_dim() const { return std::max(num_joins_, 1); }
  int mscn_pred_dim() const { return num_columns_ + 2; }
  MscnCounts MscnTokenCounts(const Query& q) const;
  /// Writes the set tokens of `q` into the zero-filled blocks of `rows`.
  void MscnEncodeInto(const Query& q, const MscnRows& rows) const;

  // -- Sequence encoding -----------------------------------------------------
  int seq_token_dim() const {
    return num_tables_ + num_joins_ + num_columns_ + 2;
  }
  std::vector<std::vector<float>> SequenceEncode(const Query& q) const;

  // -- Label transform -------------------------------------------------------
  /// log(1 + product of all table row counts): the normalizer that maps
  /// log-cardinalities into [0, 1] for sigmoid-output models.
  double max_log_card() const { return max_log_card_; }
  float NormalizeLog(double cardinality) const;
  double DenormalizeLog(float y) const;

  const storage::DatabaseSchema& schema() const { return *schema_; }

 private:
  struct ColumnRange {
    storage::Value min = 0;
    storage::Value max = 0;
  };

  float NormalizeValue(int global_col, storage::Value v) const;

  const storage::DatabaseSchema* schema_;
  const storage::Database* db_;
  Options options_;
  int num_tables_;
  int num_joins_;
  int num_columns_;
  std::vector<int> col_offset_;                // per table: first global column
  std::vector<ColumnRange> ranges_;            // per global column
  std::vector<std::vector<uint64_t>> samples_; // per table: sampled row ids
  double max_log_card_;
};

}  // namespace query
}  // namespace lce

#endif  // LCE_QUERY_ENCODER_H_
