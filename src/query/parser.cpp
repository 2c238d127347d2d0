#include "src/query/parser.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <vector>

namespace lce {
namespace query {

namespace {

// The service front end feeds this parser untrusted strings, so every
// resource it consumes is capped: total input bytes, FROM-list entries, and
// WHERE terms. The caps are far above anything ToSql emits for a real
// schema; hitting one is always hostile or corrupt input.
constexpr size_t kMaxSqlBytes = 64 * 1024;
constexpr size_t kMaxFromTables = 1024;
constexpr size_t kMaxWhereTerms = 4096;

// Tokens are views into the statement, which outlives the parse: lexing
// copies nothing, and only error messages build strings.
struct Token {
  // kBadNumber: a numeric literal that does not fit in int64 — surfaced as
  // a parse error instead of the std::stoll throw that used to crash here.
  enum class Kind { kIdent, kNumber, kSymbol, kBadNumber, kEnd } kind =
      Kind::kEnd;
  std::string_view text;  // raw spelling; empty at the end
  int64_t number = 0;
};

// Character classes of the "C" locale, inline: the <cctype> calls cost a
// function call and a thread-local table lookup per byte, about half of the
// lexing time. Bytes >= 0x80 are in no class, as there.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Token Next() {
    while (pos_ < input_.size() && IsSpace(input_[pos_])) ++pos_;
    if (pos_ >= input_.size()) return Token{Token::Kind::kEnd, {}, 0};
    const size_t start = pos_;
    char c = input_[pos_];
    if (IsAlpha(c) || c == '_') {
      while (pos_ < input_.size() &&
             (IsAlpha(input_[pos_]) || IsDigit(input_[pos_]) ||
              input_[pos_] == '_')) {
        ++pos_;
      }
      return Token{Token::Kind::kIdent, Span(start), 0};
    }
    if (IsDigit(c) ||
        (c == '-' && pos_ + 1 < input_.size() && IsDigit(input_[pos_ + 1]))) {
      ++pos_;
      while (pos_ < input_.size() && IsDigit(input_[pos_])) ++pos_;
      Token t{Token::Kind::kNumber, Span(start), 0};
      const char* first = t.text.data();
      const char* last = first + t.text.size();
      auto [ptr, ec] = std::from_chars(first, last, t.number);
      if (ec != std::errc() || ptr != last) t.kind = Token::Kind::kBadNumber;
      return t;
    }
    // Multi-char comparison operators.
    if ((c == '<' || c == '>') && pos_ + 1 < input_.size() &&
        input_[pos_ + 1] == '=') {
      ++pos_;
    }
    ++pos_;
    return Token{Token::Kind::kSymbol, Span(start), 0};
  }

 private:
  std::string_view Span(size_t start) const {
    return input_.substr(start, pos_ - start);
  }

  std::string_view input_;
  size_t pos_ = 0;
};

// `kw` is an upper-case ASCII keyword. Identifiers are ASCII letters, digits
// and '_', so folding a-z in place is the whole of a case-insensitive
// compare.
bool IsKeyword(const Token& t, std::string_view kw) {
  if (t.kind != Token::Kind::kIdent || t.text.size() != kw.size()) {
    return false;
  }
  for (size_t i = 0; i < kw.size(); ++i) {
    char c = t.text[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != kw[i]) return false;
  }
  return true;
}

bool IsSymbol(const Token& t, std::string_view sym) {
  return t.kind == Token::Kind::kSymbol && t.text == sym;
}

// " near '<token>'" for error messages.
std::string Near(const Token& t) {
  std::string out = " near '";
  out.append(t.text);
  out += '\'';
  return out;
}

struct ColumnSite {
  int table = -1;
  int column = -1;
};

// One column's merged range constraint.
struct ColumnRange {
  ColumnSite site;
  storage::Value lo = 0;
  storage::Value hi = 0;
};

}  // namespace

Result<Query> ParseSql(const std::string& sql, const storage::Database& db) {
  if (sql.size() > kMaxSqlBytes) {
    return Status::InvalidArgument("statement exceeds " +
                                   std::to_string(kMaxSqlBytes) + " bytes");
  }
  const storage::DatabaseSchema& schema = db.schema();
  Lexer lexer(sql);
  Token tok = lexer.Next();

  // Out-of-range integer literals are lexed as kBadNumber and rejected
  // wherever a number is expected.
  auto number_error = [&](const std::string& context) -> Status {
    if (tok.kind == Token::Kind::kBadNumber) {
      return Status::InvalidArgument("integer literal out of range" +
                                     Near(tok));
    }
    return Status::InvalidArgument("expected number " + context + Near(tok));
  };

  auto expect_keyword = [&](const char* kw) -> Status {
    if (!IsKeyword(tok, kw)) {
      return Status::InvalidArgument(std::string("expected ") + kw +
                                     Near(tok));
    }
    tok = lexer.Next();
    return Status::OK();
  };
  auto expect_symbol = [&](const char* sym) -> Status {
    if (!IsSymbol(tok, sym)) {
      return Status::InvalidArgument(std::string("expected '") + sym + "'" +
                                     Near(tok));
    }
    tok = lexer.Next();
    return Status::OK();
  };

  // SELECT COUNT ( * ) FROM
  if (Status s = expect_keyword("SELECT"); !s.ok()) return s;
  if (Status s = expect_keyword("COUNT"); !s.ok()) return s;
  if (Status s = expect_symbol("("); !s.ok()) return s;
  if (Status s = expect_symbol("*"); !s.ok()) return s;
  if (Status s = expect_symbol(")"); !s.ok()) return s;
  if (Status s = expect_keyword("FROM"); !s.ok()) return s;

  Query q;
  // Table list.
  for (;;) {
    if (tok.kind != Token::Kind::kIdent) {
      return Status::InvalidArgument("expected table name" + Near(tok));
    }
    int t = schema.TableIndex(tok.text);
    if (t < 0) {
      return Status::InvalidArgument("unknown table " + std::string(tok.text));
    }
    if (q.tables.size() >= kMaxFromTables) {
      return Status::InvalidArgument("FROM list exceeds " +
                                     std::to_string(kMaxFromTables) +
                                     " tables");
    }
    q.tables.push_back(t);
    tok = lexer.Next();
    if (IsSymbol(tok, ",")) {
      tok = lexer.Next();
      continue;
    }
    break;
  }
  std::sort(q.tables.begin(), q.tables.end());
  q.tables.erase(std::unique(q.tables.begin(), q.tables.end()),
                 q.tables.end());

  // Column reference: table . column
  auto parse_column = [&]() -> Result<ColumnSite> {
    if (tok.kind != Token::Kind::kIdent) {
      return Status::InvalidArgument("expected column reference" + Near(tok));
    }
    const std::string_view table_name = tok.text;
    tok = lexer.Next();
    if (Status s = expect_symbol("."); !s.ok()) return s;
    if (tok.kind != Token::Kind::kIdent) {
      return Status::InvalidArgument("expected column name after '" +
                                     std::string(table_name) + ".'");
    }
    ColumnSite site;
    site.table = schema.TableIndex(table_name);
    if (site.table < 0) {
      return Status::InvalidArgument("unknown table " +
                                     std::string(table_name));
    }
    site.column = schema.tables[site.table].ColumnIndex(tok.text);
    if (site.column < 0) {
      return Status::InvalidArgument("unknown column " +
                                     std::string(table_name) + "." +
                                     std::string(tok.text));
    }
    tok = lexer.Next();
    return site;
  };

  // Merges a half-open or closed constraint into per-column ranges. A
  // statement constrains a handful of columns, so a linear scan beats a map.
  std::vector<ColumnRange> ranges;
  auto constrain = [&](const ColumnSite& site, storage::Value lo,
                       storage::Value hi) {
    for (ColumnRange& r : ranges) {
      if (r.site.table == site.table && r.site.column == site.column) {
        r.lo = std::max(r.lo, lo);
        r.hi = std::min(r.hi, hi);
        return;
      }
    }
    const storage::ColumnStats& stats =
        db.table(site.table).stats(site.column);
    ranges.push_back({site, std::max(lo, stats.min), std::min(hi, stats.max)});
  };

  if (IsKeyword(tok, "WHERE")) {
    tok = lexer.Next();
    size_t where_terms = 0;
    for (;;) {
      if (++where_terms > kMaxWhereTerms) {
        return Status::InvalidArgument("WHERE clause exceeds " +
                                       std::to_string(kMaxWhereTerms) +
                                       " terms");
      }
      Result<ColumnSite> left = parse_column();
      if (!left.ok()) return left.status();

      if (IsSymbol(tok, "=")) {
        tok = lexer.Next();
        if (tok.kind == Token::Kind::kNumber) {
          constrain(left.value(), tok.number, tok.number);
          tok = lexer.Next();
        } else if (tok.kind == Token::Kind::kBadNumber) {
          return number_error("after '='");
        } else {
          // Join condition: col = col. Must match a declared edge, in
          // either direction; the edges carry their resolved indexes.
          Result<ColumnSite> right = parse_column();
          if (!right.ok()) return right.status();
          const ColumnSite& a = left.value();
          const ColumnSite& b = right.value();
          int edge = -1;
          for (size_t j = 0; j < schema.joins.size(); ++j) {
            const storage::JoinEdge& e = schema.joins[j];
            const bool forward =
                e.left_table_index == a.table &&
                e.left_column_index == a.column &&
                e.right_table_index == b.table &&
                e.right_column_index == b.column;
            const bool backward =
                e.right_table_index == a.table &&
                e.right_column_index == a.column &&
                e.left_table_index == b.table &&
                e.left_column_index == b.column;
            if (forward || backward) {
              edge = static_cast<int>(j);
              break;
            }
          }
          if (edge < 0) {
            return Status::InvalidArgument(
                "no declared join edge matches the join condition");
          }
          q.join_edges.push_back(edge);
        }
      } else if (IsKeyword(tok, "BETWEEN")) {
        tok = lexer.Next();
        if (tok.kind != Token::Kind::kNumber) {
          return number_error("after BETWEEN");
        }
        storage::Value lo = tok.number;
        tok = lexer.Next();
        if (Status s = expect_keyword("AND"); !s.ok()) return s;
        if (tok.kind != Token::Kind::kNumber) {
          return number_error("after AND");
        }
        constrain(left.value(), lo, tok.number);
        tok = lexer.Next();
      } else if (IsSymbol(tok, "<") || IsSymbol(tok, "<=") ||
                 IsSymbol(tok, ">") || IsSymbol(tok, ">=")) {
        const std::string_view op = tok.text;
        tok = lexer.Next();
        if (tok.kind != Token::Kind::kNumber) {
          return number_error("after '" + std::string(op) + "'");
        }
        storage::Value v = tok.number;
        // Strict bounds at the int64 edge saturate instead of overflowing;
        // the range then collapses against the column stats and reports as
        // contradictory, which is the right answer for "< INT64_MIN".
        if (op == "<") {
          constrain(left.value(), storage::kValueMin,
                    v == storage::kValueMin ? v : v - 1);
        } else if (op == "<=") {
          constrain(left.value(), storage::kValueMin, v);
        } else if (op == ">") {
          constrain(left.value(), v == storage::kValueMax ? v : v + 1,
                    storage::kValueMax);
        } else {
          constrain(left.value(), v, storage::kValueMax);
        }
        tok = lexer.Next();
      } else {
        return Status::InvalidArgument("expected comparison" + Near(tok));
      }

      if (IsKeyword(tok, "AND")) {
        tok = lexer.Next();
        continue;
      }
      break;
    }
  }

  if (IsSymbol(tok, ";")) tok = lexer.Next();
  if (tok.kind != Token::Kind::kEnd) {
    return Status::InvalidArgument("trailing input" + Near(tok));
  }

  // Deduplicate join edges and materialize predicates.
  std::sort(q.join_edges.begin(), q.join_edges.end());
  q.join_edges.erase(std::unique(q.join_edges.begin(), q.join_edges.end()),
                     q.join_edges.end());
  // Predicates in (table, column) order, as the IR's canonical form.
  std::sort(ranges.begin(), ranges.end(),
            [](const ColumnRange& x, const ColumnRange& y) {
              return std::make_pair(x.site.table, x.site.column) <
                     std::make_pair(y.site.table, y.site.column);
            });
  q.predicates.reserve(ranges.size());
  for (const ColumnRange& r : ranges) {
    if (r.lo > r.hi) {
      return Status::InvalidArgument("contradictory constraints on a column");
    }
    Predicate p;
    p.col = {r.site.table, r.site.column};
    p.lo = r.lo;
    p.hi = r.hi;
    q.predicates.push_back(p);
  }

  if (Status s = Validate(q, db); !s.ok()) return s;
  return q;
}

}  // namespace query
}  // namespace lce
