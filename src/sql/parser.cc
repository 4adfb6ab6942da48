#include "sql/parser.h"

#include <string_view>

#include "sql/lexer.h"
#include "util/strings.h"

namespace tabbench {

namespace {

constexpr size_t kListReserve = 4;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmt> Parse() {
    SelectStmt stmt;
    // Most benchmark queries fit, so each list usually allocates once.
    stmt.items.reserve(kListReserve);
    stmt.from.reserve(kListReserve);
    stmt.where.reserve(kListReserve);
    stmt.group_by.reserve(kListReserve);
    TB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    TB_RETURN_IF_ERROR(ParseItems(&stmt));
    TB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    TB_RETURN_IF_ERROR(ParseTables(&stmt));
    if (AcceptKeyword("WHERE")) {
      TB_RETURN_IF_ERROR(ParseConjuncts(&stmt));
    }
    if (AcceptKeyword("GROUP")) {
      TB_RETURN_IF_ERROR(ExpectKeyword("BY"));
      TB_RETURN_IF_ERROR(ParseGroupBy(&stmt));
    }
    if (Peek().type != TokenType::kEof) {
      return Err("trailing tokens after statement");
    }
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token& Advance() { return tokens_[pos_++]; }
  /// Moves the current token's text out and steps past it; the parser never
  /// looks back at a consumed token.
  std::string TakeText() { return std::move(Advance().text); }

  bool AcceptKeyword(std::string_view kw) {
    if (Peek().type == TokenType::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Accept(TokenType t) {
    if (Peek().type == t) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) return Err("expected " + std::string(kw));
    return Status::OK();
  }
  Status Expect(TokenType t, std::string_view what) {
    if (!Accept(t)) return Err("expected " + std::string(what));
    return Status::OK();
  }
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(
        StrFormat("parse error at offset %zu ('%s'): %s", Peek().position,
                  Peek().text.c_str(), msg.c_str()));
  }

  // Each clause parser fills its list's new element in place: a failed
  // parse discards the whole statement.
  Status ParseColumnRef(AstColumnRef* ref) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument(
          StrFormat("parse error at offset %zu: expected column reference",
                    Peek().position));
    }
    std::string first = TakeText();
    if (Accept(TokenType::kDot)) {
      if (Peek().type != TokenType::kIdentifier) {
        return Status::InvalidArgument("expected column after '.'");
      }
      ref->qualifier = std::move(first);
      ref->column = TakeText();
    } else {
      ref->column = std::move(first);
    }
    return Status::OK();
  }

  Status ParseItems(SelectStmt* stmt) {
    do {
      AstSelectItem& item = stmt->items.emplace_back();
      if (AcceptKeyword("COUNT")) {
        TB_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        if (Accept(TokenType::kStar)) {
          item.kind = AstSelectItem::Kind::kCountStar;
        } else {
          TB_RETURN_IF_ERROR(ExpectKeyword("DISTINCT"));
          TB_RETURN_IF_ERROR(ParseColumnRef(&item.column));
          item.kind = AstSelectItem::Kind::kCountDistinct;
        }
        TB_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      } else {
        TB_RETURN_IF_ERROR(ParseColumnRef(&item.column));
        item.kind = AstSelectItem::Kind::kColumn;
      }
    } while (Accept(TokenType::kComma));
    return Status::OK();
  }

  Status ParseTables(SelectStmt* stmt) {
    do {
      if (Peek().type != TokenType::kIdentifier) {
        return Err("expected table name");
      }
      AstTableRef& ref = stmt->from.emplace_back();
      ref.table = TakeText();
      AcceptKeyword("AS");
      if (Peek().type == TokenType::kIdentifier) {
        ref.alias = TakeText();
      } else {
        ref.alias = ref.table;
      }
    } while (Accept(TokenType::kComma));
    return Status::OK();
  }

  Status ParseConjuncts(SelectStmt* stmt) {
    do {
      AstPredicate& pred = stmt->where.emplace_back();
      TB_RETURN_IF_ERROR(ParseColumnRef(&pred.left));
      if (AcceptKeyword("IN")) {
        pred.kind = AstPredicate::Kind::kColInSubquery;
        TB_RETURN_IF_ERROR(ParseInSubquery(&pred.sub));
      } else {
        TB_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
        const Token& t = Peek();
        if (t.type == TokenType::kIdentifier) {
          pred.kind = AstPredicate::Kind::kColEqCol;
          TB_RETURN_IF_ERROR(ParseColumnRef(&pred.right));
        } else if (t.type == TokenType::kInt) {
          pred.kind = AstPredicate::Kind::kColEqLiteral;
          pred.literal = Value(Advance().int_value);
        } else if (t.type == TokenType::kDouble) {
          pred.kind = AstPredicate::Kind::kColEqLiteral;
          pred.literal = Value(Advance().double_value);
        } else if (t.type == TokenType::kString) {
          pred.kind = AstPredicate::Kind::kColEqLiteral;
          pred.literal = Value(TakeText());
        } else {
          return Err("expected column or literal after '='");
        }
      }
    } while (AcceptKeyword("AND"));
    return Status::OK();
  }

  Status ParseInSubquery(AstInSubquery* sub) {
    TB_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    TB_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (Peek().type != TokenType::kIdentifier) return Err("expected column");
    sub->column = TakeText();
    TB_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (Peek().type != TokenType::kIdentifier) return Err("expected table");
    sub->table = TakeText();
    TB_RETURN_IF_ERROR(ExpectKeyword("GROUP"));
    TB_RETURN_IF_ERROR(ExpectKeyword("BY"));
    if (Peek().type != TokenType::kIdentifier ||
        Peek().text != sub->column) {
      return Err("subquery GROUP BY must match its SELECT column");
    }
    Advance();
    TB_RETURN_IF_ERROR(ExpectKeyword("HAVING"));
    TB_RETURN_IF_ERROR(ExpectKeyword("COUNT"));
    TB_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    TB_RETURN_IF_ERROR(Expect(TokenType::kStar, "'*'"));
    TB_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    if (Accept(TokenType::kLt)) {
      sub->cmp = '<';
    } else if (Accept(TokenType::kEq)) {
      sub->cmp = '=';
    } else {
      return Err("expected '<' or '=' in HAVING");
    }
    if (Peek().type != TokenType::kInt) return Err("expected integer");
    sub->k = Advance().int_value;
    TB_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return Status::OK();
  }

  Status ParseGroupBy(SelectStmt* stmt) {
    do {
      TB_RETURN_IF_ERROR(ParseColumnRef(&stmt->group_by.emplace_back()));
    } while (Accept(TokenType::kComma));
    return Status::OK();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStmt> ParseSelect(const std::string& sql) {
  std::vector<Token> tokens;
  TB_ASSIGN_OR_RETURN(tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace tabbench
