#include "sql/lexer.h"

#include <cctype>
#include <set>

#include "util/strings.h"

namespace tabbench {

namespace {
const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "SELECT", "FROM", "WHERE", "GROUP",    "BY",    "HAVING",
      "COUNT",  "IN",   "AND",   "DISTINCT", "AS",    "NULL",
      "ORDER",  "ASC",  "DESC"};
  return kw;
}

std::string ToUpper(const std::string& s) {
  std::string out = s;
  for (auto& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}
}  // namespace

Result<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  // The benchmark families average ~3.9 input bytes per token and never go
  // below 3.2, so this is one allocation per statement; denser input (e.g.
  // "a,b,c") still grows the vector as before.
  out.reserve(n / 3 + 2);
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '_')) {
        ++j;
      }
      std::string word = sql.substr(i, j - i);
      std::string upper = ToUpper(word);
      if (Keywords().count(upper)) {
        tok.type = TokenType::kKeyword;
        tok.text = upper;
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = word;
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i + 1;
      bool is_double = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '.')) {
        if (sql[j] == '.') is_double = true;
        ++j;
      }
      std::string num = sql.substr(i, j - i);
      if (is_double) {
        tok.type = TokenType::kDouble;
        tok.double_value = std::stod(num);
      } else {
        tok.type = TokenType::kInt;
        tok.int_value = std::stoll(num);
      }
      tok.text = num;
      i = j;
    } else if (c == '\'') {
      std::string text;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (sql[j] == '\'') {
          if (j + 1 < n && sql[j + 1] == '\'') {  // escaped quote
            text += '\'';
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        text += sql[j];
        ++j;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", i));
      }
      tok.type = TokenType::kString;
      tok.text = std::move(text);
      i = j;
    } else {
      switch (c) {
        case ',': tok.type = TokenType::kComma; break;
        case '(': tok.type = TokenType::kLParen; break;
        case ')': tok.type = TokenType::kRParen; break;
        case '.': tok.type = TokenType::kDot; break;
        case '*': tok.type = TokenType::kStar; break;
        case '=': tok.type = TokenType::kEq; break;
        case '<': tok.type = TokenType::kLt; break;
        case '>': tok.type = TokenType::kGt; break;
        default:
          return Status::InvalidArgument(
              StrFormat("unexpected character '%c' at offset %zu", c, i));
      }
      tok.text = std::string(1, c);
      ++i;
    }
    out.push_back(std::move(tok));
  }
  Token eof;
  eof.type = TokenType::kEof;
  eof.position = n;
  out.push_back(eof);
  return out;
}

}  // namespace tabbench
