#include "sql/lexer.h"

#include <charconv>
#include <string_view>

#include "util/strings.h"

namespace tabbench {

namespace {

// Character classes of the C locale, tested directly.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAlpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
bool IsWordStart(char c) { return IsAlpha(c) || c == '_'; }
bool IsWordChar(char c) { return IsWordStart(c) || IsDigit(c); }

// The keywords, grouped by length; index = length.
constexpr std::string_view kKeywords2[] = {"BY", "IN", "AS"};
constexpr std::string_view kKeywords3[] = {"AND", "ASC"};
constexpr std::string_view kKeywords4[] = {"FROM", "NULL", "DESC"};
constexpr std::string_view kKeywords5[] = {"WHERE", "GROUP", "COUNT", "ORDER"};
constexpr std::string_view kKeywords6[] = {"SELECT", "HAVING"};
constexpr std::string_view kKeywords8[] = {"DISTINCT"};

/// True iff `word` (letters, digits, '_') spells `kw` (upper case) in any
/// case. Clearing bit 0x20 upper-cases a letter and never turns a digit or
/// '_' into one.
bool EqualsKeyword(std::string_view word, std::string_view kw) {
  for (size_t i = 0; i < kw.size(); ++i) {
    if ((word[i] & ~0x20) != kw[i]) return false;
  }
  return true;
}

/// The keyword `word` spells, upper case, or an empty view.
std::string_view MatchKeyword(std::string_view word) {
  auto find = [word](const auto& table) -> std::string_view {
    for (std::string_view kw : table) {
      if (EqualsKeyword(word, kw)) return kw;
    }
    return {};
  };
  switch (word.size()) {
    case 2: return find(kKeywords2);
    case 3: return find(kKeywords3);
    case 4: return find(kKeywords4);
    case 5: return find(kKeywords5);
    case 6: return find(kKeywords6);
    case 8: return find(kKeywords8);
    default: return {};
  }
}

/// Parses `num` whole into `*out`; InvalidArgument naming `offset` if the
/// literal is malformed (e.g. "1.2.3") or out of range.
template <typename T>
Status ParseNumber(std::string_view num, size_t offset, T* out) {
  const char* end = num.data() + num.size();
  auto [ptr, ec] = std::from_chars(num.data(), end, *out);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument(
        StrFormat("numeric literal '%.*s' out of range at offset %zu",
                  static_cast<int>(num.size()), num.data(), offset));
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(
        StrFormat("malformed numeric literal '%.*s' at offset %zu",
                  static_cast<int>(num.size()), num.data(), offset));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> out;
  const std::string_view src(sql);
  size_t i = 0;
  const size_t n = src.size();
  // The benchmark families average ~3.9 input bytes per token and never go
  // below 3.2, so this is one allocation per statement; denser input (e.g.
  // "a,b,c") still grows the vector as before.
  out.reserve(n / 3 + 2);
  while (i < n) {
    char c = src[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    Token& tok = out.emplace_back();
    tok.position = i;
    if (IsWordStart(c)) {
      size_t j = i + 1;
      while (j < n && IsWordChar(src[j])) ++j;
      const std::string_view word = src.substr(i, j - i);
      const std::string_view kw = MatchKeyword(word);
      if (!kw.empty()) {
        tok.type = TokenType::kKeyword;
        tok.text = kw;
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = word;
      }
      i = j;
    } else if (IsDigit(c) || (c == '-' && i + 1 < n && IsDigit(src[i + 1]))) {
      size_t j = i + 1;
      bool is_double = false;
      while (j < n && (IsDigit(src[j]) || src[j] == '.')) {
        if (src[j] == '.') is_double = true;
        ++j;
      }
      const std::string_view num = src.substr(i, j - i);
      if (is_double) {
        tok.type = TokenType::kDouble;
        TB_RETURN_IF_ERROR(ParseNumber(num, i, &tok.double_value));
      } else {
        tok.type = TokenType::kInt;
        TB_RETURN_IF_ERROR(ParseNumber(num, i, &tok.int_value));
      }
      tok.text = num;
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        const size_t quote = src.find('\'', j);
        if (quote == std::string_view::npos) break;
        tok.text.append(src.substr(j, quote - j));
        if (quote + 1 < n && src[quote + 1] == '\'') {  // escaped quote
          tok.text += '\'';
          j = quote + 2;
          continue;
        }
        closed = true;
        j = quote + 1;
        break;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", i));
      }
      tok.type = TokenType::kString;
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
      tok.text.assign(1, c);
      ++i;
    }
  }
  Token& eof = out.emplace_back();
  eof.type = TokenType::kEof;
  eof.position = n;
  return out;
}

}  // namespace tabbench
