#ifndef TABBENCH_TYPES_VALUE_H_
#define TABBENCH_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace tabbench {

/// Column data types. The benchmark schemas only need integers, doubles and
/// strings; NULL is a distinct runtime state of Value, not a type.
enum class TypeId : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
};

const char* TypeName(TypeId t);

/// A single SQL value: NULL, INT64, DOUBLE, or STRING.
///
/// Values are totally ordered within a type (NULL sorts first); comparing
/// values of different non-null types is a programming error guarded by
/// assert, since the binder type-checks all predicates.
class Value {
 public:
  Value() : v_(Null{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  static Value Null_() { return Value(); }

  bool is_null() const { return std::holds_alternative<Null>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  /// In-place setters for decode buffers. Unlike assigning a fresh Value
  /// they skip the variant's generic move, and SetString reuses the
  /// string's capacity when the value already holds one, so a tuple decoded
  /// into row after row stops allocating once its strings have grown.
  void SetNull() { v_.emplace<Null>(); }
  void SetInt(int64_t i) { v_ = i; }
  void SetDouble(double d) { v_ = d; }
  void SetString(const char* data, size_t len) {
    if (auto* s = std::get_if<std::string>(&v_)) {
      s->assign(data, len);
    } else {
      v_.emplace<std::string>(data, len);
    }
  }

  /// Three-way comparison: -1, 0, +1. NULL < any non-null; NULL == NULL
  /// (this is the *sort* order, used by indexes and group-by; SQL ternary
  /// logic is not needed for the benchmark's equality-only predicates).
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  bool operator<=(const Value& o) const { return Compare(o) <= 0; }
  bool operator>(const Value& o) const { return Compare(o) > 0; }
  bool operator>=(const Value& o) const { return Compare(o) >= 0; }

  size_t Hash() const;

  /// SQL-literal rendering: NULL, 42, 3.5, 'text' (quotes escaped).
  std::string ToString() const;

  /// Approximate in-memory footprint in bytes, used for size accounting.
  size_t ByteSize() const;

 private:
  struct Null {
    bool operator==(const Null&) const { return true; }
  };
  std::variant<Null, int64_t, double, std::string> v_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace tabbench

#endif  // TABBENCH_TYPES_VALUE_H_
