#ifndef TABBENCH_TYPES_TUPLE_H_
#define TABBENCH_TYPES_TUPLE_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace tabbench {

/// A row of values. Column order matches the owning table / operator schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// The values themselves, for filling in place (a row decoded or an index
  /// key read straight into a reused tuple).
  std::vector<Value>* mutable_values() { return &values_; }

  /// Concatenation of two tuples (join output).
  static Tuple Concat(const Tuple& a, const Tuple& b);

  /// Concat(a, b) written over `*this`, reusing its storage. `*this` must
  /// not alias `a` or `b`.
  void AssignConcat(const Tuple& a, const Tuple& b);

  /// Projection onto the given column positions.
  Tuple Project(const std::vector<size_t>& cols) const;

  /// Project(cols) of `src` written over `*this`, reusing its storage.
  /// `*this` must not alias `src`.
  template <typename Pos>
  void AssignProject(const Tuple& src, const std::vector<Pos>& cols) {
    values_.resize(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      values_[i] = src.values_[static_cast<size_t>(cols[i])];
    }
  }

  bool operator==(const Tuple& o) const { return values_ == o.values_; }

  size_t Hash() const;
  size_t ByteSize() const;
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

/// Key for hash-based grouping/joins: a projection of a tuple.
using GroupKey = Tuple;

}  // namespace tabbench

#endif  // TABBENCH_TYPES_TUPLE_H_
