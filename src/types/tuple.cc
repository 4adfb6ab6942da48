#include "types/tuple.h"

#include <algorithm>

namespace tabbench {

Tuple Tuple::Concat(const Tuple& a, const Tuple& b) {
  std::vector<Value> out;
  out.reserve(a.size() + b.size());
  for (const auto& v : a.values()) out.push_back(v);
  for (const auto& v : b.values()) out.push_back(v);
  return Tuple(std::move(out));
}

void Tuple::AssignConcat(const Tuple& a, const Tuple& b) {
  values_.resize(a.size() + b.size());
  std::copy(a.values_.begin(), a.values_.end(), values_.begin());
  std::copy(b.values_.begin(), b.values_.end(),
            values_.begin() + static_cast<long>(a.size()));
}

Tuple Tuple::Project(const std::vector<size_t>& cols) const {
  std::vector<Value> out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(values_[c]);
  return Tuple(std::move(out));
}

size_t Tuple::Hash() const {
  size_t h = 14695981039346656037ULL;
  for (const auto& v : values_) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

size_t Tuple::ByteSize() const {
  size_t n = 0;
  for (const auto& v : values_) n += v.ByteSize();
  return n;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace tabbench
