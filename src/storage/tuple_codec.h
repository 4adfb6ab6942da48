#ifndef TABBENCH_STORAGE_TUPLE_CODEC_H_
#define TABBENCH_STORAGE_TUPLE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "types/tuple.h"
#include "types/value.h"

namespace tabbench {

/// One column value read in place, with no Value in between: a column of an
/// encoded record (TupleCodec::Column) or a decoded Value seen the same way
/// (Of). It holds the column's tag (NULL or present) and its bytes: an INT's
/// or DOUBLE's 8 bytes as one word, a STRING's bytes as a view. A view
/// borrows; it is valid while the record or Value it reads is.
struct ColumnView {
  TypeId type = TypeId::kInt;
  bool null = true;
  uint64_t word = 0;       // INT: the int64's bits; DOUBLE: the double's bits
  std::string_view bytes;  // STRING

  static ColumnView Of(const Value& v) {
    ColumnView out;
    if (v.is_null()) return out;
    out.null = false;
    if (v.is_int()) {
      out.word = static_cast<uint64_t>(v.as_int());
    } else if (v.is_double()) {
      out.type = TypeId::kDouble;
      const double d = v.as_double();
      std::memcpy(&out.word, &d, sizeof(d));
    } else {
      out.type = TypeId::kString;
      out.bytes = v.as_string();
    }
    return out;
  }

  int64_t as_int() const { return static_cast<int64_t>(word); }
  double as_double() const {
    double d;
    std::memcpy(&d, &word, sizeof(d));
    return d;
  }
  /// The viewed value as a Value (a STRING's bytes are copied).
  Value ToValue() const;

  /// Value::operator== on the two viewed values: NULL equals NULL and no
  /// other value; INTs and STRINGs are equal when their bits and bytes are,
  /// DOUBLEs when neither compares less (so -0.0 == 0.0). Non-NULL values of
  /// different types are unequal (Value asserts they are never compared).
  bool operator==(const ColumnView& o) const {
    if (null || o.null) return null && o.null;
    if (type != o.type) return false;
    if (type == TypeId::kString) return bytes == o.bytes;
    if (type == TypeId::kInt) return word == o.word;
    const double a = as_double(), b = o.as_double();
    return !(a < b) && !(a > b);
  }
};

namespace codec_internal {
/// Little-endian loads of the codec's fixed-width fields.
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
}  // namespace codec_internal

/// Row serialization for heap pages. Format, per column:
///   1 tag byte: 0 = NULL, 1 = present
///   INT / DOUBLE: 8 bytes little-endian
///   STRING: uint32 length + bytes
class TupleCodec {
 public:
  explicit TupleCodec(std::vector<TypeId> column_types)
      : types_(std::move(column_types)) {}

  /// Appends the encoded row to `out`.
  void Encode(const Tuple& t, std::vector<uint8_t>* out) const;

  /// Decodes one row starting at `data` into `*out`, overwriting its values
  /// in place (arity, NULLs and strings all follow the encoded row; a string
  /// column keeps its buffer's capacity); advances `*offset` past the row.
  /// The scan and fetch paths decode every row into one reused tuple.
  void DecodeInto(const uint8_t* data, size_t* offset, Tuple* out) const;

  /// DecodeInto a fresh tuple.
  Tuple Decode(const uint8_t* data, size_t* offset) const;

  /// Column `i` of the encoded row starting at `row`, read in place: the
  /// columns before it are stepped over, none is decoded. Lets a filter
  /// test a row on its page bytes before paying for a decode.
  ColumnView Column(const uint8_t* row, size_t i) const {
    using codec_internal::LoadU32;
    using codec_internal::LoadU64;
    const uint8_t* p = row;
    for (size_t c = 0; c < i; ++c) {
      if (*p++ != 0) p += types_[c] == TypeId::kString ? 4 + LoadU32(p) : 8;
    }
    ColumnView v;
    v.type = types_[i];
    v.null = *p++ == 0;
    if (v.null) return v;
    if (v.type == TypeId::kString) {
      v.bytes =
          std::string_view(reinterpret_cast<const char*>(p + 4), LoadU32(p));
    } else {
      v.word = LoadU64(p);
    }
    return v;
  }

  /// Encoded size of a row, without encoding it.
  size_t EncodedSize(const Tuple& t) const;

  const std::vector<TypeId>& types() const { return types_; }

 private:
  std::vector<TypeId> types_;
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_TUPLE_CODEC_H_
