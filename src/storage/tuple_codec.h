#ifndef TABBENCH_STORAGE_TUPLE_CODEC_H_
#define TABBENCH_STORAGE_TUPLE_CODEC_H_

#include <cstdint>
#include <vector>

#include "types/tuple.h"
#include "types/value.h"

namespace tabbench {

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

  /// DecodeInto that materializes only the columns `cols` marks nonzero;
  /// the other values of `*out` are left as they were (stale). `*offset`
  /// still advances past the whole row. Lets a scan read the columns its
  /// filter needs before paying for the rest of a row.
  void DecodeColumnsInto(const uint8_t* data, size_t* offset,
                         const std::vector<uint8_t>& cols, Tuple* out) const;

  /// Encoded size of a row, without encoding it.
  size_t EncodedSize(const Tuple& t) const;

  const std::vector<TypeId>& types() const { return types_; }

 private:
  std::vector<TypeId> types_;
};

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_TUPLE_CODEC_H_
