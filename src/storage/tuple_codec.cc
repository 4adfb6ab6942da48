#include "storage/tuple_codec.h"

#include <cassert>
#include <cstring>
#include <string>

namespace tabbench {

namespace {
using codec_internal::LoadU32;
using codec_internal::LoadU64;

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

}  // namespace

Value ColumnView::ToValue() const {
  if (null) return Value();
  switch (type) {
    case TypeId::kInt:
      return Value(as_int());
    case TypeId::kDouble:
      return Value(as_double());
    case TypeId::kString:
      return Value(std::string(bytes));
  }
  return Value();
}

void TupleCodec::Encode(const Tuple& t, std::vector<uint8_t>* out) const {
  assert(t.size() == types_.size());
  for (size_t i = 0; i < types_.size(); ++i) {
    const Value& v = t.at(i);
    if (v.is_null()) {
      out->push_back(0);
      continue;
    }
    out->push_back(1);
    switch (types_[i]) {
      case TypeId::kInt:
        PutU64(static_cast<uint64_t>(v.as_int()), out);
        break;
      case TypeId::kDouble: {
        uint64_t bits;
        double d = v.as_double();
        std::memcpy(&bits, &d, 8);
        PutU64(bits, out);
        break;
      }
      case TypeId::kString: {
        const std::string& s = v.as_string();
        PutU32(static_cast<uint32_t>(s.size()), out);
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
    }
  }
}

void TupleCodec::DecodeInto(const uint8_t* data, size_t* offset,
                            Tuple* out) const {
  std::vector<Value>& vals = *out->mutable_values();
  vals.resize(types_.size());
  size_t off = *offset;
  for (size_t i = 0; i < types_.size(); ++i) {
    Value& v = vals[i];
    if (data[off++] == 0) {
      v.SetNull();
      continue;
    }
    switch (types_[i]) {
      case TypeId::kInt:
        v.SetInt(static_cast<int64_t>(LoadU64(data + off)));
        off += 8;
        break;
      case TypeId::kDouble: {
        uint64_t bits = LoadU64(data + off);
        off += 8;
        double d;
        std::memcpy(&d, &bits, 8);
        v.SetDouble(d);
        break;
      }
      case TypeId::kString: {
        uint32_t len = LoadU32(data + off);
        off += 4;
        v.SetString(reinterpret_cast<const char*>(data + off), len);
        off += len;
        break;
      }
    }
  }
  *offset = off;
}

Tuple TupleCodec::Decode(const uint8_t* data, size_t* offset) const {
  Tuple t;
  DecodeInto(data, offset, &t);
  return t;
}

size_t TupleCodec::EncodedSize(const Tuple& t) const {
  size_t n = 0;
  for (size_t i = 0; i < types_.size(); ++i) {
    const Value& v = t.at(i);
    n += 1;
    if (v.is_null()) continue;
    switch (types_[i]) {
      case TypeId::kInt:
      case TypeId::kDouble:
        n += 8;
        break;
      case TypeId::kString:
        n += 4 + v.as_string().size();
        break;
    }
  }
  return n;
}

}  // namespace tabbench
