#ifndef TABBENCH_STORAGE_ABBREV_SORT_H_
#define TABBENCH_STORAGE_ABBREV_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "types/value.h"

namespace tabbench {

/// A sort record: an order-preserving 64-bit prefix of a sort key's leading
/// value and the item's position in the caller's input, which breaks ties
/// so that equal keys keep their input order.
struct AbbrevEntry {
  uint64_t prefix = 0;
  uint32_t pos = 0;
  /// The prefix holds the whole key: equal prefixes mean equal keys.
  bool whole = false;
};

/// The record of leading value `v` at position `pos`; `whole` when the
/// prefix holds all of `v` (a caller whose keys have more columns clears
/// it). Value::Compare(a, b) < 0 implies prefix(a) <= prefix(b) for values
/// of one type. NULL maps to 0 (it sorts first) and is never whole, so a
/// tie with it is settled by the full comparison; -0.0 maps with 0.0, which
/// it equals; strings take their first 8 bytes, big-endian and zero-padded,
/// which orders as Value::Compare's unsigned bytes do. A string is whole
/// only if it fits and does not end in a NUL, so no padding is ambiguous.
/// Inline: the index build calls it once per entry.
inline AbbrevEntry Abbreviate(const Value& v, size_t pos) {
  AbbrevEntry e;
  e.pos = static_cast<uint32_t>(pos);
  const uint64_t kSign = uint64_t{1} << 63;
  if (v.is_int()) {
    e.prefix = static_cast<uint64_t>(v.as_int()) ^ kSign;
    e.whole = true;
  } else if (v.is_double()) {
    double d = v.as_double() == 0.0 ? 0.0 : v.as_double();
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    e.prefix = (bits & kSign) != 0 ? ~bits : bits | kSign;
    e.whole = true;
  } else if (v.is_string()) {
    const std::string& s = v.as_string();
    size_t n = std::min<size_t>(s.size(), 8);
    for (size_t i = 0; i < n; ++i) {
      e.prefix |= static_cast<uint64_t>(static_cast<uint8_t>(s[i]))
                  << (56 - 8 * i);
    }
    e.whole = s.size() <= 8 && (s.empty() || s.back() != '\0');
  }
  return e;
}

/// Sorts `order` by (key, pos) on the prefixes: `compare(a_pos, b_pos)`,
/// the keys' three-way comparison, runs only on equal prefixes that do not
/// both hold their whole key.
template <typename Compare>
void SortAbbreviated(std::vector<AbbrevEntry>* order, const Compare& compare) {
  std::sort(order->begin(), order->end(),
            [&compare](const AbbrevEntry& a, const AbbrevEntry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if (!(a.whole && b.whole)) {
                const int c = compare(a.pos, b.pos);
                if (c != 0) return c < 0;
              }
              return a.pos < b.pos;
            });
}

}  // namespace tabbench

#endif  // TABBENCH_STORAGE_ABBREV_SORT_H_
