#include "storage/partition.h"

namespace claims {

uint64_t HashBytes(const void* data, size_t len, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ (len * 0x9E3779B97F4A7C15ULL);
  while (len >= 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    h = MixHash(h ^ k);
    p += 8;
    len -= 8;
  }
  uint64_t k = 0;
  for (size_t i = 0; i < len; ++i) k |= static_cast<uint64_t>(p[i]) << (8 * i);
  return MixHash(h ^ k);
}

void HashRowKeysBatch(const Schema& schema, const char* rows, int32_t stride,
                      const std::vector<int>& key_cols, const int32_t* sel,
                      int32_t n, uint64_t* out) {
  for (int32_t i = 0; i < n; ++i) out[i] = 0x2545F4914F6CDD1DULL;
  for (int col : key_cols) {
    const ColumnDef& c = schema.column(col);
    const char* base = rows + schema.offset(col);
    auto row = [&](int32_t i) {
      return base + static_cast<size_t>(sel ? sel[i] : i) * stride;
    };
    switch (c.type) {
      case DataType::kInt32:
      case DataType::kDate:
        // Sign-extended, so an INT32 key routes as the INT64 of its value.
        for (int32_t i = 0; i < n; ++i) {
          int32_t v;
          std::memcpy(&v, row(i), sizeof(v));
          out[i] = MixHash(out[i] ^ static_cast<uint64_t>(int64_t{v}));
        }
        break;
      case DataType::kInt64:
        for (int32_t i = 0; i < n; ++i) {
          uint64_t v;
          std::memcpy(&v, row(i), sizeof(v));
          out[i] = MixHash(out[i] ^ v);
        }
        break;
      case DataType::kFloat64:
        for (int32_t i = 0; i < n; ++i) {
          double d;
          std::memcpy(&d, row(i), sizeof(d));
          if (d == 0.0) d = 0.0;  // -0.0 compares equal to 0.0
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          out[i] = MixHash(out[i] ^ bits);
        }
        break;
      case DataType::kChar:
        for (int32_t i = 0; i < n; ++i) {
          const char* p = row(i);
          out[i] = HashBytes(p, strnlen(p, c.char_width), out[i]);
        }
        break;
    }
  }
}

uint64_t HashRowKeys(const Schema& schema, const char* row,
                     const std::vector<int>& key_cols) {
  uint64_t h;
  HashRowKeysBatch(schema, row, 0, key_cols, nullptr, 1, &h);
  return h;
}

}  // namespace claims
