#include "storage/partition.h"

namespace claims {

namespace {

/// The bits a FLOAT64 key hashes as: -0.0 as 0.0, since the two compare
/// equal.
inline uint64_t Float64KeyBits(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

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
    switch (c.type) {
      case DataType::kInt32:
      case DataType::kDate:
        for (int32_t i = 0; i < n; ++i) {
          uint32_t v;
          std::memcpy(&v, base + static_cast<size_t>(sel ? sel[i] : i) * stride,
                      sizeof(v));
          out[i] = MixHash(out[i] ^ static_cast<uint64_t>(v));
        }
        break;
      case DataType::kInt64:
        for (int32_t i = 0; i < n; ++i) {
          uint64_t v;
          std::memcpy(&v, base + static_cast<size_t>(sel ? sel[i] : i) * stride,
                      sizeof(v));
          out[i] = MixHash(out[i] ^ v);
        }
        break;
      case DataType::kFloat64:
        for (int32_t i = 0; i < n; ++i) {
          double d;
          std::memcpy(&d, base + static_cast<size_t>(sel ? sel[i] : i) * stride,
                      sizeof(d));
          out[i] = MixHash(out[i] ^ Float64KeyBits(d));
        }
        break;
      case DataType::kChar:
        for (int32_t i = 0; i < n; ++i) {
          const char* p = base + static_cast<size_t>(sel ? sel[i] : i) * stride;
          size_t len = strnlen(p, c.char_width);
          out[i] = HashBytes(p, len, out[i]);
        }
        break;
    }
  }
}

uint64_t HashRowKeys(const Schema& schema, const char* row,
                     const std::vector<int>& key_cols) {
  uint64_t h = 0x2545F4914F6CDD1DULL;
  for (int col : key_cols) {
    const ColumnDef& c = schema.column(col);
    switch (c.type) {
      case DataType::kInt32:
      case DataType::kDate:
        h = MixHash(h ^ static_cast<uint64_t>(
                        static_cast<uint32_t>(schema.GetInt32(row, col))));
        break;
      case DataType::kInt64:
        h = MixHash(h ^ static_cast<uint64_t>(schema.GetInt64(row, col)));
        break;
      case DataType::kFloat64:
        h = MixHash(h ^ Float64KeyBits(schema.GetFloat64(row, col)));
        break;
      case DataType::kChar: {
        std::string_view s = schema.GetString(row, col);
        h = HashBytes(s.data(), s.size(), h);
        break;
      }
    }
  }
  return h;
}

}  // namespace claims
