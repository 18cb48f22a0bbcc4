#include "storage/partition.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

namespace claims {

namespace {

constexpr uint64_t kSeed = 0x2545F4914F6CDD1DULL;
/// Odd, so Chain is a bijection of the state for each word.
constexpr uint64_t kChain = 0x9E3779B97F4A7C15ULL;
/// The state before a key's first word, kSeed times kChain's inverse: a
/// one-word key hashes to MixHash(kSeed ^ w).
constexpr uint64_t kStart = 0x4232DB54AA7FB6E9ULL;
static_assert(kStart * kChain == kSeed);

/// Folds one more word into a key's state. An INT32 or DATE converts to the
/// word by value, sign-extended.
inline uint64_t Chain(uint64_t h, uint64_t w) { return h * kChain ^ w; }

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// A FLOAT64's word: the INT64 of an integral value, else its bits.
inline uint64_t DoubleWord(const char* p) {
  const auto d = Load<double>(p);
  // [-2^63, 2^63) holds the doubles an INT64 can; NaN fails both compares.
  if (d >= -0x1p63 && d < 0x1p63) {
    const auto i = static_cast<int64_t>(d);
    if (static_cast<double>(i) == d) return static_cast<uint64_t>(i);
  }
  return std::bit_cast<uint64_t>(d);
}

/// A CHAR of `width` <= 8 bytes, zero-extended: two loads that may overlap.
inline uint64_t ShortWord(const char* p, int32_t width) {
  if (width >= 4) {
    return Load<uint32_t>(p) |
           uint64_t{Load<uint32_t>(p + width - 4)} << (8 * (width - 4));
  }
  if (width >= 2) {
    return Load<uint16_t>(p) |
           uint64_t{Load<uint16_t>(p + width - 2)} << (8 * (width - 2));
  }
  return width == 1 ? static_cast<unsigned char>(*p) : 0;
}

/// Chains a wider CHAR's 8-byte words (the last load ends at the column's
/// end) and returns the state after its last nonzero word: a wider column of
/// the same string only adds zero words.
inline uint64_t ChainLong(uint64_t h, const char* p, int32_t width) {
  uint64_t kept = h = Chain(h, Load<uint64_t>(p));
  auto chain = [&](uint64_t w) {
    h = Chain(h, w);
    kept = w != 0 ? h : kept;
  };
  int32_t k = 8;
  for (; k + 8 <= width; k += 8) chain(Load<uint64_t>(p + k));
  if (k < width) chain(Load<uint64_t>(p + width - 8) >> (8 * (k + 8 - width)));
  return kept;
}

/// Folds one key column of rows `[0..n)` into out: row i's state is out[i],
/// or kStart at the key's first column, and MixHash ends its last.
template <typename Fold>
void FoldColumn(bool first, bool last, const char* base, int32_t stride,
                int32_t n, uint64_t* out, Fold fold) {
  auto rows = [&](auto first_column, auto last_column) {
    for (int32_t i = 0; i < n; ++i) {
      const uint64_t h = fold(first_column ? kStart : out[i],
                              base + static_cast<size_t>(i) * stride);
      out[i] = last_column ? MixHash(h) : h;
    }
  };
  using Yes = std::true_type;
  using No = std::false_type;
  first ? (last ? rows(Yes{}, Yes{}) : rows(Yes{}, No{}))
        : (last ? rows(No{}, Yes{}) : rows(No{}, No{}));
}

}  // namespace

void HashKeys(const Schema& schema, const char* rows, int32_t stride,
              const std::vector<int>& cols, int32_t n, uint64_t* out) {
  if (cols.empty()) {  // no key columns: every row is the one key
    std::fill(out, out + n, MixHash(kSeed));
    return;
  }
  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnDef& def = schema.column(cols[c]);
    const int32_t width = def.char_width;
    auto fold = [&](auto word_fold) {
      FoldColumn(c == 0, c + 1 == cols.size(), rows + schema.offset(cols[c]),
                 stride, n, out, word_fold);
    };
    using P = const char*;
    switch (def.type) {
      case DataType::kInt32:
      case DataType::kDate:
        fold([](uint64_t h, P p) { return Chain(h, Load<int32_t>(p)); });
        break;
      case DataType::kInt64:
        fold([](uint64_t h, P p) { return Chain(h, Load<uint64_t>(p)); });
        break;
      case DataType::kFloat64:
        fold([](uint64_t h, P p) { return Chain(h, DoubleWord(p)); });
        break;
      case DataType::kChar:
        if (width == 1) {  // Q1's flags: no width test per row
          fold([](uint64_t h, P p) { return Chain(h, Load<uint8_t>(p)); });
        } else if (width <= 8) {
          fold([=](uint64_t h, P p) { return Chain(h, ShortWord(p, width)); });
        } else {
          fold([=](uint64_t h, P p) { return ChainLong(h, p, width); });
        }
        break;
    }
  }
}

}  // namespace claims
