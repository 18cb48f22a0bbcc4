#include "src/digest.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

std::string CanonicalCell(const claims::Value& value) {
  switch (value.type()) {
    case claims::DataType::kChar:
      return "s:" + value.AsString();
    case claims::DataType::kFloat64: {
      const double v = value.AsFloat64();
      if (v == 0) return "f:0";  // -0 too
      if (std::isnan(v)) return "f:nan";
      if (std::isinf(v)) return v > 0 ? "f:inf" : "f:-inf";
      constexpr double kGridOffset = 0.381966011250105;  // 2 - golden ratio
      int exponent = 0;
      const double full = std::ldexp(1.0, kDigestMantissaBits);
      double mantissa =
          std::nearbyint(std::frexp(v, &exponent) * full + kGridOffset);
      if (std::fabs(mantissa) >= full) {  // rounded up to the next power of 2
        mantissa = std::copysign(full / 2, mantissa);
        ++exponent;
      }
      return "f:" + std::to_string(static_cast<int64_t>(mantissa)) + "p" +
             std::to_string(exponent);
    }
    default:
      return "i:" + std::to_string(value.AsInt64());
  }
}

uint64_t RowHash(const std::vector<claims::Value>& row) {
  std::string text;
  for (const claims::Value& cell : row) {
    text += CanonicalCell(cell);
    text.push_back('\x1f');
  }
  return Mix(Fnv1a(text));
}

std::string DigestRows(const std::vector<std::vector<claims::Value>>& rows) {
  uint64_t sum = 0;
  for (const auto& row : rows) sum += RowHash(row);
  const uint64_t digest = Mix(sum ^ Mix(rows.size()));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
