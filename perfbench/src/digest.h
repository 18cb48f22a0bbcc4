#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

// Order-insensitive result digests. Two results digest equal when they hold
// the same multiset of rows, with every double rounded to kDigestMantissaBits
// significant bits first, so neither row order nor the order in which
// parallel workers folded a floating-point sum changes the digest.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/value.h"

namespace perfbench {

/// About 6 significant decimal digits: still a relative 1e-6, far finer than
/// what one added, lost or changed row does to a TPC-H or SSE aggregate.
inline constexpr int kDigestMantissaBits = 20;

/// Canonical text of one cell: integers and dates exactly, doubles as their
/// mantissa rounded to kDigestMantissaBits bits plus a binary exponent (-0
/// reads as 0), strings verbatim.
///
/// The rounding grid is offset by a fraction of a step (2 - golden ratio).
/// A plain decimal or binary grid has its rounding midpoints on round numbers
/// such as 696732.95 or 2650766.875, and sums of prices land on those exactly
/// often enough that the last bit of a parallel sum would decide the
/// rounding. Nothing in the data favours the offset midpoints.
std::string CanonicalCell(const claims::Value& value);

/// 64-bit hash of one row's canonical cells.
uint64_t RowHash(const std::vector<claims::Value>& row);

/// Digest of a row multiset, as 16 hex digits. Rows combine by wrapping
/// addition of their hashes, which is independent of order but counts
/// duplicates; the row count is mixed in as well.
std::string DigestRows(const std::vector<std::vector<claims::Value>>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
