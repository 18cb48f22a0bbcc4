#ifndef CLAIMS_NET_WIRE_FRAME_H_
#define CLAIMS_NET_WIRE_FRAME_H_

#include <cstdint>
#include <memory>

#include "mem/block_pool.h"
#include "storage/block.h"

namespace claims {

/// The form a block crosses hosts in: a self-describing column frame. Each
/// INT32, DATE and INT64 column is stored frame-of-reference: the block's
/// minimum once, then each value minus that minimum in the fewest whole bytes
/// (0, 1, 2, 4 or 8) that hold the block's range. FLOAT64 and CHAR columns
/// are copied as they are. The frame carries the row layout and the block's
/// sequence number, so the receiver decodes it without the schema, into an
/// ordinary pooled block whose rows equal the sender's byte for byte.
///
/// Layout, in host byte order (frames never leave the process): a frame
/// header, one field header per field, then each field's column in field
/// order. A field is one frame-of-reference integer column or a run of
/// adjacent copied columns.
///
/// The sender encodes a block once per cross-host send (a broadcast shares
/// one frame among its remote consumers), and BlockChannel::Receive decodes
/// it; nothing else reads a frame. The frame is read-only once built.
class WireFrame {
 public:
  /// Encodes `block`, whose rows `schema` lays out. Returns nullptr when the
  /// frame would not be smaller than the rows: such a block crosses
  /// unencoded.
  static std::shared_ptr<const WireFrame> Encode(const Schema& schema,
                                                 const Block& block);

  /// The rows, in a fresh block from the block pool, with the sender's
  /// sequence number.
  BlockPtr Decode() const;

  /// The frame's size: what a cross-host send charges the NICs, the
  /// channel's ledger, remote_bytes and the send/receive records.
  int64_t bytes() const { return bytes_; }

  /// Bytes per value of a frame-of-reference column whose values span
  /// `range` (maximum minus minimum, as an unsigned difference).
  static int DeltaWidth(uint64_t range);

  ~WireFrame();
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(WireFrame);

 private:
  WireFrame(PoolAlloc buffer, int64_t bytes)
      : buffer_(buffer), bytes_(bytes) {}

  PoolAlloc buffer_;
  int64_t bytes_;
};

using FramePtr = std::shared_ptr<const WireFrame>;

}  // namespace claims

#endif  // CLAIMS_NET_WIRE_FRAME_H_
