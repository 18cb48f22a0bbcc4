#include "net/wire_frame.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace claims {
namespace {

/// FieldHeader::delta_width of a field whose columns are copied as they are.
constexpr int32_t kCopied = -1;

struct FrameHeader {
  uint64_t sequence_number;
  int32_t num_rows;
  int32_t row_size;
  int32_t num_fields;
  int32_t unused;
};

struct FieldHeader {
  int64_t base;         ///< frame-of-reference: the block's minimum
  int32_t offset;       ///< the field's first byte within a row
  int32_t width;        ///< the field's bytes within a row
  int32_t delta_width;  ///< bytes per value in the frame, or kCopied
  int32_t unused;
};

static_assert(sizeof(FrameHeader) == 24 && sizeof(FieldHeader) == 24,
              "frame headers carry no padding");

/// The bytes field `f` of an `n`-row frame occupies after the headers.
int64_t BodyBytes(const FieldHeader& f, int32_t n) {
  return static_cast<int64_t>(n) *
         (f.delta_width == kCopied ? f.width : f.delta_width);
}

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void Store(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename V>
void MinMax(const char* col, int32_t row_size, int32_t n, int64_t* lo,
            int64_t* hi) {
  V mn = Load<V>(col);
  V mx = mn;
  for (int32_t i = 1; i < n; ++i) {
    const V v = Load<V>(col + static_cast<size_t>(i) * row_size);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  *lo = mn;
  *hi = mx;
}

// Differences are taken modulo 2^64, so a range that overflows int64 (its
// minimum and maximum in one block) still fits a uint64_t delta.
template <typename V, typename D>
void Pack(const char* col, int32_t row_size, int32_t n, int64_t base,
          char* out) {
  const uint64_t b = static_cast<uint64_t>(base);
  for (int32_t i = 0; i < n; ++i) {
    const int64_t v = Load<V>(col + static_cast<size_t>(i) * row_size);
    Store<D>(out + static_cast<size_t>(i) * sizeof(D),
             static_cast<D>(static_cast<uint64_t>(v) - b));
  }
}

template <typename V, typename D>
void Unpack(const char* in, int32_t n, int64_t base, char* col,
            int32_t row_size) {
  const uint64_t b = static_cast<uint64_t>(base);
  for (int32_t i = 0; i < n; ++i) {
    const uint64_t d = Load<D>(in + static_cast<size_t>(i) * sizeof(D));
    Store<V>(col + static_cast<size_t>(i) * row_size, static_cast<V>(b + d));
  }
}

template <typename V>
void PackColumn(const FieldHeader& f, const char* col, int32_t row_size,
                int32_t n, char* out) {
  switch (f.delta_width) {
    case 1: Pack<V, uint8_t>(col, row_size, n, f.base, out); break;
    case 2: Pack<V, uint16_t>(col, row_size, n, f.base, out); break;
    case 4: Pack<V, uint32_t>(col, row_size, n, f.base, out); break;
    case 8: Pack<V, uint64_t>(col, row_size, n, f.base, out); break;
    default: break;  // width 0: every value is the base
  }
}

template <typename V>
void UnpackColumn(const FieldHeader& f, const char* in, int32_t n, char* col,
                  int32_t row_size) {
  switch (f.delta_width) {
    case 1: Unpack<V, uint8_t>(in, n, f.base, col, row_size); break;
    case 2: Unpack<V, uint16_t>(in, n, f.base, col, row_size); break;
    case 4: Unpack<V, uint32_t>(in, n, f.base, col, row_size); break;
    case 8: Unpack<V, uint64_t>(in, n, f.base, col, row_size); break;
    default:
      for (int32_t i = 0; i < n; ++i) {
        Store<V>(col + static_cast<size_t>(i) * row_size,
                 static_cast<V>(f.base));
      }
  }
}

/// Copies the `width`-byte field of each row to consecutive bytes of `out`.
void Gather(const char* col, int32_t row_size, int32_t n, int32_t width,
            char* out) {
  for (int32_t i = 0; i < n; ++i) {
    std::memcpy(out + static_cast<size_t>(i) * width,
                col + static_cast<size_t>(i) * row_size, width);
  }
}

/// Inverse of Gather.
void Scatter(const char* in, int32_t n, int32_t width, char* col,
             int32_t row_size) {
  for (int32_t i = 0; i < n; ++i) {
    std::memcpy(col + static_cast<size_t>(i) * row_size,
                in + static_cast<size_t>(i) * width, width);
  }
}

}  // namespace

int WireFrame::DeltaWidth(uint64_t range) {
  if (range == 0) return 0;
  if (range <= 0xFF) return 1;
  if (range <= 0xFFFF) return 2;
  if (range <= 0xFFFFFFFF) return 4;
  return 8;
}

std::shared_ptr<const WireFrame> WireFrame::Encode(const Schema& schema,
                                                   const Block& block) {
  const int32_t n = block.num_rows();
  const int32_t row_size = block.row_size();
  if (n == 0 || schema.row_size() != row_size) return nullptr;
  const char* rows = block.RowAt(0);
  std::vector<FieldHeader> fields;
  for (int c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& col = schema.column(c);
    FieldHeader f{0, schema.offset(c), TypeWidth(col.type, col.char_width),
                  kCopied, 0};
    if (col.type == DataType::kInt32 || col.type == DataType::kDate ||
        col.type == DataType::kInt64) {
      int64_t hi = 0;
      if (f.width == 8) {
        MinMax<int64_t>(rows + f.offset, row_size, n, &f.base, &hi);
      } else {
        MinMax<int32_t>(rows + f.offset, row_size, n, &f.base, &hi);
      }
      f.delta_width =
          DeltaWidth(static_cast<uint64_t>(hi) - static_cast<uint64_t>(f.base));
    } else if (!fields.empty() && fields.back().delta_width == kCopied) {
      // The schema packs its columns in order, so this one is adjacent.
      fields.back().width += f.width;
      continue;
    }
    fields.push_back(f);
  }
  int64_t bytes = static_cast<int64_t>(sizeof(FrameHeader) +
                                       fields.size() * sizeof(FieldHeader));
  for (const FieldHeader& f : fields) bytes += BodyBytes(f, n);
  if (bytes >= block.payload_bytes()) return nullptr;

  PoolAlloc buffer = BlockPool::Global()->Allocate(static_cast<size_t>(bytes));
  char* p = buffer.data;
  const FrameHeader header{block.sequence_number(), n, row_size,
                           static_cast<int32_t>(fields.size()), 0};
  std::memcpy(p, &header, sizeof(header));
  p += sizeof(header);
  std::memcpy(p, fields.data(), fields.size() * sizeof(FieldHeader));
  p += fields.size() * sizeof(FieldHeader);
  for (const FieldHeader& f : fields) {
    const char* col = rows + f.offset;
    if (f.delta_width == kCopied) {
      Gather(col, row_size, n, f.width, p);
    } else if (f.width == 8) {
      PackColumn<int64_t>(f, col, row_size, n, p);
    } else {
      PackColumn<int32_t>(f, col, row_size, n, p);
    }
    p += BodyBytes(f, n);
  }
  return std::shared_ptr<const WireFrame>(new WireFrame(buffer, bytes));
}

BlockPtr WireFrame::Decode() const {
  FrameHeader header;
  std::memcpy(&header, buffer_.data, sizeof(header));
  const char* fields = buffer_.data + sizeof(header);
  const char* body = fields + header.num_fields * sizeof(FieldHeader);
  const int32_t n = header.num_rows;
  const int32_t row_size = header.row_size;
  auto block = MakeBlock(row_size, n * row_size);  // sized to its rows
  char* rows = block->AppendRows(n);
  for (int32_t k = 0; k < header.num_fields; ++k) {
    FieldHeader f;
    std::memcpy(&f, fields + k * sizeof(FieldHeader), sizeof(f));
    char* col = rows + f.offset;
    if (f.delta_width == kCopied) {
      Scatter(body, n, f.width, col, row_size);
    } else if (f.width == 8) {
      UnpackColumn<int64_t>(f, body, n, col, row_size);
    } else {
      UnpackColumn<int32_t>(f, body, n, col, row_size);
    }
    body += BodyBytes(f, n);
  }
  block->set_sequence_number(header.sequence_number);
  return block;
}

WireFrame::~WireFrame() { BlockPool::Global()->Release(buffer_); }

}  // namespace claims
