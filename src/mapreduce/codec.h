#ifndef SMR_MAPREDUCE_CODEC_H_
#define SMR_MAPREDUCE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/enum_registry.h"

namespace smr {

/// Codec layer: the one serialization vocabulary shared by everything that
/// moves shuffle data off the heap — the spill store's fixed-size records
/// (mapreduce/spill.h, which are also the process backend's run files) and
/// the process backend's control frames (mapreduce/process_backend.h).
///
/// Two representations, one value encoding:
///
///  * ValueCodec<V> — fixed-size byte serialization of a shuffle value
///    (formerly SpillTraits' Store/Load). Fixed size is what the spill
///    path needs: runs are read back at computed offsets, so records must
///    all be sizeof(uint64_t) + ValueCodec<V>::kBytes long.
///  * RecordCodec<Value> — self-delimiting length-prefixed varint *frames*
///    for byte streams with no out-of-band length (sockets/pipes). A frame
///    is [varint payload_len][payload]; a pair frame's payload is
///    [FrameKind::kPair][varint key][ValueCodec value bytes]. Varint keys
///    make typical frames smaller than the in-memory record (reducer ids
///    are dense near 0). The process backend's links carry only control
///    and output frames; its pairs travel as fixed-size records.
///
/// Decoding is *checked*, never trusting the peer: every decode returns a
/// DecodeStatus, and a frame whose payload is truncated, oversized, or has
/// trailing bytes after the value is kMalformed — a wrong byte can fail a
/// round but can never yield a silently wrong pair
/// (tests/codec_test.cc pins this in the graph_io_test malformed-input
/// style).

/// Result of a checked decode over a byte window.
enum class DecodeStatus {
  kOk,        ///< One item decoded; `consumed` bytes were used.
  kNeedMore,  ///< The window ends mid-item; retry with more bytes.
  kMalformed, ///< The bytes can never become a valid item.
};

/// A uint64 varint (LEB128) is at most 10 bytes.
inline constexpr size_t kMaxVarintBytes = 10;

/// Frames larger than this are rejected as malformed: no legal frame comes
/// close, and the cap keeps a corrupted length prefix from reading as
/// "wait for 2^60 more bytes".
inline constexpr uint64_t kMaxFrameBytes = uint64_t{1} << 24;

/// Writes `value` as a varint into `out` (>= kMaxVarintBytes capacity);
/// returns the encoded length.
inline size_t PutVarint(uint64_t value, unsigned char* out) {
  size_t n = 0;
  while (value >= 0x80) {
    out[n++] = static_cast<unsigned char>(value | 0x80);
    value >>= 7;
  }
  out[n++] = static_cast<unsigned char>(value);
  return n;
}

inline void AppendVarint(uint64_t value, std::vector<unsigned char>* out) {
  unsigned char scratch[kMaxVarintBytes];
  const size_t n = PutVarint(value, scratch);
  out->insert(out->end(), scratch, scratch + n);
}

/// Decodes one varint from [data, data + size). kMalformed when the
/// encoding overflows 64 bits (more than 10 bytes, or a 10th byte beyond
/// the single remaining bit).
inline DecodeStatus GetVarint(const unsigned char* data, size_t size,
                              uint64_t* value, size_t* consumed) {
  uint64_t result = 0;
  const size_t limit = size < kMaxVarintBytes ? size : kMaxVarintBytes;
  for (size_t i = 0; i < limit; ++i) {
    const unsigned char byte = data[i];
    if (i == kMaxVarintBytes - 1 && byte > 1) return DecodeStatus::kMalformed;
    result |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      *value = result;
      *consumed = i + 1;
      return DecodeStatus::kOk;
    }
  }
  return size >= kMaxVarintBytes ? DecodeStatus::kMalformed
                                 : DecodeStatus::kNeedMore;
}

/// Fixed-size byte serialization for shuffle values. The primary template
/// covers trivially copyable PODs (every hand-written value struct in the
/// strategies); the std::pair specialization covers Edge and friends,
/// which libstdc++ does not consider trivially copyable despite being
/// plain pairs of ids. Values with kEncodable == false (none in the
/// repository today) can neither spill nor cross a process boundary; the
/// engine keeps them on the unbounded in-thread path.
template <typename V>
struct ValueCodec {
  static constexpr bool kEncodable =
      std::is_trivially_copyable_v<V> && std::is_default_constructible_v<V>;
  static constexpr size_t kBytes = sizeof(V);
  static void Store(const V& value, unsigned char* out) {
    std::memcpy(out, &value, sizeof(V));
  }
  static V Load(const unsigned char* in) {
    V value;
    std::memcpy(&value, in, sizeof(V));
    return value;
  }
};

template <typename A, typename B>
struct ValueCodec<std::pair<A, B>> {
  static constexpr bool kEncodable =
      ValueCodec<A>::kEncodable && ValueCodec<B>::kEncodable;
  static constexpr size_t kBytes = ValueCodec<A>::kBytes + ValueCodec<B>::kBytes;
  static void Store(const std::pair<A, B>& value, unsigned char* out) {
    ValueCodec<A>::Store(value.first, out);
    ValueCodec<B>::Store(value.second, out + ValueCodec<A>::kBytes);
  }
  static std::pair<A, B> Load(const unsigned char* in) {
    return {ValueCodec<A>::Load(in),
            ValueCodec<B>::Load(in + ValueCodec<A>::kBytes)};
  }
};

/// First payload byte of every frame: what the rest of the payload means.
/// One enum for all links so a frame captured anywhere is unambiguous.
///
/// Registry (see util/enum_registry.h): the list is the single source for
/// the enum, kCount, the diagnostic names, and the wire-byte validity
/// check below — adding a frame kind anywhere else is impossible, and the
/// contiguity static_assert keeps IsFrameKindByte an exact membership test.
#define SMR_FRAME_KINDS(X)                                                 \
  /* [varint key][ValueCodec value] — one shuffled pair. */                \
  X(kPair, 1, "pair")                                                      \
  /* [varint count] — link drained; count = logical pairs. */              \
  X(kEnd, 2, "end")                                                        \
  /* [varint arity][varint node]* — reducer EmitInstance. */               \
  X(kInstance, 3, "instance")                                              \
  /* [varint arity][varint node]* — reducer EmitRecord. */                 \
  X(kRecord, 4, "record")                                                  \
  /* varint-packed reduce-shard MapReduceMetrics counters. */              \
  X(kMetrics, 5, "metrics")                                                \
  /* Map worker -> coordinator run index: where each partition's runs    \
     lie in the worker's run file (see process_backend.cc). */             \
  X(kHeader, 6, "header")                                                  \
  /* [utf-8 message] — child exception text. */                            \
  X(kError, 7, "error")

enum class FrameKind : unsigned char { SMR_FRAME_KINDS(SMR_ENUM_DEFINE_ENTRY) };
SMR_DEFINE_ENUM_TRAITS(FrameKind, SMR_FRAME_KINDS);

namespace codec_detail {
inline constexpr unsigned char kMinFrameKindByte =
    static_cast<unsigned char>(EnumTraits<FrameKind>::kValues.front());
inline constexpr unsigned char kMaxFrameKindByte =
    static_cast<unsigned char>(EnumTraits<FrameKind>::kValues.back());
// The registry must stay a contiguous ascending range for the decoder's
// two-comparison validity check to be an exact membership test; a frame
// kind added with a gap or out of order fails here, at compile time.
static_assert(kMaxFrameKindByte - kMinFrameKindByte + 1 ==
                  EnumTraits<FrameKind>::kCount,
              "SMR_FRAME_KINDS must be a contiguous range of wire bytes");
static_assert([] {
  for (std::size_t i = 1; i < EnumTraits<FrameKind>::kCount; ++i) {
    if (static_cast<unsigned char>(EnumTraits<FrameKind>::kValues[i]) !=
        static_cast<unsigned char>(EnumTraits<FrameKind>::kValues[i - 1]) + 1) {
      return false;
    }
  }
  return true;
}(), "SMR_FRAME_KINDS must be listed in ascending wire-byte order");
}  // namespace codec_detail

/// True iff `kind` is the wire byte of a registered FrameKind — the
/// checked cast every frame decode performs before trusting the byte.
inline constexpr bool IsFrameKindByte(unsigned char kind) {
  return kind >= codec_detail::kMinFrameKindByte &&
         kind <= codec_detail::kMaxFrameKindByte;
}

/// One decoded frame: kind plus a view into the payload *after* the kind
/// byte. The view aliases the caller's buffer.
struct FrameView {
  FrameKind kind = FrameKind::kEnd;
  const unsigned char* body = nullptr;
  size_t body_bytes = 0;
};

/// Appends a [varint len][kind][body] frame to `out`.
inline void AppendFrame(FrameKind kind, const unsigned char* body,
                        size_t body_bytes, std::vector<unsigned char>* out) {
  AppendVarint(body_bytes + 1, out);
  out->push_back(static_cast<unsigned char>(kind));
  out->insert(out->end(), body, body + body_bytes);
}

/// Decodes one frame from [data, data + size). kMalformed on an empty
/// payload (no kind byte), an unknown kind, or a length beyond
/// kMaxFrameBytes; kNeedMore when the window ends inside the frame.
inline DecodeStatus DecodeFrame(const unsigned char* data, size_t size,
                                FrameView* frame, size_t* consumed) {
  uint64_t payload_len = 0;
  size_t header = 0;
  const DecodeStatus status = GetVarint(data, size, &payload_len, &header);
  if (status != DecodeStatus::kOk) return status;
  if (payload_len == 0 || payload_len > kMaxFrameBytes) {
    return DecodeStatus::kMalformed;
  }
  if (size - header < payload_len) return DecodeStatus::kNeedMore;
  const unsigned char kind = data[header];
  if (!IsFrameKindByte(kind)) return DecodeStatus::kMalformed;
  frame->kind = static_cast<FrameKind>(kind);
  frame->body = data + header + 1;
  frame->body_bytes = static_cast<size_t>(payload_len) - 1;
  *consumed = header + static_cast<size_t>(payload_len);
  return DecodeStatus::kOk;
}

/// Strict frame decode for corruption-sensitive callers (the process
/// backend's link drains): structurally impossible bytes THROW a
/// descriptive std::runtime_error instead of returning kMalformed, and a
/// window known to be complete (`closed` — the peer's stream has ended)
/// turns what would be kNeedMore into a throw too. That closes the
/// silent-starvation hole the lenient DecodeFrame leaves open: a corrupted
/// length prefix can otherwise read as "wait for more bytes" forever.
/// `max_frame_bytes` tightens the global kMaxFrameBytes cap to the largest
/// frame legal on the caller's link, so a flipped length bit is rejected
/// as impossible rather than buffered. Returns kOk (frame filled) or
/// kNeedMore (only when !closed); never kMalformed.
inline DecodeStatus DecodeFrameChecked(const unsigned char* data, size_t size,
                                       bool closed, uint64_t max_frame_bytes,
                                       FrameView* frame, size_t* consumed) {
  uint64_t payload_len = 0;
  size_t header = 0;
  const DecodeStatus varint = GetVarint(data, size, &payload_len, &header);
  if (varint == DecodeStatus::kMalformed) {
    throw std::runtime_error(
        "frame length prefix is not a valid varint (corrupted stream)");
  }
  if (varint == DecodeStatus::kNeedMore) {
    if (closed) {
      throw std::runtime_error("stream ended inside a frame length prefix (" +
                               std::to_string(size) + " trailing bytes)");
    }
    return DecodeStatus::kNeedMore;
  }
  if (payload_len == 0) {
    throw std::runtime_error("frame declares an empty payload (no kind byte)");
  }
  if (payload_len > max_frame_bytes || payload_len > kMaxFrameBytes) {
    throw std::runtime_error(
        "frame declares an impossible " + std::to_string(payload_len) +
        "-byte payload (this link's maximum is " +
        std::to_string(max_frame_bytes < kMaxFrameBytes ? max_frame_bytes
                                                        : kMaxFrameBytes) +
        " bytes — corrupted length prefix)");
  }
  if (size - header < payload_len) {
    if (closed) {
      throw std::runtime_error(
          "stream ended inside a frame: " + std::to_string(payload_len) +
          "-byte payload declared, " + std::to_string(size - header) +
          " bytes remain (truncated or corrupted)");
    }
    return DecodeStatus::kNeedMore;
  }
  const unsigned char kind = data[header];
  if (!IsFrameKindByte(kind)) {
    throw std::runtime_error("unknown frame kind " + std::to_string(kind) +
                             " (corrupted stream)");
  }
  frame->kind = static_cast<FrameKind>(kind);
  frame->body = data + header + 1;
  frame->body_bytes = static_cast<size_t>(payload_len) - 1;
  *consumed = header + static_cast<size_t>(payload_len);
  return DecodeStatus::kOk;
}

/// Key-value pairs as self-delimiting frames, for a byte stream that
/// carries pairs with no out-of-band length. Encode and decode are exact
/// inverses, and DecodePair rejects every way a frame can be wrong:
/// truncation anywhere (kNeedMore), non-pair kind, short value bytes, or
/// trailing bytes after the value (kMalformed).
template <typename Value>
struct RecordCodec {
  static constexpr bool kEncodable = ValueCodec<Value>::kEncodable;

  static void EncodePair(uint64_t key, const Value& value,
                         std::vector<unsigned char>* out) {
    unsigned char body[kMaxVarintBytes + ValueCodec<Value>::kBytes];
    const size_t key_bytes = PutVarint(key, body);
    ValueCodec<Value>::Store(value, body + key_bytes);
    AppendFrame(FrameKind::kPair, body, key_bytes + ValueCodec<Value>::kBytes,
                out);
  }

  /// Decodes the body of an already-framed kPair (after the kind byte).
  static DecodeStatus DecodePairBody(const unsigned char* body,
                                     size_t body_bytes, uint64_t* key,
                                     Value* value) {
    size_t key_bytes = 0;
    const DecodeStatus status = GetVarint(body, body_bytes, key, &key_bytes);
    if (status != DecodeStatus::kOk) return DecodeStatus::kMalformed;
    if (body_bytes - key_bytes != ValueCodec<Value>::kBytes) {
      return DecodeStatus::kMalformed;  // short value or trailing bytes
    }
    *value = ValueCodec<Value>::Load(body + key_bytes);
    return DecodeStatus::kOk;
  }

  /// Decodes one full pair frame from [data, data + size).
  static DecodeStatus DecodePair(const unsigned char* data, size_t size,
                                 uint64_t* key, Value* value,
                                 size_t* consumed) {
    FrameView frame;
    const DecodeStatus status = DecodeFrame(data, size, &frame, consumed);
    if (status != DecodeStatus::kOk) return status;
    if (frame.kind != FrameKind::kPair) return DecodeStatus::kMalformed;
    return DecodePairBody(frame.body, frame.body_bytes, key, value);
  }
};

}  // namespace smr

#endif  // SMR_MAPREDUCE_CODEC_H_
