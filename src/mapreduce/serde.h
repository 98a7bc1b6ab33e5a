// Binary serialization for everything that crosses the simulated network.
//
// Keeping wire payloads as real byte buffers (rather than passing C++
// objects around) buys three things: byte counts in the network stats are
// honest, the security tests can inspect exactly what an adversarial
// reducer would see, and mapper/reducer implementations stay decoupled the
// way they would be on a real cluster.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "linalg/common.h"
#include "linalg/matrix.h"

namespace ppml::mapreduce {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of a byte payload. BlockStore::read_local returns views
/// so spilled blocks can be served straight from their mmap without a heap
/// copy; Reader consumes views directly, so deserialization streams the
/// mapping instead of materializing the buffer.
using BytesView = std::span<const std::uint8_t>;

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `data`. Chainable:
/// pass a previous result as `crc` to extend it over a second span.
/// When the linalg dispatch seam runs at AVX2 or above and the CPU has
/// PCLMULQDQ, spans of 64 bytes or more fold their first len & ~15 bytes
/// with carry-less multiplies (4x128-bit folding, Gopal et al. 2009); the rest,
/// and everything at the scalar level, goes through slicing-by-8 (eight
/// bytes per step through eight 256-entry tables). Both compute the same
/// polynomial remainder as the one-table byte loop, bit for bit.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

/// Wire size of a length-prefixed run of `n` bytes (put_bytes/put_string).
constexpr std::size_t wire_size_bytes(std::size_t n) { return 8 + n; }
/// Wire size of a length-prefixed run of `n` 8-byte words
/// (put_u64_vector/put_double_vector; put_matrix adds 8 for the shape).
constexpr std::size_t wire_size_words(std::size_t n) { return 8 + 8 * n; }

/// Append-only writer. Everything goes on the wire little-endian on every
/// host. On little-endian hosts the vector and matrix writers append the
/// whole word run with one memcpy; other hosts take the byte loop, so the
/// bytes are the same everywhere. Writers whose buffers are stored or sent
/// should reserve() their exact size first: a grown buffer keeps its
/// slack for as long as the blockstore or the fabric holds it.
class Writer {
 public:
  Writer() = default;
  /// Writes over `storage`: its bytes are dropped and its capacity kept, so
  /// a buffer recycled round after round (a fabric frame, a broadcast) is
  /// refilled without allocating. take() hands it back.
  explicit Writer(Bytes storage) : buffer_(std::move(storage)) {
    buffer_.clear();
  }

  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  void put_u8(std::uint8_t v) { buffer_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_double(double v);
  void put_string(const std::string& s);
  void put_bytes(std::span<const std::uint8_t> bytes);
  void put_u64_vector(std::span<const std::uint64_t> v);
  void put_double_vector(std::span<const double> v);
  void put_matrix(const linalg::Matrix& m);
  /// Appends `n` bytes for the caller to fill in place (a masked vector
  /// written straight into its frame) and returns them.
  std::span<std::uint8_t> extend(std::size_t n);

  Bytes take() { return std::move(buffer_); }
  const Bytes& buffer() const { return buffer_; }
  std::size_t size() const { return buffer_.size(); }

 private:
  template <typename Word>
  void put_words(std::span<const Word> words);

  Bytes buffer_;
};

/// True iff `framed` is at least 4 bytes and the stored CRC matches the
/// body. Read the body by skipping the leading u32 (Reader::get_u32).
bool crc_check(std::span<const std::uint8_t> framed);

/// Framing for everything the job driver puts on the fabric:
/// [u32 crc32(body) little-endian][body...], the body being header words
/// and one length-prefixed payload,
///   [u32 crc32(body)][u64 header words...][u64 n][n payload bytes].
/// A flipped bit anywhere in the frame makes crc_check() fail, so
/// corrupted messages are *detected* and retried instead of being
/// deserialized into garbage.
/// begin_frame() writes the CRC slot, `header` and the length slot; the
/// payload is appended after it, in place; seal_frame() then stores the
/// payload length and the CRC. A frame buffer recycled through a Writer is
/// rebuilt round after round without allocating.
void begin_frame(Writer& writer, std::span<const std::uint64_t> header);
void seal_frame(Bytes& frame, std::size_t header_words);

/// Reads a frame that passed crc_check(): fills `header` (its size is the
/// frame's header word count) and returns a view of the payload inside
/// `frame`. Throws ppml::Error when the frame is short, its length field
/// overruns it, or any byte follows the payload.
BytesView open_frame(BytesView frame, std::span<std::uint64_t> header);

/// Bounds-checked little-endian reader; throws ppml::Error on truncated
/// input. On little-endian hosts the vector and matrix readers copy the
/// word run with one memcpy, after the same length check as the byte loop.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_double();
  std::string get_string();
  Bytes get_bytes();
  /// A length-prefixed byte run as a view into the input (no copy).
  BytesView get_bytes_view();
  std::vector<std::uint64_t> get_u64_vector();
  std::vector<double> get_double_vector();
  /// A length-prefixed u64 vector left in place: the view of its 8-byte
  /// little-endian words in the input, after the same length check.
  BytesView get_u64_vector_bytes();
  /// Same, into `out` (resized; a buffer kept across calls keeps its
  /// capacity).
  void get_u64_vector(std::vector<std::uint64_t>& out);
  void get_double_vector(std::vector<double>& out);
  linalg::Matrix get_matrix();

  bool exhausted() const noexcept { return cursor_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - cursor_; }
  /// Throws ppml::Error naming `what` unless every byte has been read: a
  /// decoder calls it last, so a payload with a suffix is rejected rather
  /// than half read.
  void expect_exhausted(const char* what) const;

 private:
  void require(std::size_t n);
  /// Throws unless rows * cols 8-byte words remain (no overflow).
  void require_words(std::uint64_t rows, std::uint64_t cols = 1);
  /// Fills `out` from the next out.size() words; require_words first.
  template <typename Word>
  void get_words(std::span<Word> out);

  std::span<const std::uint8_t> data_;
  std::size_t cursor_ = 0;
};

}  // namespace ppml::mapreduce
