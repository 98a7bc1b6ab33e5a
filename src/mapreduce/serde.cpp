#include "mapreduce/serde.h"

#include <array>
#include <bit>

#include "linalg/microkernel.h"

namespace ppml::mapreduce {

#if defined(PPML_HAVE_PCLMUL)
// Defined in crc32_pclmul.cpp (compiled with -mavx2 -mpclmul).
std::uint32_t crc32_fold_pclmul(const std::uint8_t* p, std::size_t len,
                                std::uint32_t crc) noexcept;
#endif

namespace {

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table of
/// the reflected polynomial; tables[k][b] is the CRC of byte b followed by
/// k zero bytes, so one step folds eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFF];
  return tables;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian u32 from four bytes (one load on little-endian hosts).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void store_le32(std::uint32_t v, std::uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// True when crc32() may fold with PCLMULQDQ: the dispatch seam runs at
/// AVX2 or above and the CPU has carry-less multiply.
bool use_pclmul() noexcept {
#if defined(PPML_HAVE_PCLMUL)
  static const bool cpu_has_pclmul = __builtin_cpu_supports("pclmul") != 0;
  return cpu_has_pclmul && linalg::active_isa() >= linalg::Isa::kAvx2;
#else
  return false;
#endif
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc) {
  const Crc32Tables& t = kCrc32Tables;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(PPML_HAVE_PCLMUL)
  if (n >= 64 && use_pclmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = crc32_fold_pclmul(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

bool crc_check(std::span<const std::uint8_t> framed) {
  if (framed.size() < 4) return false;
  std::uint32_t stored = 0;
  for (int i = 3; i >= 0; --i)
    stored = (stored << 8) | framed[static_cast<std::size_t>(i)];
  return crc32(framed.subspan(4)) == stored;
}

void begin_frame(Writer& writer, std::span<const std::uint64_t> header) {
  writer.put_u32(0);  // CRC slot
  for (const std::uint64_t word : header) writer.put_u64(word);
  writer.put_u64(0);  // payload length slot
}

void seal_frame(Bytes& frame, std::size_t header_words) {
  const std::size_t payload_at = 4 + 8 * header_words + 8;
  PPML_CHECK(frame.size() >= payload_at, "seal_frame: frame not begun");
  const std::uint64_t n = frame.size() - payload_at;
  for (int i = 0; i < 8; ++i)
    frame[payload_at - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(n >> (8 * i));
  store_le32(crc32(std::span<const std::uint8_t>(frame).subspan(4)),
             frame.data());
}

BytesView open_frame(BytesView frame, std::span<std::uint64_t> header) {
  Reader reader(frame);
  reader.get_u32();  // the CRC, checked by the caller
  for (std::uint64_t& word : header) word = reader.get_u64();
  const BytesView payload = reader.get_bytes_view();
  reader.expect_exhausted("frame");
  return payload;
}

void Writer::put_u32(std::uint32_t v) {
  // Grow, then store in place: a range insert of a stack array into a
  // still-empty frame buffer made GCC 12 report a bogus
  // -Wstringop-overflow / -Wrestrict after inlining. Same bytes.
  const std::size_t at = buffer_.size();
  buffer_.resize(at + 4);
  store_le32(v, buffer_.data() + at);
}

void Writer::put_u64(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buffer_.insert(buffer_.end(), bytes, bytes + 8);
}

template <typename Word>
void Writer::put_words(std::span<const Word> words) {
  static_assert(sizeof(Word) == 8);
  if constexpr (kLittleEndianHost) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(words.data());
    buffer_.insert(buffer_.end(), bytes, bytes + words.size_bytes());
  } else {
    for (Word w : words) put_u64(std::bit_cast<std::uint64_t>(w));
  }
}

void Writer::put_double(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::put_string(const std::string& s) {
  put_u64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Writer::put_bytes(std::span<const std::uint8_t> bytes) {
  put_u64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void Writer::put_u64_vector(std::span<const std::uint64_t> v) {
  put_u64(v.size());
  put_words(v);
}

void Writer::put_double_vector(std::span<const double> v) {
  put_u64(v.size());
  put_words(v);
}

void Writer::put_matrix(const linalg::Matrix& m) {
  put_u64(m.rows());
  put_u64(m.cols());
  put_words(std::span<const double>(m.data()));
}

std::span<std::uint8_t> Writer::extend(std::size_t n) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + n);
  return std::span<std::uint8_t>(buffer_).subspan(at);
}

void Reader::require(std::size_t n) {
  // Compared against remaining() rather than as cursor_ + n, which a huge
  // length read off the wire could wrap.
  if (n > remaining()) {
    throw Error("serde: truncated message (need " + std::to_string(n) +
                " bytes, have " + std::to_string(remaining()) + ")");
  }
}

void Reader::require_words(std::uint64_t rows, std::uint64_t cols) {
  // Checked by division: rows * cols * 8 could wrap to a small number.
  if (cols != 0 && rows > remaining() / 8 / cols) {
    throw Error("serde: truncated message (need " + std::to_string(rows) +
                " x " + std::to_string(cols) + " 8-byte words, have " +
                std::to_string(remaining()) + " bytes)");
  }
}

std::uint8_t Reader::get_u8() {
  require(1);
  return data_[cursor_++];
}

std::uint32_t Reader::get_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | data_[cursor_ + static_cast<std::size_t>(i)];
  cursor_ += 4;
  return v;
}

std::uint64_t Reader::get_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | data_[cursor_ + static_cast<std::size_t>(i)];
  cursor_ += 8;
  return v;
}

double Reader::get_double() { return std::bit_cast<double>(get_u64()); }

std::string Reader::get_string() {
  const std::uint64_t n = get_u64();
  require(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + cursor_), n);
  cursor_ += n;
  return s;
}

Bytes Reader::get_bytes() {
  const std::uint64_t n = get_u64();
  require(n);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(cursor_),
          data_.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
  cursor_ += n;
  return b;
}

BytesView Reader::get_bytes_view() {
  const std::uint64_t n = get_u64();
  require(n);
  const BytesView view = data_.subspan(cursor_, n);
  cursor_ += n;
  return view;
}

void Reader::expect_exhausted(const char* what) const {
  if (!exhausted()) {
    throw Error(std::string("serde: ") + what + ": " +
                std::to_string(remaining()) + " trailing bytes");
  }
}

template <typename Word>
void Reader::get_words(std::span<Word> out) {
  static_assert(sizeof(Word) == 8);
  if constexpr (kLittleEndianHost) {
    // memcpy with a null source is undefined even for zero bytes.
    if (out.empty()) return;
    std::memcpy(out.data(), data_.data() + cursor_, out.size_bytes());
    cursor_ += out.size_bytes();
  } else {
    for (Word& w : out) w = std::bit_cast<Word>(get_u64());
  }
}

std::vector<std::uint64_t> Reader::get_u64_vector() {
  std::vector<std::uint64_t> v;
  get_u64_vector(v);
  return v;
}

std::vector<double> Reader::get_double_vector() {
  std::vector<double> v;
  get_double_vector(v);
  return v;
}

BytesView Reader::get_u64_vector_bytes() {
  const std::uint64_t n = get_u64();
  require_words(n);
  const BytesView view = data_.subspan(cursor_, 8 * n);
  cursor_ += 8 * n;
  return view;
}

void Reader::get_u64_vector(std::vector<std::uint64_t>& out) {
  const std::uint64_t n = get_u64();
  require_words(n);
  out.resize(n);
  get_words(std::span<std::uint64_t>(out));
}

void Reader::get_double_vector(std::vector<double>& out) {
  const std::uint64_t n = get_u64();
  require_words(n);
  out.resize(n);
  get_words(std::span<double>(out));
}

linalg::Matrix Reader::get_matrix() {
  const std::uint64_t rows = get_u64();
  const std::uint64_t cols = get_u64();
  require_words(rows, cols);
  linalg::Matrix m(rows, cols);
  get_words(std::span<double>(m.data()));
  return m;
}

}  // namespace ppml::mapreduce
