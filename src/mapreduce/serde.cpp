#include "mapreduce/serde.h"

#include <bit>

namespace ppml::mapreduce {

namespace {

struct Crc32Table {
  std::uint32_t entries[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[i] = c;
    }
  }
};

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc) {
  static const Crc32Table table;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) c = table.entries[(c ^ byte) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Bytes crc_frame(std::span<const std::uint8_t> body) {
  Bytes out;
  out.reserve(body.size() + 4);
  std::uint32_t c = crc32(body);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(c & 0xff));
    c >>= 8;
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool crc_check(std::span<const std::uint8_t> framed) {
  if (framed.size() < 4) return false;
  std::uint32_t stored = 0;
  for (int i = 3; i >= 0; --i)
    stored = (stored << 8) | framed[static_cast<std::size_t>(i)];
  return crc32(framed.subspan(4)) == stored;
}

void Writer::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v & 0xff));
    v >>= 8;
  }
}

void Writer::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v & 0xff));
    v >>= 8;
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
  for (std::uint64_t x : v) put_u64(x);
}

void Writer::put_double_vector(std::span<const double> v) {
  put_u64(v.size());
  for (double x : v) put_double(x);
}

void Writer::put_matrix(const linalg::Matrix& m) {
  put_u64(m.rows());
  put_u64(m.cols());
  for (double x : m.data()) put_double(x);
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

std::vector<std::uint64_t> Reader::get_u64_vector() {
  const std::uint64_t n = get_u64();
  require_words(n);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = get_u64();
  return v;
}

std::vector<double> Reader::get_double_vector() {
  const std::uint64_t n = get_u64();
  require_words(n);
  std::vector<double> v(n);
  for (auto& x : v) x = get_double();
  return v;
}

linalg::Matrix Reader::get_matrix() {
  const std::uint64_t rows = get_u64();
  const std::uint64_t cols = get_u64();
  require_words(rows, cols);
  linalg::Matrix m(rows, cols);
  for (double& x : m.data()) x = get_double();
  return m;
}

}  // namespace ppml::mapreduce
