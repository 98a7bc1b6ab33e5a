// Seeded mutation fuzzing of every decoder that takes bytes from the wire,
// the blockstore or a file: CRC frames and the driver's envelope reads,
// serde::Reader primitives and vectors, the shard/block decoders, and the
// text model and dataset loaders. Each starts from a valid input, applies
// bit flips, truncations, extensions and hostile length fields (0, 2^32,
// 2^61, 2^64-1) from a fixed seed, and requires every mutant to parse or
// throw ppml::Error — no other exception, no crash (ASan watches the
// memcpy decode paths in the sanitizer build). No libFuzzer: the corpus is
// the seed inputs and the run is deterministic.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>
#include <string>

#include "core/mapreduce_adapter.h"
#include "data/dataset.h"
#include "data/io.h"
#include "mapreduce/serde.h"
#include "svm/model.h"

namespace ppml {
namespace {

using mapreduce::Bytes;
using mapreduce::Reader;
using mapreduce::Writer;

constexpr std::uint64_t kFuzzSeed = 0x5E2DE5EED;
constexpr std::size_t kIterations = 4000;
constexpr std::uint64_t kHostileLengths[] = {0, 1ULL << 32, 1ULL << 61,
                                             ~0ULL};

/// One valid input, where its length fields sit, and the decoder under
/// test. Binary length fields are u64 little-endian words; text length
/// fields are the offsets of decimal tokens (ended by a space, newline,
/// ':' or ',').
struct Corpus {
  std::string name;
  Bytes input;
  std::vector<std::size_t> length_fields;
  bool text = false;
  /// CRC frames: re-seal the CRC after mutating half the time, so the
  /// envelope reads behind crc_check() see the hostile bytes too.
  bool crc_framed = false;
  std::function<void(std::span<const std::uint8_t>)> decode;
};

void overwrite_length(Bytes& input, const Corpus& corpus, std::size_t field,
                      std::uint64_t value) {
  if (corpus.text) {
    if (field >= input.size()) return;
    std::size_t end = field;
    while (end < input.size() && input[end] != ' ' && input[end] != '\n' &&
           input[end] != ':' && input[end] != ',')
      ++end;
    const std::string digits = std::to_string(value);
    input.erase(input.begin() + static_cast<std::ptrdiff_t>(field),
                input.begin() + static_cast<std::ptrdiff_t>(end));
    input.insert(input.begin() + static_cast<std::ptrdiff_t>(field),
                 digits.begin(), digits.end());
    return;
  }
  for (std::size_t i = 0; i < 8 && field + i < input.size(); ++i)
    input[field + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

Bytes mutate(const Corpus& corpus, std::mt19937_64& rng) {
  Bytes input = corpus.input;
  const int mutations = 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < mutations; ++m) {
    switch (rng() % 4) {
      case 0:  // bit flips
        if (input.empty()) break;
        for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k)
          input[rng() % input.size()] ^=
              static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1:  // truncation
        input.resize(input.empty() ? 0 : rng() % input.size());
        break;
      case 2:  // extension
        for (int k = 1 + static_cast<int>(rng() % 16); k > 0; --k)
          input.push_back(static_cast<std::uint8_t>(rng()));
        break;
      default:  // a hostile length field
        overwrite_length(
            input, corpus,
            corpus.length_fields[rng() % corpus.length_fields.size()],
            kHostileLengths[rng() % std::size(kHostileLengths)]);
        break;
    }
  }
  if (corpus.crc_framed && input.size() >= 4 && rng() % 2 == 0) {
    const std::uint32_t crc =
        mapreduce::crc32(std::span<const std::uint8_t>(input).subspan(4));
    for (int i = 0; i < 4; ++i)
      input[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return input;
}

/// Every mutant parses or throws ppml::Error. Both outcomes must occur,
/// or the mutations are not reaching the decoder.
void fuzz(const Corpus& corpus, std::uint64_t salt) {
  ASSERT_NO_THROW(corpus.decode(corpus.input)) << corpus.name << " seed";
  std::mt19937_64 rng(kFuzzSeed ^ salt);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    const Bytes input = mutate(corpus, rng);
    try {
      corpus.decode(input);
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << corpus.name << " iteration " << i
                    << ": non-ppml exception: " << e.what();
    } catch (...) {
      ADD_FAILURE() << corpus.name << " iteration " << i
                    << ": unknown exception";
    }
  }
  EXPECT_GT(parsed, 0u) << corpus.name;
  EXPECT_GT(rejected, 0u) << corpus.name;
}

std::vector<std::uint64_t> words(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng();
  return out;
}

Bytes u64_vector_payload(const std::vector<std::uint64_t>& v) {
  Writer writer;
  writer.put_u64_vector(v);
  return writer.take();
}

// ------------------------------------------------------------ CRC frames

/// A driver frame — [crc][u64 header fields][bytes payload] — decoded the
/// way the receive path decodes it: crc_check, open_frame, then the
/// payload goes to the receiving party's decoder.
Corpus driver_frame(std::string name, std::vector<std::uint64_t> header,
                    const Bytes& payload,
                    void (*decode_payload)(mapreduce::BytesView)) {
  const std::size_t payload_at = 4 + 8 * header.size();
  Corpus corpus;
  corpus.name = std::move(name);
  Writer writer;
  mapreduce::begin_frame(writer, header);
  std::copy(payload.begin(), payload.end(),
            writer.extend(payload.size()).begin());
  corpus.input = writer.take();
  mapreduce::seal_frame(corpus.input, header.size());
  corpus.length_fields = {payload_at, payload_at + 8};
  corpus.crc_framed = true;
  corpus.decode = [fields = header.size(),
                   decode_payload](std::span<const std::uint8_t> frame) {
    if (!mapreduce::crc_check(frame)) return;
    std::uint64_t fields_read[3];
    decode_payload(mapreduce::open_frame(
        frame, std::span<std::uint64_t>(fields_read, fields)));
  };
  return corpus;
}

void decode_contribution(mapreduce::BytesView payload) {
  core::masked_word_bytes(payload);
}

void decode_peer_mask(mapreduce::BytesView payload) {
  std::vector<std::uint64_t> out;
  core::deserialize_masked(payload, out);
}

void decode_broadcast(mapreduce::BytesView payload) {
  core::Vector out;
  core::deserialize_doubles(payload, out);
}

Bytes broadcast_payload() {
  Writer broadcast;
  broadcast.put_double_vector(std::vector<double>{1.5, -2.0, 0.25});
  return broadcast.take();
}

/// The three frames the driver sends, each with its receiver's decoder.
std::vector<Corpus> frame_corpora() {
  return {driver_frame("contribution frame", {3, 7},  // mapper, round
                       u64_vector_payload(words(64, 1)), decode_contribution),
          driver_frame("peer-exchange frame", {1, 2, 7},  // sender, dest,
                                                           // round
                       u64_vector_payload(words(48, 2)), decode_peer_mask),
          driver_frame("broadcast frame", {5, 7},  // dest, round
                       broadcast_payload(), decode_broadcast)};
}

TEST(SerdeFuzz, CrcFramesAndDriverEnvelopes) {
  std::uint64_t salt = 1;
  for (const Corpus& corpus : frame_corpora()) fuzz(corpus, salt++);
}

// ------------------------------------------------------- Reader primitives

TEST(SerdeFuzz, ReaderPrimitivesAndVectors) {
  Writer writer;
  std::vector<std::size_t> fields;
  writer.put_u8(0xAB);
  writer.put_u32(0xDEADBEEF);
  writer.put_u64(42);
  writer.put_double(-0.0);
  fields.push_back(writer.size());
  writer.put_string("ppml");
  fields.push_back(writer.size());
  writer.put_bytes(Bytes{1, 2, 3});
  fields.push_back(writer.size());
  writer.put_u64_vector(words(9, 3));
  fields.push_back(writer.size());
  writer.put_double_vector(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  fields.push_back(writer.size());
  fields.push_back(writer.size() + 8);
  writer.put_matrix(linalg::Matrix{{1, 2}, {3, 4}, {5, 6}});
  Corpus corpus{.name = "reader primitives",
                .input = writer.take(),
                .length_fields = fields,
                .decode = [](std::span<const std::uint8_t> bytes) {
                  Reader reader(bytes);
                  reader.get_u8();
                  reader.get_u32();
                  reader.get_u64();
                  reader.get_double();
                  reader.get_string();
                  reader.get_bytes();
                  reader.get_u64_vector();
                  reader.get_double_vector();
                  reader.get_matrix();
                }};
  fuzz(corpus, 4);
}

// ------------------------------------------------ shard and block decoders

std::vector<Corpus> shard_corpora() {
  data::Dataset shard;
  shard.name = "fuzz-shard";
  shard.x = linalg::Matrix{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {0, 1, 0}};
  shard.y = {1, -1, 1, -1};
  const std::size_t rows_at = mapreduce::wire_size_bytes(shard.name.size());
  Corpus horizontal{
      .name = "horizontal shard",
      .input = core::serialize_horizontal_shard(shard),
      .length_fields = {0, rows_at, rows_at + 8,
                        rows_at + 8 +
                            mapreduce::wire_size_words(shard.x.size())},
      .decode = [](std::span<const std::uint8_t> bytes) {
                      core::deserialize_horizontal_shard(bytes);
                    }};
  EXPECT_EQ(horizontal.input.size(),
            horizontal.length_fields.back() +
                mapreduce::wire_size_words(shard.y.size()));

  Corpus vertical{.name = "vertical block",
                  .input = core::serialize_vertical_block(
                      linalg::Matrix{{1, 2}, {3, 4}, {5, 6}, {7, 8}}),
                  .length_fields = {0, 8},
                  .decode = [](std::span<const std::uint8_t> bytes) {
                    core::deserialize_vertical_block(bytes);
                  }};
  return {horizontal, vertical};
}

/// The round payloads on their own, as the mapper and the reducer decode
/// them out of an opened frame.
std::vector<Corpus> payload_corpora() {
  return {Corpus{.name = "broadcast payload",
                 .input = broadcast_payload(),
                 .length_fields = {0},
                 .decode = decode_broadcast},
          Corpus{.name = "contribution payload",
                 .input = u64_vector_payload(words(32, 7)),
                 .length_fields = {0},
                 .decode = decode_contribution},
          Corpus{.name = "peer mask payload",
                 .input = u64_vector_payload(words(24, 8)),
                 .length_fields = {0},
                 .decode = decode_peer_mask}};
}

TEST(SerdeFuzz, ShardAndBlockDecoders) {
  std::uint64_t salt = 5;
  for (const Corpus& corpus : shard_corpora()) fuzz(corpus, salt++);
}

TEST(SerdeFuzz, RoundPayloadDecoders) {
  std::uint64_t salt = 11;
  for (const Corpus& corpus : payload_corpora()) fuzz(corpus, salt++);
}

// Every binary decoder parses its seed input exactly: 1 or 8 bytes after
// it, whatever their value, throw ppml::Error instead of being ignored.
// Frames are re-sealed, so the suffix gets past crc_check to open_frame.
TEST(SerdeFuzz, DecodersRejectTrailingBytes) {
  std::vector<Corpus> corpora = frame_corpora();
  for (std::vector<Corpus> more : {shard_corpora(), payload_corpora()})
    corpora.insert(corpora.end(), more.begin(), more.end());
  for (const Corpus& corpus : corpora) {
    ASSERT_NO_THROW(corpus.decode(corpus.input)) << corpus.name;
    for (const std::size_t extra : {1, 8}) {
      Bytes input = corpus.input;
      input.insert(input.end(), extra, 0);
      if (corpus.crc_framed) {
        const std::uint32_t crc =
            mapreduce::crc32(std::span<const std::uint8_t>(input).subspan(4));
        for (int i = 0; i < 4; ++i)
          input[static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(crc >> (8 * i));
        ASSERT_TRUE(mapreduce::crc_check(input)) << corpus.name;
      }
      EXPECT_THROW(corpus.decode(input), Error)
          << corpus.name << " + " << extra << " trailing bytes";
    }
  }
}

// ------------------------------------------------------------ model files

/// Offset of the first byte of line `k` (0-based) in `text`.
std::size_t line_start(const std::string& text, int k) {
  std::size_t pos = 0;
  for (int i = 0; i < k; ++i) pos = text.find('\n', pos) + 1;
  return pos;
}

TEST(SerdeFuzz, ModelLoaders) {
  svm::LinearModel linear;
  linear.w = {0.5, -1.25, 3.0, 0.0, 7.5};
  linear.b = -0.75;
  std::ostringstream linear_out;
  linear.save(linear_out);
  const std::string linear_text = linear_out.str();
  // Line 2 is "<n> w_0 ... w_{n-1}".
  Corpus linear_corpus{.name = "LinearModel::load",
                       .input = Bytes(linear_text.begin(), linear_text.end()),
                       .length_fields = {line_start(linear_text, 2)},
                       .text = true,
                       .decode = [](std::span<const std::uint8_t> bytes) {
                         std::istringstream in(
                             std::string(bytes.begin(), bytes.end()));
                         svm::LinearModel::load(in);
                       }};
  fuzz(linear_corpus, 7);

  svm::KernelModel kernel;
  kernel.kernel = svm::Kernel::rbf(0.5);
  kernel.points = linalg::Matrix{{1, 2}, {3, 4}, {5, 6}};
  kernel.coeffs = {0.25, -0.5, 1.0};
  kernel.b = 0.125;
  std::ostringstream kernel_out;
  kernel.save(kernel_out);
  const std::string kernel_text = kernel_out.str();
  // Line 3 is "<n> coeffs...", line 4 is "<rows> <cols> points...".
  const std::size_t rows_at = line_start(kernel_text, 4);
  Corpus kernel_corpus{.name = "KernelModel::load",
                       .input = Bytes(kernel_text.begin(), kernel_text.end()),
                       .length_fields = {line_start(kernel_text, 3), rows_at,
                                         kernel_text.find(' ', rows_at) + 1},
                       .text = true,
                       .decode = [](std::span<const std::uint8_t> bytes) {
                         std::istringstream in(
                             std::string(bytes.begin(), bytes.end()));
                         svm::KernelModel::load(in);
                       }};
  fuzz(kernel_corpus, 8);
}

// ---------------------------------------------------------- dataset files

TEST(SerdeFuzz, DatasetLoaders) {
  const std::string csv_text = "1,0.5,1.5,-2\n-1,2.0,0.25,3e-3\n0,7,8,9\n";
  // Length-like fields: the label and a value token of each row.
  Corpus csv{.name = "load_csv",
             .input = Bytes(csv_text.begin(), csv_text.end()),
             .length_fields = {0, 2, csv_text.find("-1,") + 3,
                               csv_text.find("0,7") + 2},
             .text = true,
             .decode = [](std::span<const std::uint8_t> bytes) {
               std::istringstream in(std::string(bytes.begin(), bytes.end()));
               data::load_csv(in);
             }};
  fuzz(csv, 9);

  const std::string libsvm_text = "+1 1:0.5 3:1.5 7:-2\n-1 2:2.0 5:0.25\n";
  // The feature indices: a hostile one is the inferred-width bomb.
  Corpus libsvm{.name = "load_libsvm",
                .input = Bytes(libsvm_text.begin(), libsvm_text.end()),
                .length_fields = {libsvm_text.find("3:"),
                                  libsvm_text.find("7:"),
                                  libsvm_text.find("5:")},
                .text = true,
                .decode = [](std::span<const std::uint8_t> bytes) {
                  std::istringstream in(
                      std::string(bytes.begin(), bytes.end()));
                  data::load_libsvm(in);
                }};
  fuzz(libsvm, 10);
}

// Hostile counts in a model file used to size the vector before any
// element was read: 2^61 doubles is a length_error or bad_alloc, not a
// ppml::Error, and 2^32 zeroes 32 GiB.
TEST(SerdeFuzz, ModelLoadHugeCountsThrowPpmlError) {
  for (const char* count : {"4294967296", "2305843009213693952",
                            "18446744073709551615", "-1"}) {
    std::istringstream linear(std::string("ppml-linear-model v1\n0.5\n") +
                              count + " 1 2\n");
    EXPECT_THROW(svm::LinearModel::load(linear), Error) << count;
    std::istringstream kernel(
        std::string("ppml-kernel-model v1\n2 0.5 1 1 0 2\n0\n1 1\n") +
        count + " " + count + " 1 2\n");
    EXPECT_THROW(svm::KernelModel::load(kernel), Error) << count;
  }
  std::istringstream bad_type(
      "ppml-kernel-model v1\n9 0.5 1 1 0 2\n0\n1 1\n1 1 2\n");
  EXPECT_THROW(svm::KernelModel::load(bad_type), Error);
}

}  // namespace
}  // namespace ppml
