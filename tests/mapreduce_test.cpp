#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "linalg/microkernel.h"
#include "mapreduce/blockstore.h"
#include "mapreduce/cluster.h"
#include "mapreduce/executor.h"
#include "mapreduce/iterative_job.h"
#include "mapreduce/network.h"
#include "mapreduce/serde.h"
#include "obs/obs.h"

namespace ppml::mapreduce {
namespace {

TEST(Serde, PrimitivesRoundTrip) {
  Writer writer;
  writer.put_u8(0xAB);
  writer.put_u64(0x0123456789ABCDEFULL);
  writer.put_i64(-42);
  writer.put_double(3.14159);
  writer.put_string("hello");
  const Bytes payload = writer.take();

  Reader reader(payload);
  EXPECT_EQ(reader.get_u8(), 0xAB);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.get_i64(), -42);
  EXPECT_DOUBLE_EQ(reader.get_double(), 3.14159);
  EXPECT_EQ(reader.get_string(), "hello");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serde, VectorsAndMatricesRoundTrip) {
  Writer writer;
  writer.put_u64_vector(std::vector<std::uint64_t>{1, 2, 3});
  writer.put_double_vector(std::vector<double>{-1.5, 2.5});
  writer.put_matrix(linalg::Matrix{{1, 2}, {3, 4}});
  writer.put_bytes(Bytes{9, 8, 7});
  const Bytes payload = writer.take();

  Reader reader(payload);
  EXPECT_EQ(reader.get_u64_vector(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(reader.get_double_vector(), (std::vector<double>{-1.5, 2.5}));
  EXPECT_EQ(reader.get_matrix(), (linalg::Matrix{{1, 2}, {3, 4}}));
  EXPECT_EQ(reader.get_bytes(), (Bytes{9, 8, 7}));
}

TEST(Serde, TruncatedInputThrows) {
  Writer writer;
  writer.put_u64(5);  // declares 5 elements but provides none
  const Bytes payload = writer.take();
  Reader reader(payload);
  EXPECT_THROW(reader.get_u64_vector(), Error);

  Reader reader2(Bytes{1, 2, 3});
  EXPECT_THROW(reader2.get_u64(), Error);
}

// Hostile 16-byte payloads whose declared lengths wrap the byte arithmetic
// (n * 8, rows * cols * 8, cursor + n) to a small number. Each reader must
// throw a ppml::Error before allocating or reading past the payload — not
// bad_alloc, not length_error.
Bytes two_words(std::uint64_t first, std::uint64_t second) {
  Writer writer;
  writer.put_u64(first);
  writer.put_u64(second);
  return writer.take();
}

TEST(Serde, WrappingVectorLengthThrows) {
  const Bytes payload = two_words(1ULL << 61, 7);  // 2^61 * 8 wraps to 0
  ASSERT_EQ(payload.size(), 16u);
  Reader u64s(payload);
  EXPECT_THROW(u64s.get_u64_vector(), Error);
  Reader doubles(payload);
  EXPECT_THROW(doubles.get_double_vector(), Error);
}

TEST(Serde, WrappingStringLengthThrows) {
  const Bytes payload = two_words(~0ULL, 7);  // cursor 8 + n wraps to 7
  ASSERT_EQ(payload.size(), 16u);
  Reader string(payload);
  EXPECT_THROW(string.get_string(), Error);
  Reader bytes(payload);
  EXPECT_THROW(bytes.get_bytes(), Error);
}

TEST(Serde, WrappingMatrixShapeThrows) {
  // rows * cols * 8 = 2^67 wraps to 0.
  const Bytes payload = two_words(1ULL << 33, 1ULL << 31);
  ASSERT_EQ(payload.size(), 16u);
  Reader reader(payload);
  EXPECT_THROW(reader.get_matrix(), Error);
  // A shape that fits exactly still parses; one word short does not.
  Writer writer;
  writer.put_matrix(linalg::Matrix{{1, 2, 3}, {4, 5, 6}});
  Bytes exact = writer.take();
  Reader fits(exact);
  EXPECT_EQ(fits.get_matrix(), (linalg::Matrix{{1, 2, 3}, {4, 5, 6}}));
  exact.pop_back();
  Reader short_by_one(exact);
  EXPECT_THROW(short_by_one.get_matrix(), Error);
}

TEST(Serde, DoubleBitPatternPreserved) {
  Writer writer;
  writer.put_double(-0.0);
  writer.put_double(1e-308);
  Reader reader(writer.buffer());
  EXPECT_EQ(std::signbit(reader.get_double()), true);
  EXPECT_DOUBLE_EQ(reader.get_double(), 1e-308);
}

TEST(Crc32, MatchesIeeeCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") == 0xCBF43926.
  const std::string check = "123456789";
  const Bytes data(check.begin(), check.end());
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0u);
}

TEST(Crc32, ChainingMatchesOneShot) {
  const Bytes data{1, 2, 3, 4, 5, 6, 7};
  const std::span<const std::uint8_t> span(data);
  EXPECT_EQ(crc32(span.subspan(3), crc32(span.first(3))), crc32(data));
}

// Byte-at-a-time CRC-32 (reflected 0xEDB88320), the reference for the
// slicing-by-8 crc32().
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data,
                             std::uint32_t crc = 0) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicingMatchesBytewise) {
  // One buffer, every start offset 0..7 (misaligned loads into the 8-byte
  // steps), every length 0..257 (all tail lengths around several steps).
  Bytes buffer(8 + 257);
  std::uint32_t state = 0x12345678u;
  for (std::uint8_t& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(state >> 24);
  }
  const std::span<const std::uint8_t> all(buffer);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 257; ++length) {
      const auto data = all.subspan(offset, length);
      ASSERT_EQ(crc32(data), crc32_bytewise(data))
          << "offset " << offset << " length " << length;
    }
  }
  // Chained calls split at every position equal the one-shot CRC.
  const auto data = all.subspan(3, 257);
  const std::uint32_t whole = crc32_bytewise(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    ASSERT_EQ(crc32(data.subspan(split), crc32(data.first(split))), whole)
        << "split " << split;
  }
  const std::string check = "123456789";
  EXPECT_EQ(crc32(Bytes(check.begin(), check.end())), 0xCBF43926u);
}

/// crc32(data.first(length), seed) for every length 0..data.size(), with
/// the dispatcher pinned to `isa`.
std::vector<std::uint32_t> prefix_crcs_at(linalg::Isa isa,
                                          std::span<const std::uint8_t> data,
                                          std::uint32_t seed) {
  linalg::force_isa(isa);
  std::vector<std::uint32_t> out;
  for (std::size_t length = 0; length <= data.size(); ++length)
    out.push_back(crc32(data.first(length), seed));
  linalg::clear_forced_isa();
  return out;
}

TEST(Crc32, PclmulMatchesSlicing) {
  // At the AVX2 level and above crc32() folds len & ~15 bytes with
  // PCLMULQDQ when len >= 64; the scalar level is slicing-by-8 only. Every
  // length 0..1100 at every start offset 0..15, from two initial values,
  // and chained splits must give the same CRC at every level.
  if (!linalg::isa_available(linalg::Isa::kAvx2))
    GTEST_SKIP() << "avx2 not available";
  Bytes buffer(16 + 1100);
  std::uint32_t state = 0x9E3779B9u;
  for (std::uint8_t& b : buffer) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(state >> 24);
  }
  const std::span<const std::uint8_t> all(buffer);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
      const auto data = all.subspan(offset, 1100);
      const auto scalar = prefix_crcs_at(linalg::Isa::kScalar, data, seed);
      const auto avx2 = prefix_crcs_at(linalg::Isa::kAvx2, data, seed);
      for (std::size_t length = 0; length <= 1100; ++length) {
        ASSERT_EQ(avx2[length], scalar[length])
            << "offset " << offset << " length " << length << " seed "
            << seed;
      }
      EXPECT_EQ(avx2.back(), crc32_bytewise(data, seed));
      if (linalg::isa_available(linalg::Isa::kAvx512)) {
        EXPECT_EQ(prefix_crcs_at(linalg::Isa::kAvx512, data, seed), avx2)
            << "offset " << offset << " seed " << seed;
      }
    }
  }
  // Chained calls split at every position equal the one-shot CRC: the
  // folded part hands its state to the table loop and back.
  const auto data = all.subspan(5, 1000);
  const std::uint32_t whole = crc32_bytewise(data);
  linalg::force_isa(linalg::Isa::kAvx2);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(crc32(data.subspan(split), crc32(data.first(split))), whole)
        << "split " << split;
  }
  linalg::clear_forced_isa();
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Serde, WireBytesUnchanged) {
  // Expected bytes were recorded from the byte-at-a-time writer and the
  // two-copy framing: the bulk word paths and one-pass framing must put
  // exactly the same bytes on the wire.
  Writer writer;
  writer.put_u32(0xDEADBEEFu);
  writer.put_u64(0x0123456789ABCDEFULL);
  writer.put_string("ppml");
  writer.put_u64_vector(std::vector<std::uint64_t>{
      0, 1, 0x8000000000000000ULL, 0xFFFFFFFFFFFFFFFFULL,
      0x0102030405060708ULL});
  writer.put_double_vector(std::vector<double>{
      -0.0, std::bit_cast<double>(0x7FF8000000012345ULL),  // NaN, payload
      std::bit_cast<double>(0x000000000000BEEFULL),         // denormal
      1.5});
  writer.put_matrix(linalg::Matrix{{1.0, -2.0}, {3.25, 4.0}, {-5.0, 6e300}});
  EXPECT_EQ(hex(writer.buffer()),
            "efbeaddeefcdab8967452301040000000000000070706d6c0500000000000000"
            "000000000000000001000000000000000000000000000080ffffffffffffffff"
            "080706050403020104000000000000000000000000000080452301000000f87f"
            "efbe000000000000000000000000f83f03000000000000000200000000000000"
            "000000000000f03f00000000000000c00000000000000a400000000000001040"
            "00000000000014c0355800662deb617e");

  // A width-20 000 contribution frame, built the way the driver builds it:
  // [crc][u64 mapper][u64 round][bytes: u64-vector contribution].
  std::vector<std::uint64_t> words(20000);
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t& w : words) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    w = s ^ (s >> 29);
  }
  Writer contribution_writer;
  contribution_writer.reserve(wire_size_words(words.size()));
  contribution_writer.put_u64_vector(words);
  const Bytes contribution = contribution_writer.take();
  ASSERT_EQ(contribution.size(), wire_size_words(words.size()));
  // Built the way the driver builds it: begun, payload written in place,
  // sealed — in a recycled buffer that held a longer frame before.
  Writer frame_writer(Bytes(200000, 0xEE));
  const std::uint64_t header[] = {3, 7};
  begin_frame(frame_writer, header);
  std::copy(contribution.begin(), contribution.end(),
            frame_writer.extend(contribution.size()).begin());
  Bytes frame = frame_writer.take();
  seal_frame(frame, 2);
  EXPECT_EQ(frame.size(), 160036u);
  EXPECT_EQ(fnv1a(frame), 0x6c6f24a3bdc53078ULL);
  EXPECT_TRUE(crc_check(frame));
  Reader reader(frame);
  EXPECT_EQ(reader.get_u32(), 0xabcfdb1bu);
  EXPECT_EQ(reader.get_u64(), 3u);
  EXPECT_EQ(reader.get_u64(), 7u);
  const Bytes payload = reader.get_bytes();
  EXPECT_EQ(Reader(payload).get_u64_vector(), words);
  std::uint64_t opened[2];
  const BytesView view = open_frame(frame, opened);
  EXPECT_EQ(opened[0], 3u);
  EXPECT_EQ(opened[1], 7u);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), contribution.begin(),
                         contribution.end()));
}

TEST(Crc32, FrameRoundTripAndCorruptionDetected) {
  // A frame with one header word (42) and the payload "payload" has the
  // body put_u64(42) + put_string("payload") would write.
  Writer writer;
  writer.put_u64(42);
  writer.put_string("payload");
  const Bytes body = writer.take();

  Writer frame_writer;
  const std::uint64_t header[] = {42};
  begin_frame(frame_writer, header);
  const std::string text = "payload";
  std::copy(text.begin(), text.end(),
            frame_writer.extend(text.size()).begin());
  Bytes framed = frame_writer.take();
  seal_frame(framed, 1);
  ASSERT_EQ(framed.size(), body.size() + 4);
  EXPECT_TRUE(std::equal(body.begin(), body.end(), framed.begin() + 4));
  EXPECT_EQ(Reader(framed).get_u32(), crc32(body));
  EXPECT_TRUE(crc_check(framed));
  std::uint64_t opened = 0;
  const BytesView payload = open_frame(framed, {&opened, 1});
  EXPECT_EQ(opened, 42u);
  EXPECT_EQ(std::string(payload.begin(), payload.end()), "payload");

  // Any single flipped bit — in the body or the CRC itself — must trip.
  for (const std::size_t position : {0ul, 5ul, framed.size() - 1}) {
    Bytes damaged = framed;
    damaged[position] ^= 0x01;
    EXPECT_FALSE(crc_check(damaged)) << position;
  }
  EXPECT_FALSE(crc_check(Bytes{1, 2}));  // too short to hold a CRC

  // Sealing a frame shorter than its header is a driver bug; a length
  // field that overruns the frame, or bytes after the payload, are
  // malformed input.
  Bytes unbegun(7, 0);
  EXPECT_THROW(seal_frame(unbegun, 1), Error);
  Bytes short_payload = framed;
  short_payload.pop_back();
  EXPECT_THROW(open_frame(short_payload, {&opened, 1}), Error);
  Bytes suffixed = framed;
  suffixed.push_back(0);
  EXPECT_THROW(open_frame(suffixed, {&opened, 1}), Error);
}

TEST(Network, FaultPlanDropsDeterministically) {
  FaultPlan plan;
  plan.seed = 99;
  plan.all_channels.drop = 0.5;
  const auto run_once = [&] {
    Network network(3);
    network.set_fault_plan(plan);
    std::size_t delivered = 0;
    for (std::size_t i = 0; i < 200; ++i) {
      network.send(Message{0, 1, "x", Bytes(8)});
      delivered += network.drain(1).size();
    }
    return std::make_pair(delivered, network.fault_stats().messages_dropped);
  };
  const auto [delivered1, dropped1] = run_once();
  const auto [delivered2, dropped2] = run_once();
  EXPECT_EQ(delivered1, delivered2);  // same seed => identical faults
  EXPECT_EQ(dropped1, dropped2);
  EXPECT_EQ(delivered1 + dropped1, 200u);
  EXPECT_GT(dropped1, 50u);  // ~100 expected at p = 0.5
  EXPECT_LT(dropped1, 150u);
}

TEST(Network, FaultPlanCorruptsAndDuplicates) {
  FaultPlan plan;
  plan.all_channels.corrupt = 0.5;
  plan.all_channels.duplicate = 0.5;
  Network network(2);
  network.set_fault_plan(plan);
  const Bytes original(16, 0xCC);
  std::size_t copies = 0, corrupted = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    network.send(Message{0, 1, "x", original});
    for (const Message& message : network.drain(1)) {
      ++copies;
      if (message.payload != original) ++corrupted;
    }
  }
  EXPECT_EQ(copies - 100, network.fault_stats().messages_duplicated);
  EXPECT_GT(network.fault_stats().messages_duplicated, 20u);
  EXPECT_GT(corrupted, 20u);
  // Every corrupted frame is detectable through the CRC layer: payloads
  // here are raw, but the sizes never change — corruption only flips bits.
  for (const Message& message : network.drain(1))
    EXPECT_EQ(message.payload.size(), original.size());
}

TEST(Network, LoopbackIsNeverFaulted) {
  FaultPlan plan;
  plan.all_channels.drop = 0.99;
  plan.all_channels.corrupt = 0.99;
  Network network(2);
  network.set_fault_plan(plan);
  const Bytes payload{1, 2, 3};
  for (std::size_t i = 0; i < 50; ++i)
    network.send(Message{1, 1, "local", payload});
  const auto delivered = network.drain(1);
  ASSERT_EQ(delivered.size(), 50u);
  for (const Message& message : delivered)
    EXPECT_EQ(message.payload, payload);
}

TEST(Network, PartitionCutsCrossIslandTraffic) {
  FaultPlan plan;
  plan.partitions.push_back(NetworkPartition{2, 4, {0}});
  Network network(3);
  network.set_fault_plan(plan);
  const auto try_send = [&](std::size_t round) {
    network.set_round(round);
    network.send(Message{0, 1, "x", Bytes(1)});   // crosses the cut
    network.send(Message{1, 2, "x", Bytes(1)});   // mainland-internal
    const std::size_t got1 = network.drain(1).size();
    const std::size_t got2 = network.drain(2).size();
    return std::make_pair(got1, got2);
  };
  EXPECT_EQ(try_send(1), std::make_pair(1ul, 1ul));  // before the partition
  EXPECT_EQ(try_send(2), std::make_pair(0ul, 1ul));  // island cut off
  EXPECT_EQ(try_send(3), std::make_pair(0ul, 1ul));
  EXPECT_EQ(try_send(4), std::make_pair(1ul, 1ul));  // healed
  EXPECT_EQ(network.fault_stats().messages_partitioned, 2u);
}

TEST(Network, RejectsInvalidFaultProbabilities) {
  Network network(2);
  FaultPlan plan;
  plan.all_channels.drop = 1.0;  // must be < 1: p = 1 would deadlock retries
  EXPECT_THROW(network.set_fault_plan(plan), InvalidArgument);
  plan.all_channels.drop = 0.0;
  plan.per_channel["x"].corrupt = -0.1;
  EXPECT_THROW(network.set_fault_plan(plan), InvalidArgument);
}

TEST(Network, CountsBytesPerChannel) {
  Network network(3);
  network.send(Message{0, 1, "a", Bytes(10)});
  network.send(Message{1, 2, "a", Bytes(20)});
  network.send(Message{2, 0, "b", Bytes(5)});
  const auto stats = network.channel_stats();
  EXPECT_EQ(stats.at("a").messages, 2u);
  EXPECT_EQ(stats.at("a").bytes, 30u);
  EXPECT_EQ(stats.at("b").bytes, 5u);
  EXPECT_EQ(network.totals().messages, 3u);
  EXPECT_EQ(network.totals().bytes, 35u);
}

TEST(Network, DrainDeliversFifoAndEmpties) {
  Network network(2);
  network.send(Message{0, 1, "x", Bytes{1}});
  network.send(Message{0, 1, "x", Bytes{2}});
  auto delivered = network.drain(1);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].payload, Bytes{1});
  EXPECT_EQ(delivered[1].payload, Bytes{2});
  EXPECT_TRUE(network.drain(1).empty());
}

TEST(Network, RejectsBadNodeIds) {
  Network network(2);
  EXPECT_THROW(network.send(Message{0, 7, "x", {}}), InvalidArgument);
  EXPECT_THROW(network.drain(9), InvalidArgument);
}

TEST(Network, LatencyCriticalPathPerPhase) {
  LatencyModel latency;
  latency.per_message_seconds = 1.0;
  latency.seconds_per_byte = 0.0;
  Network network(3, latency);
  // Node 0 sends twice (2s serialized), node 1 sends once (1s) in parallel:
  // phase critical path = 2s.
  network.send(Message{0, 1, "x", Bytes(1)});
  network.send(Message{0, 2, "x", Bytes(1)});
  network.send(Message{1, 2, "x", Bytes(1)});
  EXPECT_DOUBLE_EQ(network.simulated_seconds(), 2.0);
  network.end_phase();
  network.send(Message{1, 0, "x", Bytes(1)});
  EXPECT_DOUBLE_EQ(network.simulated_seconds(), 3.0);
}

TEST(Network, LoopbackIsFreeButCounted) {
  Network network(2);
  network.send(Message{0, 0, "local", Bytes(100)});
  EXPECT_EQ(network.totals().messages, 1u);
  EXPECT_DOUBLE_EQ(network.simulated_seconds(), 0.0);
}

TEST(Network, ResetStatsClearsEverything) {
  Network network(2);
  network.send(Message{0, 1, "x", Bytes(10)});
  network.reset_stats();
  EXPECT_EQ(network.totals().messages, 0u);
  EXPECT_DOUBLE_EQ(network.simulated_seconds(), 0.0);
}

// read_local returns a view (possibly into a spill mmap); materialize for
// gtest comparisons.
Bytes to_bytes(mapreduce::BytesView view) {
  return Bytes(view.begin(), view.end());
}

TEST(BlockStore, LocalityEnforcedOnReads) {
  BlockStore store(3);
  const BlockId block = store.put("shard0", Bytes{1, 2, 3}, {0});
  EXPECT_EQ(to_bytes(store.read_local(block, 0)), (Bytes{1, 2, 3}));
  // Node 1 holds no replica: the data-locality guard must trip.
  EXPECT_THROW(store.read_local(block, 1), InvalidArgument);
}

TEST(BlockStore, ReplicationPlacesSuccessiveNodes) {
  BlockStore store(4);
  const BlockId block = store.put_with_locality("b", Bytes{9}, 2, 3);
  const BlockInfo info = store.info(block);
  EXPECT_EQ(info.replicas, (std::vector<NodeId>{0, 2, 3}));  // 2,3,0 sorted
  EXPECT_EQ(info.size_bytes, 1u);
}

TEST(BlockStore, DeadNodesRefuseReadsAndDropFromLiveReplicas) {
  BlockStore store(3);
  const BlockId block = store.put("b", Bytes{1}, {0, 1});
  store.kill_node(0);
  EXPECT_FALSE(store.is_alive(0));
  EXPECT_THROW(store.read_local(block, 0), InvalidArgument);
  EXPECT_EQ(store.live_replicas(block), (std::vector<NodeId>{1}));
  store.revive_node(0);
  EXPECT_EQ(store.live_replicas(block), (std::vector<NodeId>{0, 1}));
}

TEST(BlockStore, UnknownBlockThrows) {
  BlockStore store(2);
  EXPECT_THROW(store.info(42), InvalidArgument);
  EXPECT_THROW(store.read_local(42, 0), InvalidArgument);
  EXPECT_THROW(store.live_replicas(42), InvalidArgument);
}

TEST(BlockStore, DuplicateReplicasDeduplicated) {
  BlockStore store(2);
  const BlockId block = store.put("b", Bytes{1}, {1, 1, 1});
  EXPECT_EQ(store.info(block).replicas, (std::vector<NodeId>{1}));
}

// ---------------------------------------------------- out-of-core spilling

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(seed + i * 31u);
  return out;
}

BlockStoreConfig budgeted(std::size_t nodes, std::size_t budget_bytes) {
  BlockStoreConfig config;
  config.num_nodes = nodes;
  config.memory_budget_bytes = budget_bytes;
  return config;
}

TEST(BlockStoreSpill, EvictsColdBlocksAndServesByteIdenticalReads) {
  BlockStore store(budgeted(1, 256));
  const Bytes a = pattern_bytes(128, 1);
  const Bytes b = pattern_bytes(128, 2);
  const Bytes c = pattern_bytes(128, 3);
  const BlockId ba = store.put("a", a, {0});
  const BlockId bb = store.put("b", b, {0});
  const BlockId bc = store.put("c", c, {0});  // 384 resident > 256: a spills

  EXPECT_TRUE(store.info(ba).spilled);
  EXPECT_FALSE(store.info(bb).spilled);
  EXPECT_FALSE(store.info(bc).spilled);

  // The spill only moves bytes between RAM and disk: reads through the mmap
  // are byte-identical to what was stored.
  EXPECT_EQ(to_bytes(store.read_local(ba, 0)), a);
  EXPECT_EQ(to_bytes(store.read_local(bb, 0)), b);
  EXPECT_EQ(to_bytes(store.read_local(bc, 0)), c);

  const SpillStats stats = store.spill_stats();
  EXPECT_EQ(stats.spilled_blocks, 1u);
  EXPECT_EQ(stats.spilled_bytes, 128u);
  EXPECT_EQ(stats.mapped_reads, 1u);
  EXPECT_EQ(stats.resident_blocks, 2u);
  EXPECT_EQ(stats.resident_bytes, 256u);
}

TEST(BlockStoreSpill, ReadsRefreshLruRecency) {
  BlockStore store(budgeted(1, 256));
  const BlockId ba = store.put("a", pattern_bytes(128, 1), {0});
  const BlockId bb = store.put("b", pattern_bytes(128, 2), {0});
  // Touch a, making b the LRU tail: the next put must evict b, not a.
  store.read_local(ba, 0);
  const BlockId bc = store.put("c", pattern_bytes(128, 3), {0});
  EXPECT_FALSE(store.info(ba).spilled);
  EXPECT_TRUE(store.info(bb).spilled);
  EXPECT_FALSE(store.info(bc).spilled);
}

TEST(BlockStoreSpill, BlockLargerThanBudgetSpillsImmediately) {
  BlockStore store(budgeted(1, 64));
  const Bytes big = pattern_bytes(1024, 7);
  const BlockId block = store.put("big", big, {0});
  EXPECT_TRUE(store.info(block).spilled);
  EXPECT_EQ(to_bytes(store.read_local(block, 0)), big);
  EXPECT_EQ(store.spill_stats().resident_bytes, 0u);
}

TEST(BlockStoreSpill, UnlimitedBudgetNeverSpills) {
  BlockStore store(budgeted(1, 0));
  for (std::uint8_t i = 0; i < 8; ++i)
    store.put(std::string("b") + std::to_string(i), pattern_bytes(4096, i),
              {0});
  const SpillStats stats = store.spill_stats();
  EXPECT_EQ(stats.spilled_blocks, 0u);
  EXPECT_EQ(stats.mapped_reads, 0u);
  EXPECT_EQ(stats.resident_blocks, 8u);
  EXPECT_EQ(stats.resident_bytes, 8u * 4096u);
}

TEST(BlockStoreSpill, SpilledReadsDoNotDisturbLocalitySemantics) {
  BlockStore store(budgeted(3, 16));
  const BlockId block = store.put("s", pattern_bytes(64, 9), {0, 1});
  ASSERT_TRUE(store.info(block).spilled);
  EXPECT_THROW(store.read_local(block, 2), InvalidArgument);  // no replica
  store.kill_node(0);
  EXPECT_THROW(store.read_local(block, 0), InvalidArgument);  // dead node
  EXPECT_EQ(to_bytes(store.read_local(block, 1)), pattern_bytes(64, 9));
}

TEST(BlockStoreSpill, EmitsSpillCountersIntoALiveSession) {
  obs::MetricsRegistry metrics;
  obs::Session session(nullptr, &metrics);
  BlockStore store(budgeted(1, 64));
  const BlockId block = store.put("a", pattern_bytes(128, 1), {0});
  store.read_local(block, 0);
  EXPECT_EQ(metrics.counter("blockstore.spill.blocks"), 1);
  EXPECT_EQ(metrics.counter("blockstore.spill.bytes"), 128);
  EXPECT_EQ(metrics.counter("blockstore.spill.reads"), 1);
}

TEST(Executor, RunsAllTasks) {
  Executor executor(4);
  std::atomic<int> counter{0};
  executor.parallel_for(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(Executor, PropagatesExceptions) {
  Executor executor(2);
  EXPECT_THROW(executor.parallel_for(
                   10,
                   [](std::size_t i) {
                     if (i == 7) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

// -------------------------------------------------------- iterative job

/// Toy mapper: contributes its configured constant; also exercises the peer
/// exchange hook by sending its index to every other mapper.
class ConstantMapper final : public IterativeMapper {
 public:
  /// `map_time` > 0 makes every map() take at least that long, so its wall
  /// time dominates scheduler jitter.
  ConstantMapper(std::uint64_t value, std::size_t index, std::size_t peers,
                 std::chrono::microseconds map_time = {})
      : value_(value), index_(index), peers_(peers), map_time_(map_time) {}

  void configure(const BlockStore& storage, NodeId node) override {
    configured_node_ = node;
    (void)storage;
  }

  std::vector<std::pair<std::size_t, Bytes>> exchange(std::size_t) override {
    std::vector<std::pair<std::size_t, Bytes>> out;
    for (std::size_t p = 0; p < peers_; ++p) {
      if (p == index_) continue;
      Writer w;
      w.put_u64(index_);
      out.emplace_back(p, w.take());
    }
    return out;
  }

  void map(std::size_t, BytesView broadcast,
           std::span<const BytesView> peer_messages, Writer& out) override {
    if (map_time_.count() > 0) std::this_thread::sleep_for(map_time_);
    std::uint64_t peer_sum = 0;
    for (std::size_t p = 0; p < peer_messages.size(); ++p) {
      if (peer_messages[p].empty()) continue;
      Reader r(peer_messages[p]);
      peer_sum += r.get_u64();
    }
    std::uint64_t feedback = 0;
    if (!broadcast.empty()) {
      Reader r(broadcast);
      feedback = r.get_u64();
    }
    out.put_u64(value_ + peer_sum + feedback);
  }

  NodeId configured_node_ = 999;

 private:
  std::uint64_t value_;
  std::size_t index_;
  std::size_t peers_;
  std::chrono::microseconds map_time_;
};

class SummingReducer final : public IterativeReducer {
 public:
  explicit SummingReducer(std::size_t stop_after) : stop_after_(stop_after) {}

  void reduce(std::size_t round, std::span<const BytesView> contributions,
              Writer& out) override {
    std::uint64_t total = 0;
    for (const BytesView payload : contributions) {
      if (payload.empty()) continue;  // permanently dropped mapper
      Reader r(payload);
      total += r.get_u64();
    }
    sums.push_back(total);
    done_ = round + 1 >= stop_after_;
    out.put_u64(total);
  }

  bool converged() const override { return done_; }

  std::vector<std::uint64_t> sums;

 private:
  std::size_t stop_after_;
  bool done_ = false;
};

ClusterConfig make_config(std::size_t nodes, std::size_t replication = 1) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.replication = replication;
  return config;
}

TEST(IterativeJob, RunsRoundsAndAggregates) {
  Cluster cluster(make_config(4));
  IterativeJob job(cluster, JobConfig{});
  std::vector<std::shared_ptr<ConstantMapper>> mappers;
  for (std::size_t i = 0; i < 3; ++i) {
    const BlockId block =
        cluster.store_shard("shard" + std::to_string(i), Bytes{1}, i);
    auto mapper = std::make_shared<ConstantMapper>(10 * (i + 1), i, 3);
    mappers.push_back(mapper);
    job.add_mapper(mapper, block);
  }
  auto reducer = std::make_shared<SummingReducer>(2);
  job.set_reducer(reducer, 3);

  const JobStats stats = job.run({});
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.rounds, 2u);
  // Round 0: no feedback; every mapper adds peer indices (sum of others).
  // values 10+20+30 = 60; peer sums: mapper0 gets 1+2=3, m1: 0+2=2, m2: 1.
  EXPECT_EQ(reducer->sums[0], 66u);
  // Round 1: same + 3 * feedback(66) = 66 + 198 = 264.
  EXPECT_EQ(reducer->sums[1], 264u);

  // Mappers ran data-local.
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(mappers[i]->configured_node_, i);

  // Channels recorded.
  EXPECT_GT(stats.channels.at("broadcast").messages, 0u);
  EXPECT_GT(stats.channels.at("peer-exchange").messages, 0u);
  EXPECT_GT(stats.channels.at("contribution").messages, 0u);
  EXPECT_GT(stats.simulated_network_seconds, 0.0);
}

TEST(IterativeJob, StopsAtMaxRoundsWithoutConvergence) {
  Cluster cluster(make_config(3));
  JobConfig config;
  config.max_rounds = 5;
  IterativeJob job(cluster, config);
  for (std::size_t i = 0; i < 2; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    job.add_mapper(std::make_shared<ConstantMapper>(1, i, 2), block);
  }
  auto reducer = std::make_shared<SummingReducer>(999);
  job.set_reducer(reducer, 2);
  const JobStats stats = job.run({});
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.rounds, 5u);
}

TEST(IterativeJob, FailsWhenAllReplicasDead) {
  Cluster cluster(make_config(3));
  IterativeJob job(cluster, JobConfig{});
  const BlockId b0 = cluster.store_shard("s0", Bytes{1}, 0);
  const BlockId b1 = cluster.store_shard("s1", Bytes{1}, 1);
  job.add_mapper(std::make_shared<ConstantMapper>(1, 0, 2), b0);
  job.add_mapper(std::make_shared<ConstantMapper>(2, 1, 2), b1);
  job.set_reducer(std::make_shared<SummingReducer>(1), 2);
  cluster.kill_node(0);  // only replica of shard 0
  EXPECT_THROW(job.run({}), JobError);
}

TEST(IterativeJob, SurvivesNodeFailureWithReplication) {
  Cluster cluster(make_config(4, /*replication=*/2));
  IterativeJob job(cluster, JobConfig{});
  std::vector<std::shared_ptr<ConstantMapper>> mappers;
  for (std::size_t i = 0; i < 2; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    auto mapper = std::make_shared<ConstantMapper>(5, i, 2);
    mappers.push_back(mapper);
    job.add_mapper(mapper, block);
  }
  job.set_reducer(std::make_shared<SummingReducer>(1), 3);
  cluster.kill_node(0);  // shard 0 still has a replica on node 1
  const JobStats stats = job.run({});
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(mappers[0]->configured_node_, 1u);  // rescheduled to the replica
}

TEST(IterativeJob, InjectedTaskFailuresAreRetried) {
  Cluster cluster(make_config(4, /*replication=*/2));
  JobConfig config;
  config.max_rounds = 3;
  config.task_failure_probability = 0.5;
  config.max_task_attempts = 10;
  config.failure_seed = 1;
  IterativeJob job(cluster, config);
  for (std::size_t i = 0; i < 2; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    job.add_mapper(std::make_shared<ConstantMapper>(1, i, 2), block);
  }
  job.set_reducer(std::make_shared<SummingReducer>(999), 3);
  const JobStats stats = job.run({});
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_GT(stats.task_retries, 0u);
  EXPECT_GT(stats.map_task_attempts, 6u);  // more attempts than tasks
}

/// Mapper that re-reads its home shard through the store on every configure
/// and contributes a digest of the bytes it saw — exercising whichever
/// backing (RAM buffer or spill mmap) served the read.
class ShardCrcMapper final : public IterativeMapper {
 public:
  explicit ShardCrcMapper(BlockId home_block) : home_block_(home_block) {}

  void configure(const BlockStore& storage, NodeId node) override {
    shard_crc_ = crc32(storage.read_local(home_block_, node));
  }

  void map(std::size_t, BytesView, std::span<const BytesView>,
           Writer& out) override {
    out.put_u64(shard_crc_);
  }

 private:
  BlockId home_block_;
  std::uint32_t shard_crc_ = 0;
};

TEST(IterativeJob, SpilledShardsAreBitIdenticalToAllInRam) {
  // The same job once with an unlimited blockstore and once with a budget
  // far below a single shard, so every mapper read is served off the spill
  // mmap. Mapper outputs (shard digests) must match bit for bit.
  auto run = [](std::size_t budget_bytes) {
    ClusterConfig config = make_config(4);
    config.blockstore_budget_bytes = budget_bytes;
    Cluster cluster(config);
    IterativeJob job(cluster, JobConfig{});
    for (std::size_t i = 0; i < 3; ++i) {
      Writer w;
      std::vector<double> payload(256);
      for (std::size_t j = 0; j < payload.size(); ++j)
        payload[j] = 0.25 * static_cast<double>(i + 1) *
                         static_cast<double>(j) -
                     3.5;
      w.put_double_vector(payload);
      const BlockId block =
          cluster.store_shard(std::string("s") + std::to_string(i), w.take(),
                              i);
      job.add_mapper(std::make_shared<ShardCrcMapper>(block), block);
    }
    auto reducer = std::make_shared<SummingReducer>(2);
    job.set_reducer(reducer, 3);
    job.run({});
    return std::make_pair(reducer->sums, cluster.storage().spill_stats());
  };

  const auto [in_ram_sums, in_ram_stats] = run(0);
  const auto [spilled_sums, spilled_stats] = run(64);
  EXPECT_EQ(spilled_sums, in_ram_sums);
  EXPECT_EQ(in_ram_stats.spilled_blocks, 0u);
  EXPECT_EQ(spilled_stats.spilled_blocks, 3u);  // every shard went to disk
  EXPECT_GT(spilled_stats.mapped_reads, 0u);
}

TEST(IterativeJob, ValidatesRegistration) {
  Cluster cluster(make_config(2));
  IterativeJob job(cluster, JobConfig{});
  EXPECT_THROW(job.run({}), InvalidArgument);  // no mappers
  const BlockId block = cluster.store_shard("s", Bytes{1}, 0);
  job.add_mapper(std::make_shared<ConstantMapper>(1, 0, 1), block);
  EXPECT_THROW(job.run({}), InvalidArgument);  // no reducer
  EXPECT_THROW(job.set_reducer(std::make_shared<SummingReducer>(1), 9),
               InvalidArgument);
}

TEST(IterativeJob, GracefulDegradationOnDataLoss) {
  // Node 0 is dead from the start and shard 0 has no other replica: with
  // tolerate_mapper_loss the job drops mapper 0 before round 0's masking
  // and completes with the survivors instead of throwing.
  Cluster cluster(make_config(4));
  JobConfig config;
  config.max_rounds = 3;
  config.tolerate_mapper_loss = true;
  IterativeJob job(cluster, config);
  for (std::size_t i = 0; i < 3; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    job.add_mapper(std::make_shared<ConstantMapper>(10 * (i + 1), i, 3), block);
  }
  auto reducer = std::make_shared<SummingReducer>(999);
  job.set_reducer(reducer, 3);
  cluster.kill_node(0);

  const JobStats stats = job.run({});
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.mappers_lost, 1u);
  EXPECT_EQ(stats.mappers_rejoined, 0u);
  ASSERT_EQ(stats.mapper_states.size(), 3u);
  EXPECT_EQ(stats.mapper_states[0], MapperState::kDropped);
  EXPECT_EQ(stats.mapper_states[1], MapperState::kAlive);
  // Round 0 total: mappers 1 and 2 contribute 20 + 30, each plus the peer
  // indices the OTHER live mapper sent (2 and 1 respectively).
  EXPECT_EQ(reducer->sums[0], 53u);
}

TEST(IterativeJob, CrashedMapperRejoinsOnReplica) {
  // Node 0 dies after round 1's map phase (the fault plan's crash
  // semantics); mapper 0's contribution that round is lost post-mask, but
  // its block has a replica on node 1 — it rejoins at round 2 and the
  // whole cohort moves to a fresh key epoch.
  ClusterConfig cluster_config = make_config(4, /*replication=*/2);
  cluster_config.fault_plan.crashes.push_back(NodeEvent{1, 0});
  Cluster cluster(cluster_config);
  JobConfig config;
  config.max_rounds = 4;
  config.tolerate_mapper_loss = true;
  IterativeJob job(cluster, config);
  for (std::size_t i = 0; i < 3; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    job.add_mapper(std::make_shared<ConstantMapper>(1, i, 3), block);
  }
  auto reducer = std::make_shared<SummingReducer>(999);
  job.set_reducer(reducer, 3);

  const JobStats stats = job.run({});
  EXPECT_EQ(stats.rounds, 4u);
  EXPECT_EQ(stats.mappers_lost, 1u);
  EXPECT_EQ(stats.mappers_rejoined, 1u);
  EXPECT_EQ(stats.mapper_states[0], MapperState::kRejoined);
}

TEST(IterativeJob, MapperLossWithoutToleranceAborts) {
  ClusterConfig cluster_config = make_config(3);
  cluster_config.fault_plan.crashes.push_back(NodeEvent{1, 0});
  Cluster cluster(cluster_config);
  JobConfig config;
  config.max_rounds = 4;  // tolerate_mapper_loss stays false
  IterativeJob job(cluster, config);
  for (std::size_t i = 0; i < 2; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    job.add_mapper(std::make_shared<ConstantMapper>(1, i, 2), block);
  }
  job.set_reducer(std::make_shared<SummingReducer>(999), 2);
  EXPECT_THROW(job.run({}), JobError);
}

TEST(IterativeJob, ReducerCrashIsFatalEvenWhenTolerant) {
  ClusterConfig cluster_config = make_config(3);
  cluster_config.fault_plan.crashes.push_back(NodeEvent{0, 2});
  Cluster cluster(cluster_config);
  JobConfig config;
  config.tolerate_mapper_loss = true;
  IterativeJob job(cluster, config);
  for (std::size_t i = 0; i < 2; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    job.add_mapper(std::make_shared<ConstantMapper>(1, i, 2), block);
  }
  job.set_reducer(std::make_shared<SummingReducer>(999), 2);
  EXPECT_THROW(job.run({}), JobError);
}

TEST(IterativeJob, DeliversThroughLossyFabric) {
  // 10% drop + 5% corruption on every channel: the CRC layer detects and
  // the driver re-sends, so the job completes with the same sums as a
  // clean run — and the retry counters show the fabric was actually lossy.
  const auto run_with = [](double drop, double corrupt) {
    ClusterConfig cluster_config = make_config(4);
    cluster_config.fault_plan.all_channels.drop = drop;
    cluster_config.fault_plan.all_channels.corrupt = corrupt;
    Cluster cluster(cluster_config);
    JobConfig config;
    config.max_rounds = 6;
    IterativeJob job(cluster, config);
    for (std::size_t i = 0; i < 3; ++i) {
      const BlockId block = cluster.store_shard("s", Bytes{1}, i);
      job.add_mapper(std::make_shared<ConstantMapper>(7 * (i + 1), i, 3),
                     block);
    }
    auto reducer = std::make_shared<SummingReducer>(999);
    job.set_reducer(reducer, 3);
    const JobStats stats = job.run({});
    return std::make_pair(reducer->sums, stats);
  };
  const auto [clean_sums, clean_stats] = run_with(0.0, 0.0);
  const auto [lossy_sums, lossy_stats] = run_with(0.10, 0.05);
  EXPECT_EQ(clean_sums, lossy_sums);  // verified delivery: no data changed
  EXPECT_EQ(clean_stats.message_retries, 0u);
  EXPECT_GT(lossy_stats.message_retries, 0u);
  EXPECT_GT(lossy_stats.network_faults.messages_dropped +
                lossy_stats.network_faults.messages_corrupted,
            0u);
  EXPECT_GT(lossy_stats.frames_rejected, 0u);
  EXPECT_EQ(lossy_stats.mappers_lost, 0u);
}

TEST(IterativeJob, SpeculativeExecutionCapsStragglers) {
  // One 20x straggler with a replica on a fast node: with speculation the
  // simulated round time is bounded by factor x median + the backup's run,
  // and the speculative attempts are counted deterministically. Each map
  // sleeps 5 ms, so a round costs ~100 ms simulated without speculation and
  // ~20 ms with it: scheduler jitter of microseconds to a few milliseconds
  // cannot invert the comparison.
  const auto run_with = [](double speculation_factor) {
    ClusterConfig cluster_config = make_config(5, /*replication=*/2);
    cluster_config.node_speed_factors = {20.0, 1.0, 1.0, 1.0, 1.0};
    Cluster cluster(cluster_config);
    JobConfig config;
    config.max_rounds = 3;
    config.speculation_factor = speculation_factor;
    IterativeJob job(cluster, config);
    for (std::size_t i = 0; i < 3; ++i) {
      const BlockId block = cluster.store_shard("s", Bytes{1}, i);
      job.add_mapper(std::make_shared<ConstantMapper>(
                         1, i, 3, std::chrono::milliseconds(5)),
                     block);
    }
    job.set_reducer(std::make_shared<SummingReducer>(999), 4);
    return job.run({});
  };
  const JobStats without = run_with(0.0);
  const JobStats with = run_with(3.0);
  EXPECT_EQ(without.speculative_attempts, 0u);
  EXPECT_EQ(with.speculative_attempts, 3u);  // one per round, same decision
  EXPECT_EQ(with.round_timeouts, 3u);
  EXPECT_EQ(with.mapper_states[0], MapperState::kSuspected);
  EXPECT_LT(with.simulated_compute_seconds,
            without.simulated_compute_seconds);
}

TEST(IterativeJob, RecordsSystemCounters) {
  Cluster cluster(make_config(3));
  JobConfig config;
  config.max_rounds = 4;
  IterativeJob job(cluster, config);
  for (std::size_t i = 0; i < 2; ++i) {
    const BlockId block = cluster.store_shard("s", Bytes{1}, i);
    job.add_mapper(std::make_shared<ConstantMapper>(1, i, 2), block);
  }
  job.set_reducer(std::make_shared<SummingReducer>(999), 2);
  const JobStats stats = job.run({});
  EXPECT_EQ(stats.rounds, 4u);
  EXPECT_EQ(stats.map_task_attempts, 8u);
}

TEST(IterativeJob, StragglerDominatesSimulatedComputeTime) {
  // Same job on a balanced cluster vs one with a 50x slower node: the
  // synchronous barrier makes the slow node gate every round.
  const auto run_with = [](std::vector<double> factors) {
    ClusterConfig config = make_config(3);
    config.node_speed_factors = std::move(factors);
    Cluster cluster(config);
    JobConfig job_config;
    job_config.max_rounds = 3;
    IterativeJob job(cluster, job_config);
    for (std::size_t i = 0; i < 2; ++i) {
      const BlockId block = cluster.store_shard("s", Bytes{1}, i);
      job.add_mapper(std::make_shared<ConstantMapper>(1, i, 2), block);
    }
    job.set_reducer(std::make_shared<SummingReducer>(999), 2);
    return job.run({}).simulated_compute_seconds;
  };
  const double balanced = run_with({});
  const double straggler = run_with({50.0, 1.0, 1.0});
  EXPECT_GT(straggler, balanced * 3.0);
}

TEST(Cluster, RejectsBadSpeedFactors) {
  ClusterConfig config = make_config(2);
  config.node_speed_factors = {1.0};
  EXPECT_THROW(Cluster{config}, InvalidArgument);
  config.node_speed_factors = {1.0, 0.0};
  EXPECT_THROW(Cluster{config}, InvalidArgument);
}

TEST(Cluster, ValidatesConfig) {
  ClusterConfig config;
  config.num_nodes = 2;
  config.replication = 3;
  EXPECT_THROW(Cluster{config}, InvalidArgument);
}

}  // namespace
}  // namespace ppml::mapreduce
