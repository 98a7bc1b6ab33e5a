// Heap bytes that shuffle_rows and train_test_split ask for, counted by a
// replaced global operator new. shuffle_rows permutes in place, so it must
// allocate less than one copy of the row matrix; train_test_split gathers
// each side straight from its input, so it may allocate its two outputs
// and one N-entry index vector, nothing more.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "data/dataset.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_bytes{0};

}  // namespace

// GCC pairs the replaced operator new with the free() below once it inlines
// both into one caller and warns; they are a matched malloc/free pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace ppml::data {
namespace {

/// Bytes allocated by `fn` (operator new, every array form included).
template <typename Fn>
std::size_t bytes_allocated_by(Fn&& fn) {
  g_bytes = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_bytes;
}

Dataset dense_dataset(std::size_t n, std::size_t k) {
  Dataset d;
  d.name = "dense";
  d.x.resize(n, k);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j)
      d.x(i, j) = static_cast<double>(i * k + j);
    d.y[i] = i % 2 == 0 ? 1.0 : -1.0;
  }
  return d;
}

std::size_t payload_bytes(const Dataset& d) {
  return (d.x.size() + d.y.size()) * sizeof(double);
}

TEST(DataAlloc, CounterSeesVectorAllocations) {
  const std::size_t bytes =
      bytes_allocated_by([] { std::vector<double> v(1000); });
  EXPECT_EQ(bytes, 1000 * sizeof(double));
}

TEST(DataAlloc, ShuffleRowsAllocatesLessThanOneRowMatrix) {
  const std::size_t n = 10007;
  const std::size_t k = 8;
  Dataset d = dense_dataset(n, k);
  const std::size_t bytes = bytes_allocated_by([&] { shuffle_rows(d, 3); });
  EXPECT_LT(bytes, n * k * sizeof(double));
  // The N-entry order and one spare row.
  EXPECT_LE(bytes, n * sizeof(std::size_t) + k * sizeof(double));
}

TEST(DataAlloc, SplitAllocatesItsTwoSidesAndOneIndexVector) {
  const std::size_t n = 10007;
  const std::size_t k = 8;
  const Dataset d = dense_dataset(n, k);
  SplitDataset split;
  const std::size_t bytes =
      bytes_allocated_by([&] { split = train_test_split(d, 0.5, 42); });
  const std::size_t outputs = payload_bytes(split.train) +
                              payload_bytes(split.test);
  EXPECT_EQ(outputs, payload_bytes(d));
  // Slack for the two side names, should they outgrow the small-string
  // buffer.
  constexpr std::size_t kNameSlack = 256;
  EXPECT_LE(bytes, outputs + n * sizeof(std::size_t) + kNameSlack);
}

}  // namespace
}  // namespace ppml::data
