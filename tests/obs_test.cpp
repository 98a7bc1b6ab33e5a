// Observability layer: metrics registry semantics, span nesting, exporter
// validity (Chrome trace JSON parsed by a minimal JSON reader below), and
// thread safety of both halves under the mapreduce executor.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "linalg/common.h"
#include "mapreduce/executor.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace ppml::obs {
namespace {

// --- minimal JSON syntax checker (no values, just well-formedness) --------
//
// Enough of RFC 8259 to reject anything a real parser would: balanced
// containers, quoted keys, legal literals/numbers/escapes. Used to validate
// the exporters without pulling in a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') { ++pos_; if (!digits()) return false; }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- metrics --------------------------------------------------------------

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry registry;
  registry.add("a");
  registry.add("a", 4);
  registry.add("b", -2);
  EXPECT_EQ(registry.counter("a"), 5);
  EXPECT_EQ(registry.counter("b"), -2);
  EXPECT_EQ(registry.counter("missing"), 0);
}

TEST(Metrics, GaugesLastWriteWins) {
  MetricsRegistry registry;
  registry.set_gauge("g", 1.5);
  registry.set_gauge("g", -3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("g"), -3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("missing"), 0.0);
}

TEST(Metrics, HistogramBucketing) {
  MetricsRegistry registry;
  registry.declare_histogram("h", {1.0, 10.0, 100.0});
  registry.observe("h", 0.5);    // bucket 0 (<= 1)
  registry.observe("h", 1.0);    // bucket 0 (boundary is inclusive)
  registry.observe("h", 5.0);    // bucket 1
  registry.observe("h", 100.0);  // bucket 2
  registry.observe("h", 1e6);    // overflow
  const HistogramSnapshot snap = registry.histogram("h");
  ASSERT_EQ(snap.upper_bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);  // overflow bucket
  EXPECT_EQ(snap.total, 5u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 1e6);
}

TEST(Metrics, HistogramDefaultBucketsOnFirstObserve) {
  MetricsRegistry registry;
  registry.observe("auto", 1e-3);
  const HistogramSnapshot snap = registry.histogram("auto");
  EXPECT_FALSE(snap.upper_bounds.empty());
  EXPECT_EQ(snap.total, 1u);
}

TEST(Metrics, HistogramRedeclareWithDifferentBoundsThrows) {
  MetricsRegistry registry;
  registry.declare_histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(registry.declare_histogram("h", {1.0, 2.0}));
  EXPECT_THROW(registry.declare_histogram("h", {1.0, 3.0}), Error);
  EXPECT_THROW(registry.declare_histogram("bad", {2.0, 1.0}), Error);
  EXPECT_THROW(registry.declare_histogram("empty", {}), Error);
}

TEST(Metrics, SeriesKeepOrder) {
  MetricsRegistry registry;
  registry.append("s", 3.0);
  registry.append("s", 1.0);
  registry.append("s", 2.0);
  EXPECT_EQ(registry.series("s"), (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(Metrics, CsvShape) {
  MetricsRegistry registry;
  registry.add("c", 7);
  registry.set_gauge("g", 2.5);
  registry.declare_histogram("h", {1.0});
  registry.observe("h", 0.5);
  registry.append("s", 9.0);
  std::ostringstream os;
  registry.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,key,value\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,c,,7\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,g,,2.5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,count,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,le_inf,0\n"), std::string::npos);
  EXPECT_NE(csv.find("series,s,0,9\n"), std::string::npos);
}

TEST(Metrics, RegistryIsThreadSafeUnderParallelFor) {
  MetricsRegistry registry;
  mapreduce::Executor executor(4);
  constexpr std::size_t kTasks = 256;
  executor.parallel_for(kTasks, [&](std::size_t i) {
    registry.add("hits");
    registry.set_gauge("last", static_cast<double>(i));
    registry.observe("values", static_cast<double>(i % 10));
    registry.append("order", static_cast<double>(i));
  });
  EXPECT_EQ(registry.counter("hits"), static_cast<std::int64_t>(kTasks));
  EXPECT_EQ(registry.histogram("values").total, kTasks);
  EXPECT_EQ(registry.series("order").size(), kTasks);
}

// --- tracer ---------------------------------------------------------------

TEST(Trace, SpanNestingAndOrdering) {
  Tracer tracer;
  const auto job = tracer.begin("job", "core");
  const auto iter = tracer.begin("iteration", "core");
  const auto map = tracer.begin("map", "core");
  tracer.end(map);
  const auto reduce = tracer.begin("reduce", "core");
  tracer.end(reduce);
  tracer.end(iter);
  tracer.end(job);

  const auto records = tracer.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[job].parent, Tracer::kInvalidSpan);
  EXPECT_EQ(records[job].depth, 0u);
  EXPECT_EQ(records[iter].parent, job);
  EXPECT_EQ(records[iter].depth, 1u);
  EXPECT_EQ(records[map].parent, iter);
  EXPECT_EQ(records[map].depth, 2u);
  EXPECT_EQ(records[reduce].parent, iter);  // sibling of map, not child
  EXPECT_EQ(records[reduce].depth, 2u);

  // Containment: children start/end within their parent.
  EXPECT_GE(records[map].start_ns, records[iter].start_ns);
  EXPECT_LE(records[map].end_ns, records[iter].end_ns);
  EXPECT_LE(records[map].end_ns, records[reduce].start_ns);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(Trace, ArgsAndOpenSpans) {
  Tracer tracer;
  const auto id = tracer.begin("phase");
  tracer.set_arg(id, "bytes", 128.0);
  EXPECT_EQ(tracer.open_span_count(), 1u);
  const auto records = tracer.records();
  ASSERT_EQ(records[id].args.size(), 1u);
  EXPECT_EQ(records[id].args[0].first, "bytes");
  EXPECT_DOUBLE_EQ(records[id].args[0].second, 128.0);
  EXPECT_EQ(records[id].end_ns, 0u);  // still open
  tracer.end(id);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(Trace, ChromeExportIsValidJson) {
  Tracer tracer;
  const auto job = tracer.begin("job \"quoted\"\n", "cat\\egory");
  const auto iter = tracer.begin("iteration");
  tracer.set_arg(iter, "round", 0.0);
  tracer.end(iter);
  tracer.end(job);
  const auto open = tracer.begin("still-open");
  (void)open;

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  // Open spans are exported too (ending "now"), so partial traces load.
  EXPECT_NE(text.find("still-open"), std::string::npos);
}

TEST(Trace, TracerIsThreadSafeUnderParallelFor) {
  Tracer tracer;
  mapreduce::Executor executor(4);
  constexpr std::size_t kTasks = 128;
  executor.parallel_for(kTasks, [&](std::size_t i) {
    const auto outer = tracer.begin("task");
    const auto inner = tracer.begin("step");
    tracer.set_arg(inner, "i", static_cast<double>(i));
    tracer.end(inner);
    tracer.end(outer);
  });
  EXPECT_EQ(tracer.span_count(), 2 * kTasks);
  EXPECT_EQ(tracer.open_span_count(), 0u);
  // Every "step" nests under a "task" on its own thread.
  for (const auto& record : tracer.records()) {
    if (record.name != "step") continue;
    ASSERT_NE(record.parent, Tracer::kInvalidSpan);
    EXPECT_EQ(record.depth, 1u);
  }
}

// --- reports --------------------------------------------------------------

TEST(Report, AggregateSpansMedians) {
  Tracer tracer;
  for (int i = 0; i < 3; ++i) tracer.end(tracer.begin("phase"));
  const auto open = tracer.begin("phase");  // open: excluded from stats
  (void)open;
  const auto stats = aggregate_spans(tracer);
  ASSERT_EQ(stats.count("phase"), 1u);
  EXPECT_EQ(stats.at("phase").count, 3u);
  EXPECT_GE(stats.at("phase").median_s, 0.0);
  EXPECT_LE(stats.at("phase").min_s, stats.at("phase").median_s);
  EXPECT_LE(stats.at("phase").median_s, stats.at("phase").max_s);
}

TEST(Report, JsonReportsAreValid) {
  Tracer tracer;
  tracer.end(tracer.begin("job"));
  MetricsRegistry registry;
  registry.add("c", 3);
  registry.append("s", 1.25);
  std::ostringstream os;
  JsonValue report = JsonValue::object();
  report.set("phases", span_stats_json(tracer));
  report.set("metrics", metrics_json(registry));
  report.dump(os, 2);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

// --- global session -------------------------------------------------------

TEST(Session, HelpersAreNoOpsWhenUninstalled) {
  ASSERT_FALSE(enabled());
  count("never");
  gauge("never", 1.0);
  observe("never", 1.0);
  append("never", 1.0);
  Span span("never", "off");
  span.arg("k", 1.0);
  EXPECT_FALSE(span.active());
}

TEST(Session, InstallsAndUninstallsBothHalves) {
  Tracer tracer;
  MetricsRegistry registry;
  {
    Session session(&tracer, &registry);
    EXPECT_TRUE(enabled());
    count("hits", 2);
    { Span span("unit", "test"); span.arg("x", 1.0); }
  }
  EXPECT_FALSE(enabled());
  EXPECT_EQ(registry.counter("hits"), 2);
  EXPECT_EQ(tracer.span_count(), 1u);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(Session, NestedInstallThrows) {
  Tracer tracer;
  MetricsRegistry registry;
  Session session(&tracer, &registry);
  EXPECT_THROW(install(&tracer, &registry), Error);
}

// --- party attribution ----------------------------------------------------

TEST(Party, ScopeSavesAndRestores) {
  EXPECT_EQ(current_party(), kNoParty);
  {
    PartyScope outer(std::size_t{3});
    EXPECT_EQ(current_party(), 3);
    {
      PartyScope inner(kReducerParty);
      EXPECT_EQ(current_party(), kReducerParty);
    }
    EXPECT_EQ(current_party(), 3);
  }
  EXPECT_EQ(current_party(), kNoParty);
  EXPECT_EQ(party_label(0), "0");
  EXPECT_EQ(party_label(kReducerParty), "reducer");
  EXPECT_EQ(party_label(kNoParty), "unattributed");
}

TEST(Party, SpansLatchThePartyAtBegin) {
  Tracer tracer;
  Tracer::SpanId tagged;
  {
    PartyScope scope(std::size_t{2});
    tagged = tracer.begin("work");
  }
  tracer.end(tagged);  // closing outside the scope must not re-read it
  const auto plain = tracer.begin("other");
  tracer.end(plain);
  const auto records = tracer.records();
  EXPECT_EQ(records[tagged].party, 2);
  EXPECT_EQ(records[plain].party, kNoParty);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
  EXPECT_NE(os.str().find("\"party\": \"2\""), std::string::npos);
}

TEST(Party, ShardSumsEqualGlobalUnderConcurrentMixedScopes) {
  MetricsRegistry registry;
  mapreduce::Executor executor(4);
  constexpr std::size_t kTasks = 96;
  executor.parallel_for(kTasks, [&](std::size_t i) {
    if (i % 5 == 0) {
      registry.add("net.bytes", 7);  // unattributed shard
    } else {
      PartyScope scope(i % 3);
      registry.add("net.bytes", static_cast<std::int64_t>(i));
      registry.add("crypto.masks", 2);
    }
  });
  for (const auto& [name, shards] : registry.party_counters()) {
    std::int64_t sum = 0;
    for (const auto& [party, value] : shards) sum += value;
    EXPECT_EQ(sum, registry.counter(name)) << name;
  }
  // Spot-check a shard is reachable by tag too.
  EXPECT_GT(registry.party_counter("crypto.masks", 1), 0);
  EXPECT_GT(registry.party_counter("net.bytes", kNoParty), 0);
  EXPECT_EQ(registry.party_counter("net.bytes", kReducerParty), 0);
}

// --- flow events ----------------------------------------------------------

TEST(Trace, FlowEventsExportAndRoundTrip) {
  Tracer tracer;
  const std::uint64_t flow_id = tracer.new_flow_id();
  EXPECT_NE(flow_id, 0u);
  {
    const auto producer = tracer.begin("map_task");
    tracer.flow('s', flow_id, "contribution");
    tracer.end(producer);
  }
  tracer.flow('t', flow_id, "contribution");
  {
    const auto consumer = tracer.begin("reduce");
    tracer.flow('f', flow_id, "contribution");
    tracer.end(consumer);
  }
  const auto flows = tracer.flows();
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0].phase, 's');
  EXPECT_EQ(flows[1].phase, 't');
  EXPECT_EQ(flows[2].phase, 'f');
  for (const auto& f : flows) EXPECT_EQ(f.id, flow_id);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"t\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"f\""), std::string::npos);
  // Binding-point "enclosing slice" is what makes the arrows attach to the
  // producer/consumer spans rather than to whatever slice follows them.
  EXPECT_NE(text.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\": \"flow\""), std::string::npos);
}

TEST(Trace, FlowValidationRejectsBadPhaseAndZeroId) {
  Tracer tracer;
  EXPECT_THROW(tracer.flow('x', 1, "bad"), Error);
  EXPECT_THROW(tracer.flow('s', 0, "bad"), Error);
}

TEST(Trace, OpenSpanExportNeverUnderflows) {
  // Regression: write_chrome_trace used to snapshot "now" before taking the
  // lock, so a span begun in between had start_ns > now and its unsigned
  // duration wrapped to ~5e11 seconds. The clamp keeps every exported dur
  // finite and non-negative; 1e12 us (~11 days) is far above any real span
  // and far below the wrapped value (~1.8e13 us).
  Tracer tracer;
  const auto open = tracer.begin("open-span");
  (void)open;
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string text = os.str();
  std::size_t pos = 0;
  std::size_t durs = 0;
  while ((pos = text.find("\"dur\": ", pos)) != std::string::npos) {
    pos += 7;
    EXPECT_NE(text[pos], '-');
    const double dur = std::stod(text.substr(pos));
    EXPECT_LT(dur, 1e12) << "wrapped duration in export";
    ++durs;
  }
  EXPECT_GE(durs, 1u);
}

// --- histogram quantiles --------------------------------------------------

TEST(Metrics, HistogramQuantilesInterpolateWithinBuckets) {
  MetricsRegistry registry;
  registry.declare_histogram("lat", {1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 50; ++i) registry.observe("lat", 0.5);   // bucket <=1
  for (int i = 0; i < 40; ++i) registry.observe("lat", 3.0);   // bucket <=4
  for (int i = 0; i < 10; ++i) registry.observe("lat", 16.0);  // overflow
  const HistogramSnapshot snap = registry.histogram("lat");
  const double p50 = snap.quantile(0.50);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.0);  // rank 50 falls at the top of the first bucket
  const double p95 = snap.quantile(0.95);
  EXPECT_GE(p95, 8.0);  // rank 95 lands in the overflow bucket
  EXPECT_LE(p95, 16.0);  // clamped by the observed max
  // Degenerate cases: empty histogram and out-of-range q stay finite.
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
  EXPECT_LE(snap.quantile(0.0), snap.quantile(1.0));
}

TEST(Metrics, CsvCarriesQuantileAndPartyRows) {
  MetricsRegistry registry;
  registry.observe("lat", 2.0);
  {
    PartyScope scope(std::size_t{1});
    registry.add("net.bytes", 64);
  }
  registry.add("unsharded.count", 1);  // only the kNoParty shard: no rows
  std::ostringstream os;
  registry.write_csv(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("histogram,lat,p50,"), std::string::npos);
  EXPECT_NE(text.find("histogram,lat,p95,"), std::string::npos);
  EXPECT_NE(text.find("histogram,lat,p99,"), std::string::npos);
  EXPECT_NE(text.find("party_counter,net.bytes,1,64"), std::string::npos);
  EXPECT_EQ(text.find("party_counter,unsharded.count"), std::string::npos);
}

// --- flight recorder ------------------------------------------------------

TEST(FlightRecorder, RingWrapsAtCapacityKeepingNewest) {
  FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i)
    recorder.record(FlightEventKind::kMark,
                    std::string("e") + std::to_string(i),
                    static_cast<double>(i));
  EXPECT_EQ(recorder.recorded(), 20u);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].seq, 12 + k);  // oldest surviving first
    EXPECT_EQ(std::string(events[k].label),
              std::string("e") + std::to_string(12 + k));
  }
}

TEST(FlightRecorder, DumpJsonIsValidAndCarriesReason) {
  FlightRecorder recorder(16);
  {
    PartyScope scope(std::size_t{2});
    recorder.record(FlightEventKind::kFault, "drop:contribution", 128.0,
                    /*trace_id=*/42);
  }
  std::ostringstream os;
  recorder.dump_json(os, "unit_test");
  const std::string text = os.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"fault\""), std::string::npos);
  EXPECT_NE(text.find("\"party\": \"2\""), std::string::npos);
  EXPECT_NE(text.find("\"trace_id\": 42"), std::string::npos);
}

TEST(FlightRecorder, SessionFeedsSpanCloseAndCounterEvents) {
  Tracer tracer;
  MetricsRegistry registry;
  FlightRecorder recorder(64);
  {
    Session session(&tracer, &registry, &recorder);
    PartyScope scope(std::size_t{1});
    { Span span("map_task", "mapreduce"); }
    count("net.bytes", 9);
    append("admm.primal_residual_sq", 0.5);
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kSpanClose);
  EXPECT_EQ(std::string(events[0].label), "map_task");
  EXPECT_EQ(events[0].party, 1);
  EXPECT_EQ(events[1].kind, FlightEventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[1].value, 9.0);
  EXPECT_EQ(events[2].kind, FlightEventKind::kSeries);
}

TEST(FlightRecorder, CheckFailureHookDumpsTheRing) {
  Tracer tracer;
  MetricsRegistry registry;
  FlightRecorder recorder(32);
  const std::string path = "obs_test_check_dump.json";
  std::remove(path.c_str());
  recorder.arm_auto_dump(path);
  {
    Session session(&tracer, &registry, &recorder);
    recorder.record(FlightEventKind::kMark, "before_failure");
    EXPECT_THROW(PPML_CHECK(false, "synthetic check failure"), Error);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "check failure did not dump to the armed path";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("ppml_check_failure"), std::string::npos);
  // The full what() is longer than the fixed 80-char label; the dump keeps
  // the (truncated) head, which is enough to identify the check site.
  EXPECT_NE(text.find("PPML_CHECK failed"), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"check_failure\""), std::string::npos);
  EXPECT_NE(text.find("before_failure"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorder, TruncatesLongLabelsAndRejectsZeroCapacity) {
  EXPECT_THROW(FlightRecorder(0), Error);
  FlightRecorder recorder(4);
  const std::string longer(200, 'x');
  recorder.record(FlightEventKind::kMark, longer);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].label), std::string(79, 'x'));
}

}  // namespace
}  // namespace ppml::obs
