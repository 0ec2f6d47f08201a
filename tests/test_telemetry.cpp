// Telemetry layer: span nesting under the sim engine, histogram bucket
// semantics, concurrent counters from the thread pool (TSan-checked in
// CI), exporter golden outputs, the disabled-sink fast path, and the
// structured log sink.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "common/hot_guard.hpp"
#include "common/log.hpp"
#include "common/telemetry.hpp"
#include "flow/engine.hpp"
#include "net/link.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "storage/endpoint.hpp"
#include "transfer/transfer_service.hpp"

namespace alsflow::telemetry {
namespace {

// The instrumented stack reports into the process-global Telemetry;
// isolate each test by clearing it and restore the disabled default.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    global().clear();
    global().set_enabled(true);
  }
  void TearDown() override {
    global().set_enabled(false);
    global().clear();
  }
};

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, SpanNestingUnderSimEngine) {
  sim::Engine eng;
  Tracer& tracer = global().tracer();

  // Two overlapping coroutine activities, each with a child span; explicit
  // parents keep the tree correct even though execution interleaves.
  auto activity = [&](const char* name, Seconds child_delay) -> sim::Proc {
    SpanId outer = tracer.begin("flow", name, 0, ClockDomain::Sim, eng.now());
    co_await sim::delay(eng, 5.0);
    SpanId inner =
        tracer.begin("task", "work", outer, ClockDomain::Sim, eng.now());
    co_await sim::delay(eng, child_delay);
    tracer.end(inner, eng.now());
    tracer.end(outer, eng.now());
  };
  activity("a", 10.0).detach();
  activity("b", 2.0).detach();
  eng.run();

  auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  const SpanRecord* a = nullptr;
  const SpanRecord* b = nullptr;
  for (const auto& s : spans) {
    if (s.name == "a") a = &s;
    if (s.name == "b") b = &s;
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->parent, 0u);
  EXPECT_DOUBLE_EQ(a->start, 0.0);
  EXPECT_DOUBLE_EQ(a->end, 15.0);
  EXPECT_DOUBLE_EQ(b->end, 7.0);
  // Each child parents to its own activity's outer span.
  int children = 0;
  for (const auto& s : spans) {
    if (s.name != "work") continue;
    ++children;
    EXPECT_TRUE(s.parent == a->id || s.parent == b->id);
    const SpanRecord& parent = s.parent == a->id ? *a : *b;
    EXPECT_GE(s.start, parent.start);
    EXPECT_LE(s.end, parent.end);
    EXPECT_DOUBLE_EQ(s.start, 5.0);
  }
  EXPECT_EQ(children, 2);
}

TEST_F(TelemetryTest, FlowTaskTransferSpanTree) {
  sim::Engine eng;
  flow::RunDatabase db;
  flow::FlowEngine flows(eng, db);
  storage::StorageEndpoint src("src", storage::Tier::BeamlineLocal, TiB);
  storage::StorageEndpoint dst("dst", storage::Tier::Cfs, TiB);
  net::Link link(eng, "lnk", gbps(10), 0.0);
  transfer::TransferService svc(eng);
  svc.add_route("src", "dst", &link);
  ASSERT_TRUE(src.put("/f", GB, 1, 0.0).ok());

  flows.register_flow("f", [&](flow::FlowContext ctx) -> sim::Future<Status> {
    std::function<sim::Future<Status>()> body =
        [&svc, &src, &dst, &flows,
         run_id = ctx.run_id]() -> sim::Future<Status> {
      transfer::TransferSpec spec;
      spec.src = &src;
      spec.dst = &dst;
      spec.files = {{"/f", "/f"}};
      spec.label = "move";
      spec.trace_parent = flows.task_span(run_id);
      auto out = co_await svc.submit(std::move(spec));
      co_return out.status;
    };
    co_return co_await flows.run_task(ctx, "move_task", body);
  });
  auto fut = flows.run_flow("f");
  eng.run();
  ASSERT_TRUE(fut.value().status.ok());

  // flow -> task -> transfer, all in the sim domain.
  const auto spans = global().tracer().spans();
  const SpanRecord* flow_span = nullptr;
  const SpanRecord* task_span = nullptr;
  const SpanRecord* transfer_span = nullptr;
  for (const auto& s : spans) {
    if (s.component == "flow" && s.name == "f") flow_span = &s;
    if (s.component == "task") task_span = &s;
    if (s.component == "transfer") transfer_span = &s;
  }
  ASSERT_NE(flow_span, nullptr);
  ASSERT_NE(task_span, nullptr);
  ASSERT_NE(transfer_span, nullptr);
  EXPECT_EQ(task_span->parent, flow_span->id);
  EXPECT_EQ(transfer_span->parent, task_span->id);
  EXPECT_EQ(transfer_span->domain, ClockDomain::Sim);
  EXPECT_GE(transfer_span->start, task_span->start);
  EXPECT_LE(transfer_span->end, task_span->end);
  // The per-route byte counter matches the file that moved.
  EXPECT_EQ(global()
                .metrics()
                .counter("alsflow_transfer_bytes_total", "route=\"src->dst\"")
                .value(),
            GB);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, HistogramBucketBoundaries) {
  Histogram h({1.0, 5.0, 10.0});
  // Prometheus semantics: le is inclusive.
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (boundary)
  h.observe(1.001); // <= 5
  h.observe(5.0);   // <= 5 (boundary)
  h.observe(10.0);  // <= 10 (boundary)
  h.observe(11.0);  // +Inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 5.0 + 10.0 + 11.0);

  Summary s = h.summary();
  EXPECT_EQ(s.n, 6u);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 11.0);
  EXPECT_NEAR(s.mean, (0.5 + 1.0 + 1.001 + 5.0 + 10.0 + 11.0) / 6.0, 1e-9);
  // Quantiles are bucket-interpolated: just sanity-bound them.
  EXPECT_GE(s.median, 1.0);
  EXPECT_LE(s.median, 5.0);
  EXPECT_LE(s.p05, 1.0);
  EXPECT_GE(s.p95, 10.0);
}

TEST_F(TelemetryTest, HistogramUnsortedBoundsAreSorted) {
  Histogram h({10.0, 1.0, 5.0, 5.0});
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 10.0);
}

TEST_F(TelemetryTest, QuantileEmptyHistogramIsZero) {
  Histogram h({1.0, 5.0, 10.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST_F(TelemetryTest, QuantileSingleBucketInterpolatesLinearly) {
  // All samples land in the first bucket [0, 10]: the estimator
  // interpolates between min(0, observed min) and the bucket's upper
  // bound, so rank fraction maps linearly onto [0, 10] — then clamps to
  // the observed [2, 8], since no quantile lies past the largest sample.
  Histogram h({10.0});
  for (double v : {2.0, 4.0, 6.0, 8.0}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
}

TEST_F(TelemetryTest, QuantileOverflowBucketInterpolatesTowardMax) {
  // Three samples in the +Inf bucket: its upper edge is the exact observed
  // max, so the estimate never leaves the observed range.
  Histogram h({1.0});
  h.observe(0.5);
  h.observe(10.0);
  h.observe(20.0);
  h.observe(30.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
  // target = 0.625*4 = 2.5 ranks -> 1.5 ranks into the overflow bucket of
  // 3: lo=1 (last bound), hi=30 (max), frac=0.5.
  EXPECT_DOUBLE_EQ(h.quantile(0.625), 1.0 + (30.0 - 1.0) * 0.5);
  EXPECT_LE(h.quantile(0.99), 30.0);
}

TEST_F(TelemetryTest, QuantileClampsArgumentAndTracksNegativeMin) {
  Histogram h({1.0});
  h.observe(-3.0);
  h.observe(0.5);
  // q outside [0, 1] clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.quantile(-2.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
  // The first bucket's lower edge follows the observed (negative) min.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), -3.0);
}

TEST_F(TelemetryTest, NumericValuesFlattensEverySeries) {
  auto& m = global().metrics();
  m.counter("nv_jobs_total").add(3);
  m.gauge("nv_depth", "facility=\"nersc\"").set(2.5);
  Histogram& h = m.histogram("nv_wait_seconds", {1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  const auto values = m.numeric_values();
  auto find = [&](const std::string& name) -> const double* {
    for (const auto& [n, v] : values) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("nv_jobs_total"), nullptr);
  EXPECT_DOUBLE_EQ(*find("nv_jobs_total"), 3.0);
  ASSERT_NE(find("nv_depth{facility=\"nersc\"}"), nullptr);
  EXPECT_DOUBLE_EQ(*find("nv_depth{facility=\"nersc\"}"), 2.5);
  ASSERT_NE(find("nv_wait_seconds_count"), nullptr);
  EXPECT_DOUBLE_EQ(*find("nv_wait_seconds_count"), 2.0);
  ASSERT_NE(find("nv_wait_seconds_sum"), nullptr);
  EXPECT_DOUBLE_EQ(*find("nv_wait_seconds_sum"), 4.5);
}

TEST_F(TelemetryTest, ConcurrentCounterIncrementsFromThreadPool) {
  parallel::ThreadPool pool(4);
  Counter& c = global().metrics().counter("test_concurrent_total");
  Histogram& h =
      global().metrics().histogram("test_concurrent_hist", {0.25, 0.5, 0.75});
  constexpr std::size_t kN = 100000;
  pool.parallel_for(0, kN, [&](std::size_t i) {
    c.add();
    h.observe(double(i) / double(kN));
  });
  EXPECT_EQ(c.value(), kN);
  EXPECT_EQ(h.count(), kN);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= h.bounds().size(); ++b) {
    total += h.bucket_count(b);
  }
  EXPECT_EQ(total, kN);
  // Pool instrumentation itself counted the chunks it ran.
  auto& m = global().metrics();
  EXPECT_GE(m.counter("alsflow_pool_invocations_total").value(), 1u);
  EXPECT_GE(m.counter("alsflow_pool_chunks_total").value(), 1u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceGolden) {
  Tracer tracer;
  SpanId root = tracer.begin("flow", "f", 0, ClockDomain::Sim, 1.0);
  SpanId child = tracer.begin("task", "t", root, ClockDomain::Sim, 2.0);
  tracer.attr(child, "k", "v");
  tracer.end(child, 3.0);
  tracer.end(root, 4.0);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"sim-time\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"wall-time\"}},\n"
      "{\"name\":\"f\",\"cat\":\"flow\",\"ph\":\"X\",\"ts\":1000000,"
      "\"dur\":3000000,\"pid\":0,\"tid\":1,"
      "\"args\":{\"span_id\":\"1\",\"parent\":\"0\"}},\n"
      "{\"name\":\"t\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":2000000,"
      "\"dur\":1000000,\"pid\":0,\"tid\":1,"
      "\"args\":{\"span_id\":\"2\",\"parent\":\"1\",\"k\":\"v\"}}\n"
      "]}\n";
  EXPECT_EQ(tracer.chrome_trace_json(), expected);
}

TEST_F(TelemetryTest, PrometheusAndJsonGolden) {
  MetricsRegistry reg;
  reg.counter("alsflow_widgets_total", "kind=\"a\"").add(3);
  reg.gauge("alsflow_depth").set(2.5);
  auto& h = reg.histogram("alsflow_lat_seconds", {1.0, 10.0});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(40.0);

  const std::string prom =
      "# TYPE alsflow_widgets_total counter\n"
      "alsflow_widgets_total{kind=\"a\"} 3\n"
      "# TYPE alsflow_depth gauge\n"
      "alsflow_depth 2.5\n"
      "# TYPE alsflow_lat_seconds histogram\n"
      "alsflow_lat_seconds_bucket{le=\"1\"} 1\n"
      "alsflow_lat_seconds_bucket{le=\"10\"} 2\n"
      "alsflow_lat_seconds_bucket{le=\"+Inf\"} 3\n"
      "alsflow_lat_seconds_sum 44.5\n"
      "alsflow_lat_seconds_count 3\n";
  EXPECT_EQ(reg.prometheus_text(), prom);

  const std::string json =
      "{\n"
      "  \"counters\": {\n"
      "    \"alsflow_widgets_total{kind=\\\"a\\\"}\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"alsflow_depth\": 2.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"alsflow_lat_seconds\": {\"count\": 3, \"sum\": 44.5, "
      "\"buckets\": [1, 1, 1], \"bounds\": [1, 10]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(reg.json(), json);

  // report() renders one row per instrument; histogram rows reuse
  // Summary::row.
  const std::string report = reg.report();
  EXPECT_NE(report.find("alsflow_widgets_total{kind=\"a\"}"),
            std::string::npos);
  EXPECT_NE(report.find("+/-"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disabled fast path
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, DisabledSinkRecordsNothing) {
  global().set_enabled(false);

  // Drive the instrumented stack: flow + task + transfer + pool.
  sim::Engine eng;
  flow::RunDatabase db;
  flow::FlowEngine flows(eng, db);
  flows.register_flow("f", [&](flow::FlowContext ctx) -> sim::Future<Status> {
    std::function<sim::Future<Status>()> body = [&]() -> sim::Future<Status> {
      co_await sim::delay(eng, 1.0);
      co_return Status::success();
    };
    co_return co_await flows.run_task(ctx, "t", body);
  });
  auto fut = flows.run_flow("f");
  eng.run();
  ASSERT_TRUE(fut.value().status.ok());

  parallel::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 1000, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2u);

  EXPECT_EQ(global().tracer().span_count(), 0u);
  // Instruments registered by other tests persist in the global registry
  // (clear() zeroes, never removes), so assert the instrumented sites left
  // every relevant value at zero rather than expecting an empty export.
  auto& m = global().metrics();
  EXPECT_EQ(m.counter("alsflow_flow_runs_started_total", "flow=\"f\"").value(),
            0u);
  EXPECT_EQ(m.counter("alsflow_pool_invocations_total").value(), 0u);
  EXPECT_EQ(m.counter("alsflow_pool_chunks_total").value(), 0u);
  EXPECT_EQ(flows.task_span(fut.value().run_id), 0u);
}

class RecordingSink final : public EventSink {
 public:
  void on_event(const MonitorEvent& ev) override { events.push_back(ev); }
  std::vector<MonitorEvent> events;
};

// With tracing off and no sink, every instrumentation form is one check
// that allocates nothing, even with arguments too long for the small-string
// buffer; the Status form turns a failure into ok == false with its error
// code as the detail.
TEST(Telemetry, HelpersCostNothingWhenOff) {
  Telemetry tel;  // tracing off, no sink
  // 40 characters, past the small-string buffer: any copy would allocate.
  const char* const target = "als-data->nersc-cfs:raw_to_cfs:scan-0001";
  ASSERT_EQ(std::string(target).size(), 40u);
  const Status failed = Error::make("permission_denied", "read-only mount");
  const std::uint64_t before = hotguard::allocations();
  for (int i = 0; i < 1000; ++i) {
    tel.emit(double(i), "transfer", "file_attempt", target, 0.0, false,
             target);
    tel.emit(double(i), "transfer", "endpoint_write", target, 0.0, failed);
    const SpanId span = tel.begin("transfer", target, 0, double(i));
    tel.attr(span, "route", target);
    tel.attr(span, "bytes_moved", std::uint64_t(i));
    tel.attr(span, "latency_s", 0.5);
    tel.end(span, double(i));
  }
  EXPECT_EQ(hotguard::allocations(), before);
  EXPECT_EQ(tel.tracer().span_count(), 0u);

  RecordingSink sink;
  tel.set_event_sink(&sink);
  tel.emit(1.0, "transfer", "endpoint_write", target, 0.0, failed);
  tel.emit(2.0, "transfer", "endpoint_write", target, 1.0, Status::success());
  tel.set_event_sink(nullptr);
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_FALSE(sink.events[0].ok);
  EXPECT_EQ(sink.events[0].detail, "permission_denied");
  EXPECT_EQ(sink.events[0].target, target);
  EXPECT_TRUE(sink.events[1].ok);
  EXPECT_EQ(sink.events[1].detail, "");
}

TEST_F(TelemetryTest, RegistryClearKeepsReferencesValid) {
  Counter& c = global().metrics().counter("stable_total");
  c.add(7);
  global().metrics().clear();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // reference still valid after clear()
  EXPECT_EQ(global().metrics().counter("stable_total").value(), 1u);
}

}  // namespace
}  // namespace alsflow::telemetry

// ---------------------------------------------------------------------------
// Structured logging through the shared sink
// ---------------------------------------------------------------------------

namespace alsflow {
namespace {

struct LogCapture {
  std::vector<LogRecord> records;
  LogCapture() {
    set_log_sink([this](const LogRecord& r) { records.push_back(r); });
  }
  ~LogCapture() { set_log_sink(nullptr); }
};

TEST(Log, SinkCapturesStructuredRecords) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Info);
  LogCapture capture;
  log_info("globus") << "moved " << 3 << " files";
  log_debug("globus") << "suppressed";
  set_log_level(saved);

  ASSERT_EQ(capture.records.size(), 1u);
  const LogRecord& rec = capture.records.front();
  EXPECT_EQ(rec.level, LogLevel::Info);
  EXPECT_EQ(rec.component, "globus");
  EXPECT_EQ(rec.message, "moved 3 files");
  EXPECT_GE(rec.wall_time, 0.0);
  const std::string line = format_log_line(rec);
  EXPECT_NE(line.find("INFO"), std::string::npos);
  EXPECT_NE(line.find("globus"), std::string::npos);
  EXPECT_NE(line.find("moved 3 files"), std::string::npos);
}

// An operand whose stream-insertion is observable: a disabled LogStream
// must never invoke it (formatting is the cost being skipped).
struct CountingOperand {
  int* streamed;
};
std::ostream& operator<<(std::ostream& os, const CountingOperand& c) {
  ++*c.streamed;
  return os << "expensive";
}

TEST(Log, DisabledLevelSkipsFormatting) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Warn);
  LogCapture capture;
  int streamed = 0;
  log_debug("test") << CountingOperand{&streamed};
  EXPECT_EQ(streamed, 0);  // below the level: operand never formatted
  EXPECT_TRUE(capture.records.empty());
  log_warn("test") << CountingOperand{&streamed};
  EXPECT_EQ(streamed, 1);
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records.front().message, "expensive");
  set_log_level(saved);
}

TEST(Log, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level(nullptr, LogLevel::Info), LogLevel::Info);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::Error), LogLevel::Error);
}

}  // namespace
}  // namespace alsflow
