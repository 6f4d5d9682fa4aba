// Observability layer tests (S40):
//   * registry semantics — idempotent registration, multi-thread counter
//     sums, gauge last-write, histogram count/sum/min/max and bucketed
//     percentiles, capacity ceilings, inert default handles;
//   * trace spans — nesting depth, ring-buffer retention, monotone seq;
//   * the JSON-line schema — exact field names/order per metric type; this
//     is the contract tools/check_metrics_schema.py enforces in CI, so a
//     field rename must fail here first;
//   * concurrency (run under TSan in CI) — a scraper thread hammers
//     scrape() while the streaming pipeline runs with the registry
//     installed end to end; at quiescence the registry totals must equal
//     the post-hoc EngineStats/StreamingStats exactly.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/align/parallel_aligner.h"
#include "src/align/sharded_engine.h"
#include "src/align/streaming_pipeline.h"
#include "src/genome/synthetic_genome.h"
#include "src/obs/reporter.h"
#include "src/obs/request_trace.h"
#include "src/obs/trace.h"
#include "src/readsim/read_simulator.h"

namespace pim::obs {
namespace {

TEST(Metrics, RegistrationIsIdempotentAndCounted) {
  MetricsRegistry registry;
  Counter a = registry.counter("x.count");
  Counter b = registry.counter("x.count");  // same slot
  registry.gauge("x.gauge");
  registry.histogram("x.hist");
  EXPECT_EQ(registry.num_metrics(), 3u);

  a.add(2);
  b.add(3);
  const auto snap = registry.scrape();
  EXPECT_EQ(snap.counter_value("x.count"), 5u);
  EXPECT_EQ(snap.counters.size(), 1u);
}

TEST(Metrics, CountersSumAcrossThreads) {
  MetricsRegistry registry;
  Counter counter = registry.counter("t.count");
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) counter.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.scrape().counter_value("t.count"),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, GaugeLastWriteWinsAndReadsBack) {
  MetricsRegistry registry;
  Gauge gauge = registry.gauge("g");
  gauge.set(1.5);
  gauge.set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.25);
  EXPECT_DOUBLE_EQ(registry.scrape().gauge_value("g"), -2.25);
}

TEST(Metrics, HistogramTracksExactMomentsAndBoundedPercentiles) {
  MetricsRegistry registry;
  Histogram hist = registry.histogram("h");
  const std::vector<double> values = {0.5, 1.0, 2.0, 4.0, 100.0};
  double sum = 0.0;
  for (const double v : values) {
    hist.observe(v);
    sum += v;
  }
  const auto snap = registry.scrape();
  const HistogramSample* sample = snap.histogram("h");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, values.size());
  EXPECT_DOUBLE_EQ(sample->sum, sum);
  EXPECT_DOUBLE_EQ(sample->min, 0.5);
  EXPECT_DOUBLE_EQ(sample->max, 100.0);
  EXPECT_DOUBLE_EQ(sample->mean(), sum / values.size());
  // Log-bucketed percentiles: monotone and clamped to the observed range.
  EXPECT_GE(sample->p50, sample->min);
  EXPECT_LE(sample->p50, sample->p90);
  EXPECT_LE(sample->p90, sample->p95);
  EXPECT_LE(sample->p95, sample->p99);
  EXPECT_LE(sample->p99, sample->max);
}

TEST(Metrics, SnapshotPercentileIsQueryableAtAnyQuantile) {
  MetricsRegistry registry;
  Histogram hist = registry.histogram("h");
  // 100 observations in [1, 100]: log-bucketed quantiles are accurate to
  // ~2x within a bucket, so assert shape, bounds, and consistency with the
  // precomputed fields rather than exact values.
  for (int i = 1; i <= 100; ++i) hist.observe(static_cast<double>(i));
  const MetricsSnapshot snap = registry.scrape();
  const HistogramSample* s = snap.histogram("h");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->buckets.size(), MetricsRegistry::kNumBuckets);
  EXPECT_DOUBLE_EQ(s->percentile(0.50), s->p50);
  EXPECT_DOUBLE_EQ(s->percentile(0.90), s->p90);
  EXPECT_DOUBLE_EQ(s->percentile(0.95), s->p95);
  EXPECT_DOUBLE_EQ(s->percentile(0.99), s->p99);
  // Monotone in q, clamped to [min, max] at the extremes (and beyond).
  double prev = s->min;
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double v = s->percentile(q);
    EXPECT_GE(v, prev);
    EXPECT_LE(v, s->max);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s->percentile(-1.0), s->percentile(0.0));
  EXPECT_DOUBLE_EQ(s->percentile(2.0), s->percentile(1.0));
  // p95 lands in the right log bucket: between the true p90 and max here.
  EXPECT_GE(s->p95, 50.0);

  // Empty histogram: percentile is 0 at every quantile.
  registry.histogram("empty");
  const MetricsSnapshot snap2 = registry.scrape();
  const HistogramSample* e = snap2.histogram("empty");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->percentile(0.5), 0.0);
}

TEST(Metrics, InertHandlesAreSafeNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram hist;
  counter.add(7);
  gauge.set(3.0);
  hist.observe(1.0);
  EXPECT_FALSE(counter.installed());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(Metrics, CapacityCeilingThrows) {
  MetricsRegistry registry;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxGauges; ++i) {
    registry.gauge("g." + std::to_string(i));
  }
  EXPECT_THROW(registry.gauge("g.overflow"), std::length_error);
  // Existing names still resolve after the ceiling is hit.
  registry.gauge("g.0").set(1.0);
  EXPECT_DOUBLE_EQ(registry.scrape().gauge_value("g.0"), 1.0);
}

TEST(Trace, SpansNestAndRetainNewestEvents) {
  TraceLog log(4);
  {
    TraceSpan outer(&log, "outer");
    TraceSpan inner(&log, "inner");
  }
  auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes (and records) first, one level deeper.
  EXPECT_EQ(events[0].label_view(), "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].label_view(), "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_LT(events[0].seq, events[1].seq);

  // Ring retention: capacity 4 keeps the newest 4 of 6, oldest first.
  for (int i = 0; i < 4; ++i) {
    TraceSpan span(&log, "s" + std::to_string(i));
  }
  events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].label_view(), "s0");
  EXPECT_EQ(events[3].label_view(), "s3");
  EXPECT_EQ(log.total_recorded(), 6u);
}

// Regression (S45): a 40-char label used to be silently clipped to its
// first kLabelCap characters, aliasing any label that shares that prefix.
// Truncation is now marked with a trailing '~'.
TEST(Trace, OverLongLabelsAreMarkedTruncated) {
  TraceLog log(4);
  const std::string long_label(40, 'a');
  const std::string at_cap_label(TraceEvent::kLabelCap, 'a');
  log.record(long_label, 0.0, 1.0, 0);
  log.record(at_cap_label, 0.0, 1.0, 0);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].label_view().size(), TraceEvent::kLabelCap);
  EXPECT_EQ(events[0].label_view().back(), '~');
  // The truncated label must remain observably distinct from a real label
  // that is exactly the clipped prefix.
  EXPECT_NE(events[0].label_view(), events[1].label_view());
  EXPECT_EQ(events[1].label_view(), at_cap_label);
}

// Ring overflow is observable (S45): dropped() reports overwritten events,
// install_metrics exports them as obs.trace.dropped (crediting overflow
// that predates the registry), and the human table warns when nonzero.
TEST(Trace, RingOverflowIsCountedAndExported) {
  MetricsRegistry registry;
  TraceLog log(4);
  for (int i = 0; i < 6; ++i) log.record("s", 0.0, 1.0, 0);
  EXPECT_EQ(log.total_recorded(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
  log.install_metrics(registry);  // overflow so far credited immediately
  EXPECT_EQ(registry.scrape().counter_value("obs.trace.dropped"), 2u);
  log.record("s", 0.0, 1.0, 0);
  EXPECT_EQ(log.dropped(), 3u);
  const auto snap = registry.scrape();
  EXPECT_EQ(snap.counter_value("obs.trace.dropped"), 3u);
  EXPECT_NE(render_table(snap).find("trace events dropped"),
            std::string::npos);

  // No overflow, no warning.
  MetricsRegistry clean;
  TraceLog small(4);
  small.install_metrics(clean);
  small.record("s", 0.0, 1.0, 0);
  EXPECT_EQ(small.dropped(), 0u);
  EXPECT_EQ(render_table(clean.scrape()).find("trace events dropped"),
            std::string::npos);
}

// The serialized schema IS the interface downstream tooling scripts parse.
// Renaming a field must break this test (and tools/check_metrics_schema.py)
// in the same PR that updates the consumers.
TEST(Reporter, JsonLineSchemaIsStable) {
  MetricsRegistry registry;
  registry.counter("c").add(42);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(2.0);

  std::ostringstream out;
  write_json_lines(registry.scrape(), out);
  std::istringstream lines(out.str());
  std::string counter_line, gauge_line, hist_line;
  ASSERT_TRUE(std::getline(lines, counter_line));
  ASSERT_TRUE(std::getline(lines, gauge_line));
  ASSERT_TRUE(std::getline(lines, hist_line));

  EXPECT_EQ(counter_line, R"({"metric":"c","type":"counter","value":42})");
  EXPECT_EQ(gauge_line, R"({"metric":"g","type":"gauge","value":1.5})");
  EXPECT_EQ(hist_line,
            R"({"metric":"h","type":"histogram","count":1,"sum":2,"min":2,)"
            R"("max":2,"mean":2,"p50":2,"p90":2,"p95":2,"p99":2})");

  TraceLog log(4);
  log.record("stage", 10.0, 2.5, 1);
  std::ostringstream trace_out;
  write_json_lines(log.snapshot(), trace_out);
  const std::string trace_line = trace_out.str();
  EXPECT_NE(trace_line.find(R"("trace":"stage")"), std::string::npos);
  EXPECT_NE(trace_line.find(R"("seq":0)"), std::string::npos);
  EXPECT_NE(trace_line.find(R"("depth":1)"), std::string::npos);
  EXPECT_NE(trace_line.find(R"("start_ms":10)"), std::string::npos);
  EXPECT_NE(trace_line.find(R"("duration_ms":2.5)"), std::string::npos);
}

// User-supplied strings (shard names, trace labels) must not be able to
// corrupt the JSON-line stream: quotes and backslashes are escaped, control
// characters become \u00XX (the old code dropped them, silently merging
// distinct names), and non-finite numbers — which have no JSON literal —
// come out as null so they stay distinguishable from a real zero (the old
// code mapped them to 0).
TEST(Reporter, JsonLinesEscapeNamesAndValues) {
  EXPECT_EQ(json_escape(R"(shard "A"\1)"), R"(shard \"A\"\\1)");
  EXPECT_EQ(json_escape("a\nb\tc\x01"), "a\\nb\\tc\\u0001");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");

  MetricsRegistry registry;
  registry.counter("sh\"ard\\1.reads").add(1);
  registry.gauge("g").set(std::numeric_limits<double>::infinity());
  std::ostringstream out;
  write_json_lines(registry.scrape(), out);
  std::istringstream lines(out.str());
  std::string counter_line, gauge_line;
  ASSERT_TRUE(std::getline(lines, counter_line));
  ASSERT_TRUE(std::getline(lines, gauge_line));
  EXPECT_EQ(counter_line,
            R"({"metric":"sh\"ard\\1.reads","type":"counter","value":1})");
  EXPECT_EQ(gauge_line, R"({"metric":"g","type":"gauge","value":null})");

  TraceLog log(2);
  log.record("la\"bel", 1.0, 2.0, 0);
  std::ostringstream trace_out;
  write_json_lines(log.snapshot(), trace_out);
  EXPECT_NE(trace_out.str().find(R"("trace":"la\"bel")"), std::string::npos);
}

// The request line type (S45) is part of the stable schema: field renames
// must break this test and tools/check_metrics_schema.py in the same PR.
// Phases the request never reached serialize as null, not 0.
TEST(Reporter, RequestJsonLineSchemaIsStable) {
  RequestTrace t;
  t.id = 7;
  t.priority = 1;  // batch class
  t.reads = 4;
  t.batch_seq = 2;
  t.batch_requests = 3;
  t.batch_reads = 12;
  t.stall_ms = 0.5;
  t.deadline_ms = 10.0;
  t.mark(RequestPhase::kSubmit, 1.0);
  t.mark(RequestPhase::kAdmit, 1.5);
  t.mark(RequestPhase::kDequeue, 2.0);
  t.mark(RequestPhase::kBatchSeal, 2.25);
  t.mark(RequestPhase::kDispatch, 2.5);
  t.mark(RequestPhase::kFirstChunk, 3.0);
  t.mark(RequestPhase::kComplete, 3.5);

  std::ostringstream out;
  write_json_lines(std::vector<RequestTrace>{t}, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(
      line,
      R"({"request":7,"status":"complete","priority":"batch","reads":4,)"
      R"("batch_seq":2,"batch_requests":3,"batch_reads":12,"stall_ms":0.5,)"
      R"("deadline_margin_ms":6.5,"recv_ms":null,"submit_ms":1,"admit_ms":1.5,)"
      R"("dequeue_ms":2,"batch_seal_ms":2.25,"dispatch_ms":2.5,)"
      R"("first_chunk_ms":3,"complete_ms":3.5,"reject_ms":null,)"
      R"("expire_ms":null,"shutdown_ms":null,"total_ms":2.5})");

  // A rejected request: unreached phases (including the deadline margin
  // when no deadline was set) are null.
  RequestTrace r;
  r.id = 8;
  r.reads = 1;
  r.mark(RequestPhase::kSubmit, 4.0);
  r.mark(RequestPhase::kReject, 4.0);
  std::ostringstream out2;
  write_json_lines(std::vector<RequestTrace>{r}, out2);
  std::istringstream lines2(out2.str());
  ASSERT_TRUE(std::getline(lines2, line));
  EXPECT_NE(line.find(R"("status":"reject")"), std::string::npos);
  EXPECT_NE(line.find(R"("priority":"interactive")"), std::string::npos);
  EXPECT_NE(line.find(R"("deadline_margin_ms":null)"), std::string::npos);
  EXPECT_NE(line.find(R"("admit_ms":null)"), std::string::npos);
  EXPECT_NE(line.find(R"("reject_ms":4)"), std::string::npos);
  EXPECT_NE(line.find(R"("total_ms":0)"), std::string::npos);
}

// breakdown_of must telescope exactly — the six segments sum to the
// submit->terminal total no matter which tail the request took, with the
// dying segment absorbing the remainder for early terminals.
TEST(RequestTraceTest, BreakdownTelescopesForEveryTerminal) {
  // Full completion chain.
  RequestTrace ok;
  ok.id = 1;
  ok.mark(RequestPhase::kSubmit, 0.0);
  ok.mark(RequestPhase::kAdmit, 1.0);
  ok.mark(RequestPhase::kDequeue, 3.0);
  ok.mark(RequestPhase::kBatchSeal, 3.5);
  ok.mark(RequestPhase::kDispatch, 4.0);
  ok.mark(RequestPhase::kFirstChunk, 9.0);
  ok.mark(RequestPhase::kComplete, 10.0);
  LatencyBreakdown b = breakdown_of(ok);
  EXPECT_DOUBLE_EQ(b.admit_ms, 1.0);
  EXPECT_DOUBLE_EQ(b.queue_ms, 2.0);
  EXPECT_DOUBLE_EQ(b.seal_ms, 0.5);
  EXPECT_DOUBLE_EQ(b.dispatch_ms, 0.5);
  EXPECT_DOUBLE_EQ(b.compute_ms, 5.0);
  EXPECT_DOUBLE_EQ(b.drain_ms, 1.0);
  EXPECT_DOUBLE_EQ(b.total_ms, 10.0);
  EXPECT_DOUBLE_EQ(b.sum(), b.total_ms);
  EXPECT_EQ(ok.terminal(), RequestPhase::kComplete);
  EXPECT_DOUBLE_EQ(ok.total_ms(), 10.0);

  // Rejected at admission: everything lands in admit_ms.
  RequestTrace rej;
  rej.id = 2;
  rej.mark(RequestPhase::kSubmit, 1.0);
  rej.mark(RequestPhase::kReject, 1.25);
  b = breakdown_of(rej);
  EXPECT_DOUBLE_EQ(b.admit_ms, 0.25);
  EXPECT_DOUBLE_EQ(b.total_ms, 0.25);
  EXPECT_DOUBLE_EQ(b.sum(), b.total_ms);

  // Expired after dequeue: the remainder charges to seal_ms (it died while
  // the batch was being sealed).
  RequestTrace exp;
  exp.id = 3;
  exp.mark(RequestPhase::kSubmit, 0.0);
  exp.mark(RequestPhase::kAdmit, 0.5);
  exp.mark(RequestPhase::kDequeue, 5.0);
  exp.mark(RequestPhase::kExpire, 5.25);
  exp.deadline_ms = 4.0;
  b = breakdown_of(exp);
  EXPECT_DOUBLE_EQ(b.admit_ms, 0.5);
  EXPECT_DOUBLE_EQ(b.queue_ms, 4.5);
  EXPECT_DOUBLE_EQ(b.seal_ms, 0.25);
  EXPECT_DOUBLE_EQ(b.sum(), b.total_ms);
  EXPECT_DOUBLE_EQ(exp.deadline_margin_ms(), 4.0 - 5.25);

  // Aborted while queued: the remainder charges to queue_ms.
  RequestTrace abort;
  abort.id = 4;
  abort.mark(RequestPhase::kSubmit, 0.0);
  abort.mark(RequestPhase::kAdmit, 1.0);
  abort.mark(RequestPhase::kShutdown, 7.0);
  b = breakdown_of(abort);
  EXPECT_DOUBLE_EQ(b.admit_ms, 1.0);
  EXPECT_DOUBLE_EQ(b.queue_ms, 6.0);
  EXPECT_DOUBLE_EQ(b.sum(), b.total_ms);

  // In flight (no terminal): nothing to attribute yet.
  RequestTrace open;
  open.id = 5;
  open.mark(RequestPhase::kSubmit, 0.0);
  open.mark(RequestPhase::kAdmit, 1.0);
  b = breakdown_of(open);
  EXPECT_DOUBLE_EQ(b.total_ms, 0.0);
  EXPECT_DOUBLE_EQ(b.sum(), 0.0);
}

TEST(RequestTraceTest, TracerFeedsHistogramsMarginsAndExemplars) {
  MetricsRegistry registry;
  RequestTracer tracer({.registry = &registry, .max_exemplars = 2});
  EXPECT_EQ(tracer.begin_request(), 1u);
  EXPECT_EQ(tracer.begin_request(), 2u);

  // Four completions with totals 1, 3, 2, 4 ms; only the top-2 survive in
  // the exemplar buffer, slowest first.
  const double totals[] = {1.0, 3.0, 2.0, 4.0};
  for (std::size_t i = 0; i < 4; ++i) {
    RequestTrace t;
    t.id = 10 + i;
    t.deadline_ms = 100.0;
    t.mark(RequestPhase::kSubmit, 0.0);
    t.mark(RequestPhase::kAdmit, 0.0);
    t.mark(RequestPhase::kDequeue, 0.0);
    t.mark(RequestPhase::kBatchSeal, 0.0);
    t.mark(RequestPhase::kDispatch, 0.0);
    t.mark(RequestPhase::kFirstChunk, totals[i]);
    t.mark(RequestPhase::kComplete, totals[i]);
    tracer.record(t);
  }
  // A rejected request feeds admit/total but not the exemplars (they hold
  // only completed requests).
  RequestTrace rej;
  rej.id = 99;
  rej.priority = 1;
  rej.deadline_ms = 0.5;
  rej.mark(RequestPhase::kSubmit, 0.0);
  rej.mark(RequestPhase::kReject, 1.0);
  tracer.record(rej);

  EXPECT_EQ(tracer.recorded(), 5u);
  const auto slowest = tracer.slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_DOUBLE_EQ(slowest[0].total_ms(), 4.0);
  EXPECT_DOUBLE_EQ(slowest[1].total_ms(), 3.0);
  EXPECT_EQ(slowest[0].id, 13u);

  const auto snap = registry.scrape();
  const HistogramSample* total = snap.histogram("serve.phase.total_ms");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 5u);
  const HistogramSample* compute = snap.histogram("serve.phase.compute_ms");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->count, 4u);  // the reject never entered compute
  EXPECT_DOUBLE_EQ(compute->sum, 1.0 + 3.0 + 2.0 + 4.0);
  const HistogramSample* interactive =
      snap.histogram("serve.deadline_margin_ms.interactive");
  ASSERT_NE(interactive, nullptr);
  EXPECT_EQ(interactive->count, 4u);
  const HistogramSample* batch =
      snap.histogram("serve.deadline_margin_ms.batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->count, 1u);  // the reject, margin 0.5 - 1.0 < 0
  EXPECT_DOUBLE_EQ(batch->sum, -0.5);
}

TEST(Reporter, TableRendersEveryMetric) {
  MetricsRegistry registry;
  registry.counter("my.counter").add(1);
  registry.gauge("my.gauge").set(2.0);
  registry.histogram("my.hist").observe(3.0);
  const std::string table = render_table(registry.scrape());
  EXPECT_NE(table.find("my.counter"), std::string::npos);
  EXPECT_NE(table.find("my.gauge"), std::string::npos);
  EXPECT_NE(table.find("my.hist"), std::string::npos);
}

TEST(Reporter, PeriodicReporterEmitsAndStops) {
  MetricsRegistry registry;
  Counter counter = registry.counter("p.count");
  std::ostringstream out;
  {
    PeriodicReporter reporter(registry, out, /*interval_ms=*/5);
    counter.add(3);
    reporter.stop();
    EXPECT_GE(reporter.ticks(), 1u);  // at least the final scrape
  }
  EXPECT_NE(out.str().find(R"("metric":"p.count")"), std::string::npos);
  EXPECT_NE(out.str().find(R"("metric":"obs.ticks")"), std::string::npos);
}

// stop() must emit one final scrape even when the interval never elapsed,
// and that scrape must carry the values current AT stop — a short run's
// metrics cannot be lost to a long interval.
TEST(Reporter, PeriodicReporterEmitsFinalSnapshotOnStop) {
  MetricsRegistry registry;
  Counter counter = registry.counter("final.count");
  std::ostringstream out;
  PeriodicReporter reporter(registry, out, /*interval_ms=*/60000);
  counter.add(3);
  reporter.stop();
  EXPECT_GE(reporter.ticks(), 1u);
  EXPECT_NE(out.str().find(R"({"metric":"final.count","type":"counter","value":3})"),
            std::string::npos);
  // stop() is idempotent: no extra emission, no hang.
  const std::uint64_t ticks = reporter.ticks();
  reporter.stop();
  EXPECT_EQ(reporter.ticks(), ticks);
}

// The emitter must tolerate scheduler jitter: over a window many intervals
// long it ticks at least a few times (progress) and never more than the
// interval arithmetic allows (no spin). Bounds are deliberately loose —
// CI machines stall — but they exclude both failure modes.
TEST(Reporter, PeriodicReporterTicksWithinJitterTolerance) {
  MetricsRegistry registry;
  std::ostringstream out;
  const auto t0 = std::chrono::steady_clock::now();
  PeriodicReporter reporter(registry, out, /*interval_ms=*/5);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  reporter.stop();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // >= 2: at least one periodic tick plus the final scrape despite jitter.
  EXPECT_GE(reporter.ticks(), 2u);
  // No spinning: ticks cannot exceed elapsed/interval (+1 final, +1 race).
  EXPECT_LE(reporter.ticks(),
            static_cast<std::uint64_t>(elapsed_ms / 5.0) + 2);
}

/// A streambuf whose writes stall, holding an emit() in flight while the
/// reporter is destroyed — destruction must block on the final join, not
/// deadlock against it (run under TSan in CI).
class SlowStreambuf : public std::streambuf {
 public:
  std::atomic<std::uint64_t> writes{0};

 protected:
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    writes.fetch_add(1, std::memory_order_relaxed);
    return n;
  }
  int overflow(int ch) override {
    writes.fetch_add(1, std::memory_order_relaxed);
    return ch;
  }
};

TEST(Reporter, PeriodicReporterDestructionDuringScrapeDoesNotDeadlock) {
  SlowStreambuf buf;
  std::ostream out(&buf);
  MetricsRegistry registry;
  registry.counter("slow.count").add(1);
  {
    PeriodicReporter reporter(registry, out, /*interval_ms=*/1);
    // Let a few slow emissions get in flight, then destroy mid-write.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(buf.writes.load(), 0u);
}

// --- Concurrency: live scrape vs post-hoc EngineStats ----------------------

struct StreamFixture {
  genome::PackedSequence reference;
  index::FmIndex fm;
  std::string fastq_text;
  align::AlignerOptions options;

  StreamFixture() {
    genome::SyntheticGenomeSpec gspec;
    gspec.length = 50000;
    gspec.seed = 11;
    reference = genome::generate_reference(gspec);
    fm = index::FmIndex::build(reference, {.bucket_width = 64});

    readsim::ReadSimSpec rspec;
    rspec.read_length = 64;
    rspec.num_reads = 400;
    rspec.sequencing_error_rate = 0.01;
    rspec.seed = 31;
    const auto records =
        readsim::to_fastq(readsim::ReadSimulator(rspec).generate(reference));
    std::ostringstream fq;
    genome::write_fastq(fq, records);
    fastq_text = fq.str();
    options.inexact.max_diffs = 2;
  }
};

TEST(ObsConcurrency, ScrapeDuringStreamingMatchesPostHocStats) {
  StreamFixture f;
  const align::SoftwareEngine engine(f.fm, f.options);

  MetricsRegistry registry;
  TraceLog trace(512);
  align::StreamingOptions sopts;
  sopts.batch_reads = 64;  // several generations
  sopts.parallel.num_threads = 2;
  sopts.parallel.chunk_size = 16;
  sopts.metrics = &registry;
  sopts.trace = &trace;

  // Scraper thread: concurrent scrape() must be safe against every
  // instrumented writer (producer, consumer, scheduler workers) and only
  // ever observe monotone counter values.
  std::atomic<bool> stop{false};
  std::uint64_t last_reads = 0;
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = registry.scrape();
      const std::uint64_t reads = snap.counter_value("stream.reads");
      EXPECT_GE(reads, last_reads);  // counters are monotone mid-run
      last_reads = reads;
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::istringstream in(f.fastq_text);
  genome::FastqStreamReader reader(in);
  std::size_t sink_reads = 0;
  const align::StreamingStats stats =
      align::StreamingPipeline(engine, sopts)
          .run(reader, [&](const align::BatchResultChunk& chunk) {
            sink_reads += chunk.end - chunk.begin;
          });
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  // Quiescent totals are exact: the registry and the post-hoc stats are two
  // views of the same execution.
  const auto snap = registry.scrape();
  EXPECT_EQ(snap.counter_value("stream.reads"), stats.reads);
  EXPECT_EQ(snap.counter_value("stream.batches"), stats.batches);
  EXPECT_EQ(snap.counter_value("stream.chunks"), stats.chunks);
  EXPECT_EQ(stats.engine.reads_total, stats.reads);
  EXPECT_EQ(sink_reads, stats.reads);
  EXPECT_EQ(snap.counter_value("sched.chunks"), stats.engine.chunks);

  const HistogramSample* align_ms = snap.histogram("stream.consumer_align_ms");
  ASSERT_NE(align_ms, nullptr);
  EXPECT_EQ(align_ms->count, stats.batches);
  const HistogramSample* fill_ms = snap.histogram("stream.producer_fill_ms");
  ASSERT_NE(fill_ms, nullptr);
  EXPECT_EQ(fill_ms->count, stats.batches);
  const HistogramSample* latency = snap.histogram("stream.chunk_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, stats.chunks);

  // Both stage spans landed for every generation.
  std::uint64_t fills = 0, aligns = 0;
  for (const auto& event : trace.snapshot()) {
    if (event.label_view() == "stream.fill") ++fills;
    if (event.label_view() == "stream.align") ++aligns;
  }
  EXPECT_EQ(fills, stats.batches);
  EXPECT_EQ(aligns, stats.batches);
}

TEST(ObsConcurrency, ShardedSeriesMatchShardStats) {
  StreamFixture f;
  MetricsRegistry registry;
  std::vector<std::unique_ptr<align::AlignmentEngine>> shards;
  for (int s = 0; s < 3; ++s) {
    shards.push_back(
        std::make_unique<align::SoftwareEngine>(f.fm, f.options));
  }
  const align::ShardedEngine engine(std::move(shards), &registry);

  std::istringstream in(f.fastq_text);
  const auto records = genome::read_fastq(in);
  const align::ReadBatch batch = align::ReadBatch::from_fastq(records);
  align::BatchResult out;
  engine.align_batch(batch, out);

  // The published series and the programmatic shard_stats() are the same
  // measurement.
  const auto snap = registry.scrape();
  for (const auto& s : engine.shard_stats()) {
    const std::string prefix = "shard." + std::to_string(s.shard) + ".";
    EXPECT_EQ(snap.counter_value(prefix + "reads"), s.reads);
    EXPECT_EQ(snap.counter_value(prefix + "hits"), s.hits);
    EXPECT_DOUBLE_EQ(snap.gauge_value(prefix + "wall_ms"), s.wall_ms);
  }
}

}  // namespace
}  // namespace pim::obs
