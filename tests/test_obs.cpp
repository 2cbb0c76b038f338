// Tests for the observability subsystem (ccq/obs/): metrics
// primitives, the Prometheus registry, the trace writer, and the log
// gate.  The histogram tests pit the sharded concurrent path against a
// single-threaded reference; the tracer tests validate the rendered
// chrome://tracing JSON structurally.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccq/clique/ledger.hpp"
#include "ccq/matrix/engine.hpp"
#include "ccq/obs/flight.hpp"
#include "ccq/obs/log.hpp"
#include "ccq/obs/metrics.hpp"
#include "ccq/obs/perf.hpp"
#include "ccq/obs/trace.hpp"

namespace ccq {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;

TEST(ObsCounter, AddAndLoad)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAddNegative)
{
    obs::Gauge g;
    g.set(10);
    g.add(-25);
    EXPECT_EQ(g.value(), -15);
}

TEST(ObsHistogram, BucketEdges)
{
    // Bucket 0 holds exactly 0; bucket i holds (2^(i-1), 2^i - 1].
    EXPECT_EQ(Histogram::bucket_index(0), 0);
    EXPECT_EQ(Histogram::bucket_index(1), 1);
    EXPECT_EQ(Histogram::bucket_index(2), 2);
    EXPECT_EQ(Histogram::bucket_index(3), 2);
    EXPECT_EQ(Histogram::bucket_index(4), 3);
    EXPECT_EQ(Histogram::bucket_index(7), 3);
    EXPECT_EQ(Histogram::bucket_index(8), 4);
    EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), obs::kHistogramBuckets - 1);

    EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
    EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
    EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
    EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
    EXPECT_EQ(Histogram::bucket_upper_bound(obs::kHistogramBuckets - 1), UINT64_MAX);

    // Every representable value falls inside its bucket's bounds.
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65536ull, (1ull << 62) + 5}) {
        const int b = Histogram::bucket_index(v);
        EXPECT_LE(v, Histogram::bucket_upper_bound(b)) << v;
        if (b > 0) {
            EXPECT_GT(v, Histogram::bucket_upper_bound(b - 1)) << v;
        }
    }
}

TEST(ObsHistogram, RecordAndSnapshot)
{
    Histogram h;
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(-7); // clamps to 0
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.total(), 4u);
    EXPECT_EQ(snap.counts[0], 2u); // 0 and the clamped -7
    EXPECT_EQ(snap.counts[1], 1u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.sum, 4u);
}

TEST(ObsHistogram, SnapshotMerge)
{
    Histogram a;
    Histogram b;
    a.record(5);
    b.record(5);
    b.record(100);
    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.total(), 3u);
    EXPECT_EQ(merged.sum, 110u);
    EXPECT_EQ(merged.counts[Histogram::bucket_index(5)], 2u);
    EXPECT_EQ(merged.counts[Histogram::bucket_index(100)], 1u);
}

TEST(ObsHistogram, ShardMergeMatchesSingleThreadedReference)
{
    // N threads each record a deterministic value stream into the
    // sharded histogram; the merged snapshot must equal the bucket
    // counts a serial reference accumulates from the same streams.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    const auto value_of = [](int thread, int i) {
        return static_cast<std::int64_t>((thread * 7919 + i * 31) % 100000);
    };

    HistogramSnapshot reference;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i) {
            const std::int64_t v = value_of(t, i);
            reference.counts[Histogram::bucket_index(static_cast<std::uint64_t>(v))] += 1;
            reference.sum += static_cast<std::uint64_t>(v);
        }

    Histogram h;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) h.record(value_of(t, i));
        });
    for (std::thread& thread : threads) thread.join();

    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.sum, reference.sum);
    EXPECT_EQ(snap.total(), reference.total());
    for (int i = 0; i < obs::kHistogramBuckets; ++i)
        EXPECT_EQ(snap.counts[i], reference.counts[i]) << "bucket " << i;
}

TEST(ObsHistogram, ConcurrentSnapshotWhileRecording)
{
    // Snapshots taken mid-flight must be internally sane (monotone
    // totals, sum consistent with non-empty buckets) and the final
    // snapshot exact.  Under TSan this exercises the relaxed-atomic
    // claim directly.
    Histogram h;
    std::atomic<bool> stop{false};
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 20000;
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t)
        writers.emplace_back([&] {
            for (int i = 0; i < kPerWriter; ++i) h.record(i & 1023);
        });
    std::thread reader([&] {
        std::uint64_t last_total = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const HistogramSnapshot snap = h.snapshot();
            const std::uint64_t total = snap.total();
            EXPECT_GE(total, last_total);
            last_total = total;
        }
    });
    for (std::thread& writer : writers) writer.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_EQ(h.snapshot().total(), static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(ObsRegistry, IdempotentRegistration)
{
    obs::Registry registry;
    obs::Counter& a = registry.counter("ccq_test_total", "help", {{"op", "ping"}});
    obs::Counter& b = registry.counter("ccq_test_total", "help", {{"op", "ping"}});
    EXPECT_EQ(&a, &b);
    obs::Counter& other = registry.counter("ccq_test_total", "help", {{"op", "stats"}});
    EXPECT_NE(&a, &other);
    // Same name, different kind: a registration bug, not a new family.
    EXPECT_THROW((void)registry.gauge("ccq_test_total", "help"), check_error);
}

TEST(ObsRegistry, RenderFormat)
{
    obs::Registry registry;
    registry.counter("ccq_reqs_total", "Requests.", {{"op", "ping"}}).add(3);
    registry.gauge("ccq_depth", "Queue depth.").set(-2);
    registry.histogram("ccq_lat_us", "Latency.").record(5);
    registry.add_collector([](std::string& out) { out += "# collector\n"; });
    const std::string text = registry.render();

    EXPECT_NE(text.find("# HELP ccq_reqs_total Requests.\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ccq_reqs_total counter\n"), std::string::npos);
    EXPECT_NE(text.find("ccq_reqs_total{op=\"ping\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ccq_depth gauge\n"), std::string::npos);
    EXPECT_NE(text.find("ccq_depth -2\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE ccq_lat_us histogram\n"), std::string::npos);
    // Cumulative buckets: the value-5 bucket (le="7") counts 1, and so
    // does every later emitted bucket up to +Inf.
    EXPECT_NE(text.find("ccq_lat_us_bucket{le=\"7\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("ccq_lat_us_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("ccq_lat_us_sum 5\n"), std::string::npos);
    EXPECT_NE(text.find("ccq_lat_us_count 1\n"), std::string::npos);
    // Collectors render after families.
    EXPECT_NE(text.find("# collector\n"), std::string::npos);
}

TEST(ObsRegistry, LabelEscaping)
{
    obs::Registry registry;
    registry.counter("ccq_esc_total", "h", {{"path", "a\"b\\c\nd"}}).add(1);
    EXPECT_NE(registry.render().find("ccq_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
              std::string::npos);
}

// --- tracer ----------------------------------------------------------------

/// Minimal structural JSON check: brackets/braces balance outside of
/// string literals and the document is one object.  (CI additionally
/// parses emitted trace files with a real JSON parser.)
void expect_balanced_json(const std::string& text)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.front(), '{');
    EXPECT_EQ(text.back(), '}');
}

/// Resets the process-global tracer around each test so cases cannot
/// leak events (or the enabled flag) into one another.
class ObsTracer : public ::testing::Test {
protected:
    void SetUp() override
    {
        obs::Tracer::global().disable();
        obs::Tracer::global().clear();
    }
    void TearDown() override
    {
        obs::Tracer::global().disable();
        obs::Tracer::global().clear();
    }
};

TEST_F(ObsTracer, DisabledRecordsNothing)
{
    {
        obs::TraceSpan span("noop", "test");
    }
    obs::Tracer::global().instant_event("noop", "test");
    EXPECT_EQ(obs::Tracer::global().event_count(), 0u);
}

TEST_F(ObsTracer, SpanAndInstantRender)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.enable();
    {
        obs::TraceSpan span("work", "test", "{\"n\":3}");
    }
    tracer.instant_event("marker", "test");
    tracer.begin_event("phase", "test");
    tracer.end_event();
    tracer.disable();
    EXPECT_EQ(tracer.event_count(), 4u);

    const std::string json = tracer.render_json();
    expect_balanced_json(json);
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"n\":3}"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

TEST_F(ObsTracer, NameEscaping)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.enable();
    tracer.instant_event("quote\"back\\slash", "test");
    tracer.disable();
    const std::string json = tracer.render_json();
    expect_balanced_json(json);
    EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST_F(ObsTracer, EngineProductsEmitSpans)
{
    obs::Tracer::global().enable();
    DistanceMatrix a(8);
    for (NodeId i = 0; i + 1 < 8; ++i) {
        a.relax(i, i + 1, 1);
        a.relax(i + 1, i, 1);
    }
    (void)min_plus_closure(std::move(a), nullptr, EngineConfig{});
    obs::Tracer::global().disable();
    const std::string json = obs::Tracer::global().render_json();
    expect_balanced_json(json);
    EXPECT_NE(json.find("\"name\":\"min_plus_product\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"min_plus_closure/square\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
}

TEST_F(ObsTracer, LedgerPhasesEmitSpansAndTotals)
{
    obs::Tracer::global().enable();
    RoundLedger ledger;
    {
        PhaseScope phase(ledger, "hopset");
        ledger.charge("route", 2.0, 16);
    }
    ledger.emit_trace_totals();
    obs::Tracer::global().disable();

    const std::string json = obs::Tracer::global().render_json();
    expect_balanced_json(json);
    EXPECT_NE(json.find("\"name\":\"hopset\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"charge/hopset/route\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"ledger/hopset\""), std::string::npos);
    EXPECT_NE(json.find("\"rounds\":2"), std::string::npos);
    EXPECT_NE(json.find("\"words\":16"), std::string::npos);
}

// --- log gate --------------------------------------------------------------

TEST(ObsLog, ParseAndGate)
{
    EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::error);
    EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::warn);
    EXPECT_EQ(obs::parse_log_level("info"), obs::LogLevel::info);
    EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::debug);
    EXPECT_THROW((void)obs::parse_log_level("verbose"), check_error);

    const obs::LogLevel saved = obs::log_level();
    obs::set_log_level(obs::LogLevel::warn);
    EXPECT_TRUE(obs::log_enabled(obs::LogLevel::error));
    EXPECT_TRUE(obs::log_enabled(obs::LogLevel::warn));
    EXPECT_FALSE(obs::log_enabled(obs::LogLevel::info));
    EXPECT_FALSE(obs::log_enabled(obs::LogLevel::debug));
    obs::set_log_level(saved);
}

TEST(ObsLog, TokenBucketAdmitsBurstThenRefills)
{
    // Synthetic clock, one site: 10 tokens/s, burst of 3.
    obs::LogSite site;
    const std::uint64_t rate = 10;
    const std::uint64_t burst = 3;
    std::uint64_t now = 1'000'000;
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(obs::log_site_admit(site, now, rate, burst)) << "burst line " << i;
    EXPECT_FALSE(obs::log_site_admit(site, now, rate, burst));
    EXPECT_FALSE(obs::log_site_admit(site, now, rate, burst));
    EXPECT_EQ(site.suppressed.load(), 2u);

    // 0.1 s at 10 tokens/s accrues exactly one token.
    now += 100'000;
    EXPECT_TRUE(obs::log_site_admit(site, now, rate, burst));
    EXPECT_FALSE(obs::log_site_admit(site, now, rate, burst));

    // Sub-token elapsed time is banked, not dropped: two half-token
    // waits add up to one admitted line.
    now += 50'000;
    EXPECT_FALSE(obs::log_site_admit(site, now, rate, burst));
    now += 50'000;
    EXPECT_TRUE(obs::log_site_admit(site, now, rate, burst));

    // Refill never exceeds the burst cap.
    now += 100'000'000;
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(obs::log_site_admit(site, now, rate, burst)) << "refilled line " << i;
    EXPECT_FALSE(obs::log_site_admit(site, now, rate, burst));
}

TEST(ObsLog, RateZeroDisablesTheBucket)
{
    obs::LogSite site;
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(obs::log_site_admit(site, 1'000'000, /*tokens_per_sec=*/0, /*burst=*/1));
    EXPECT_EQ(site.suppressed.load(), 0u);
}

TEST(ObsLog, RateLimitConfigurationRoundTrips)
{
    const std::uint64_t saved_rate = obs::log_rate_tokens_per_sec();
    const std::uint64_t saved_burst = obs::log_rate_burst();
    obs::set_log_rate_limit(5, 9);
    EXPECT_EQ(obs::log_rate_tokens_per_sec(), 5u);
    EXPECT_EQ(obs::log_rate_burst(), 9u);
    obs::set_log_rate_limit(saved_rate, saved_burst);
}

// --- histogram quantiles ---------------------------------------------------

TEST(ObsHistogramQuantile, InterpolatesWithinLog2Buckets)
{
    HistogramSnapshot empty;
    EXPECT_EQ(obs::histogram_quantile(empty, 0.5), 0.0);

    // All mass in bucket 4 = (7, 15]: quantiles interpolate linearly
    // across the bucket, and q=1 reaches the inclusive upper bound.
    HistogramSnapshot one_bucket;
    one_bucket.counts[4] = 10;
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(one_bucket, 0.5), 11.0);
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(one_bucket, 1.0), 15.0);
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(one_bucket, 0.0), 7.8); // rank clamps to 1

    // Mass split between the zero bucket and (3, 7].
    HistogramSnapshot split;
    split.counts[0] = 5;
    split.counts[3] = 5;
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(split, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(split, 0.9), 6.2);

    // The +Inf bucket has no finite upper bound: clamp to its lower.
    HistogramSnapshot inf;
    inf.counts[obs::kHistogramBuckets - 1] = 1;
    EXPECT_DOUBLE_EQ(
        obs::histogram_quantile(inf, 0.99),
        static_cast<double>(Histogram::bucket_upper_bound(obs::kHistogramBuckets - 2)));
}

TEST(ObsHistogramQuantile, MatchesExactRanksOnARecordedStream)
{
    // Recorded values all land on bucket boundaries, so interpolated
    // quantiles must bracket the true order statistics.
    Histogram h;
    for (int i = 0; i < 1000; ++i) h.record(i);
    const HistogramSnapshot snap = h.snapshot();
    const double p50 = obs::histogram_quantile(snap, 0.50);
    const double p99 = obs::histogram_quantile(snap, 0.99);
    // True p50 = 500, p99 = 990; a log2 sketch is coarse but must stay
    // within the owning bucket of the true value.
    EXPECT_GE(p50, 255.0);
    EXPECT_LE(p50, 1023.0);
    EXPECT_GE(p99, 511.0);
    EXPECT_LE(p99, 1023.0);
    EXPECT_GT(p99, p50);
}

// --- flight recorder -------------------------------------------------------

TEST(ObsFlight, CapacityRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(obs::FlightRecorder(0).capacity(), 2u);
    EXPECT_EQ(obs::FlightRecorder(1).capacity(), 2u);
    EXPECT_EQ(obs::FlightRecorder(4).capacity(), 4u);
    EXPECT_EQ(obs::FlightRecorder(5).capacity(), 8u);
    EXPECT_EQ(obs::FlightRecorder(256).capacity(), 256u);
}

TEST(ObsFlight, RecordsRoundTripThroughTheRing)
{
    obs::FlightRecorder recorder(8);
    obs::RequestRecord rec;
    rec.trace_id = 0xfeed;
    rec.conn_id = 3;
    rec.opcode = 0x02;
    rec.status = 0;
    rec.sampled = true;
    rec.request_bytes = 23;
    rec.reply_bytes = 13;
    rec.decode_us = 1;
    rec.queue_us = 2;
    rec.execute_us = 3;
    rec.encode_us = 4;
    rec.flush_us = 5;
    EXPECT_EQ(recorder.record(rec), 0u);
    rec.trace_id = 0xbeef;
    rec.sampled = false;
    EXPECT_EQ(recorder.record(rec), 1u);

    const std::vector<obs::RequestRecord> records = recorder.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].seq, 0u);
    EXPECT_EQ(records[0].trace_id, 0xfeedu);
    EXPECT_TRUE(records[0].sampled);
    EXPECT_EQ(records[0].total_us(), 15u);
    EXPECT_EQ(records[1].seq, 1u);
    EXPECT_EQ(records[1].trace_id, 0xbeefu);
    EXPECT_FALSE(records[1].sampled);
    // Everything but trace_id/sampled/seq was identical.
    obs::RequestRecord expected = records[1];
    expected.seq = 0;
    expected.trace_id = 0xfeed;
    expected.sampled = true;
    EXPECT_EQ(records[0], expected);
}

TEST(ObsFlight, RingOverwritesOldestFirst)
{
    obs::FlightRecorder recorder(4);
    for (std::uint32_t i = 0; i < 11; ++i) {
        obs::RequestRecord rec;
        rec.request_bytes = i;
        (void)recorder.record(rec);
    }
    const std::vector<obs::RequestRecord> records = recorder.snapshot();
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].seq, 7 + i);
        EXPECT_EQ(records[i].request_bytes, 7 + i);
    }
}

TEST(ObsFlight, ConcurrentWritersNeverYieldTornRecords)
{
    // Every writer publishes records whose fields satisfy a cross-field
    // invariant; a reader snapshotting mid-storm must only ever see
    // records that satisfy it (torn slots are skipped, not surfaced).
    obs::FlightRecorder recorder(16);
    std::atomic<bool> stop{false};
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 20000;
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t)
        writers.emplace_back([&, t] {
            for (int i = 0; i < kPerWriter; ++i) {
                obs::RequestRecord rec;
                rec.trace_id = static_cast<std::uint64_t>(t) * kPerWriter + i;
                rec.conn_id = rec.trace_id + 1;
                rec.request_bytes = static_cast<std::uint32_t>(rec.trace_id % 9973);
                rec.reply_bytes = rec.request_bytes + 7;
                rec.decode_us = rec.request_bytes;
                rec.flush_us = rec.request_bytes;
                (void)recorder.record(rec);
            }
        });
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            for (const obs::RequestRecord& rec : recorder.snapshot()) {
                ASSERT_EQ(rec.conn_id, rec.trace_id + 1);
                ASSERT_EQ(rec.request_bytes, rec.trace_id % 9973);
                ASSERT_EQ(rec.reply_bytes, rec.request_bytes + 7);
                ASSERT_EQ(rec.decode_us, rec.flush_us);
            }
        }
    });
    for (std::thread& writer : writers) writer.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    // Quiescent: the last 16 records are all present, in seq order.
    const std::vector<obs::RequestRecord> records = recorder.snapshot();
    ASSERT_EQ(records.size(), 16u);
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
    EXPECT_EQ(records.back().seq,
              static_cast<std::uint64_t>(kWriters) * kPerWriter - 1);
}

// --- hardware perf counters ------------------------------------------------

TEST(ObsPerf, CountersWorkOrDegradeGracefully)
{
    // Two legitimate outcomes: the kernel grants perf_event_open and the
    // counts are plausible, or it refuses (perf_event_paranoid, seccomp)
    // and the wrapper reports unavailable with zeroed counts — it must
    // never throw or crash.
    obs::PerfCounters perf;
    perf.start();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i * i;
    const obs::PerfCounts counts = perf.stop();
    if (counts.available) {
        EXPECT_GT(counts.instructions, 0u);
        EXPECT_GT(counts.cycles, 0u);
        EXPECT_GT(counts.ipc(), 0.0);
    } else {
        EXPECT_EQ(counts.cycles, 0u);
        EXPECT_EQ(counts.instructions, 0u);
        EXPECT_EQ(counts.ipc(), 0.0);
    }
    // Restartable: a second measurement behaves the same way.
    perf.start();
    const obs::PerfCounts again = perf.stop();
    EXPECT_EQ(again.available, counts.available);
}

} // namespace
} // namespace ccq
