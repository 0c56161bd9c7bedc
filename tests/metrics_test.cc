/**
 * @file
 * Unit tests for the unified telemetry layer (sim/metrics.h): bucket
 * boundaries and percentiles of the log2 histogram, per-core shard
 * merging, collector-published gauges, and snapshot/JSON round-trip.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/json.h"
#include "sim/metrics.h"
#include "sys/system.h"

using namespace dax;
using sim::HistogramData;
using sim::MetricsRegistry;
using sim::MetricsSnapshot;

TEST(HistogramTest, BucketBoundaries)
{
    // Bucket 0 holds exact zeros; bucket i holds [2^(i-1), 2^i - 1].
    EXPECT_EQ(HistogramData::bucketOf(0), 0u);
    EXPECT_EQ(HistogramData::bucketOf(1), 1u);
    EXPECT_EQ(HistogramData::bucketOf(2), 2u);
    EXPECT_EQ(HistogramData::bucketOf(3), 2u);
    EXPECT_EQ(HistogramData::bucketOf(4), 3u);
    EXPECT_EQ(HistogramData::bucketOf(1023), 10u);
    EXPECT_EQ(HistogramData::bucketOf(1024), 11u);
    EXPECT_EQ(HistogramData::bucketOf(~0ULL), 64u);

    EXPECT_EQ(HistogramData::bucketUpperBound(0), 0u);
    EXPECT_EQ(HistogramData::bucketUpperBound(1), 1u);
    EXPECT_EQ(HistogramData::bucketUpperBound(2), 3u);
    EXPECT_EQ(HistogramData::bucketUpperBound(11), 2047u);
    // Every value lands in the bucket whose bounds contain it.
    for (const std::uint64_t v : {1ULL, 7ULL, 4096ULL, 123456789ULL}) {
        const unsigned b = HistogramData::bucketOf(v);
        EXPECT_LE(v, HistogramData::bucketUpperBound(b));
        if (b > 1) {
            EXPECT_GT(v, HistogramData::bucketUpperBound(b - 1));
        }
    }
}

TEST(HistogramTest, RecordTracksCountSumMinMax)
{
    HistogramData h;
    EXPECT_EQ(h.percentile(0.5), 0u);
    h.record(100);
    h.record(300);
    h.record(200);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 600u);
    EXPECT_EQ(h.min, 100u);
    EXPECT_EQ(h.max, 300u);
    EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBuckets)
{
    HistogramData h;
    // 90 values in bucket 7 ([64, 127]), 10 in bucket 11 ([1024, 2047]).
    for (int i = 0; i < 90; i++)
        h.record(100);
    for (int i = 0; i < 10; i++)
        h.record(2000);
    // Rank 50 of 90 into [64, 127]: 64 + 63*50/90 = 99, clamped up to
    // min=100. The old upper-bound walk reported 127 here — a 27%
    // overstatement.
    EXPECT_EQ(h.percentile(0.5), 100u);
    // Rank 90 of 90 lands on the bucket's upper bound exactly.
    EXPECT_EQ(h.percentile(0.9), 127u);
    // Rank 5 of 10 into [1024, 2047]: 1024 + 1023*5/10 = 1535.
    EXPECT_EQ(h.percentile(0.95), 1535u);
    // p=1.0 clamps to the recorded max, not the bucket bound (2047).
    EXPECT_EQ(h.percentile(1.0), 2000u);
}

TEST(HistogramTest, PercentileEdgeCases)
{
    // Empty histogram: every percentile reads 0.
    HistogramData empty;
    EXPECT_EQ(empty.percentile(0.0), 0u);
    EXPECT_EQ(empty.percentile(0.5), 0u);
    EXPECT_EQ(empty.percentile(1.0), 0u);

    // Single sample: exact at every percentile (min==max clamp).
    HistogramData one;
    one.record(777);
    EXPECT_EQ(one.percentile(0.0), 777u);
    EXPECT_EQ(one.percentile(0.5), 777u);
    EXPECT_EQ(one.percentile(0.999), 777u);
    EXPECT_EQ(one.percentile(1.0), 777u);

    // p=0 reads the recorded min, p=1 the recorded max; out-of-range
    // arguments clamp rather than misbehave.
    HistogramData h;
    h.record(100);
    h.record(200);
    h.record(50000);
    EXPECT_EQ(h.percentile(0.0), 100u);
    EXPECT_EQ(h.percentile(-1.0), 100u);
    EXPECT_EQ(h.percentile(1.0), 50000u);
    EXPECT_EQ(h.percentile(2.0), 50000u);

    // Zeros live in bucket 0 and report exactly 0.
    HistogramData z;
    z.record(0);
    z.record(0);
    z.record(16);
    EXPECT_EQ(z.percentile(0.25), 0u);
    EXPECT_EQ(z.percentile(1.0), 16u);

    // Cross-bucket tail: a lone huge outlier dominates only the very
    // top of the distribution, and interpolation keeps intermediate
    // percentiles inside their own bucket's range.
    HistogramData t;
    for (int i = 0; i < 999; i++)
        t.record(1000);
    t.record(1ULL << 40);
    // 512 + 511*500/999 = 767 interpolated, clamped up to min=1000.
    EXPECT_EQ(t.percentile(0.5), 1000u);
    EXPECT_LE(t.percentile(0.999), 1023u);
    EXPECT_EQ(t.percentile(1.0), 1ULL << 40);
    // Monotone in p.
    std::uint64_t prev = 0;
    for (const double p : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const std::uint64_t v = t.percentile(p);
        EXPECT_GE(v, prev) << "p=" << p;
        prev = v;
    }
}

TEST(HistogramTest, MergeAccumulates)
{
    HistogramData a, b;
    a.record(10);
    a.record(20);
    b.record(5000);
    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(a.sum, 5030u);
    EXPECT_EQ(a.min, 10u);
    EXPECT_EQ(a.max, 5000u);
    // Merging an empty histogram is a no-op.
    HistogramData empty;
    const HistogramData before = a;
    a.merge(empty);
    EXPECT_EQ(a, before);
}

TEST(MetricsRegistryTest, CounterShardsMergeInValue)
{
    MetricsRegistry registry(4);
    auto c = registry.counter("test.events");
    c.addAt(0, 1);
    c.addAt(1, 10);
    c.addAt(3, 100);
    c.add(); // shard 0
    EXPECT_EQ(c.value(), 112u);
    EXPECT_EQ(registry.counterValue("test.events"), 112u);
    // Out-of-range shards (scratch Cpus use core -1) clamp to shard 0
    // instead of writing out of bounds.
    c.addAt(-1, 5);
    c.addAt(99, 7);
    EXPECT_EQ(c.value(), 124u);
}

TEST(MetricsRegistryTest, InterningReturnsSameStorage)
{
    MetricsRegistry registry(2);
    auto a = registry.counter("x.count");
    auto b = registry.counter("x.count");
    a.add(3);
    b.add(4);
    EXPECT_EQ(registry.counterValue("x.count"), 7u);
    // Same name under a different kind is a wiring bug: loud failure.
    EXPECT_THROW(registry.gauge("x.count"), std::logic_error);
    EXPECT_THROW(registry.histogram("x.count"), std::logic_error);
}

TEST(MetricsRegistryTest, UnboundHandlesAreSafe)
{
    sim::Counter c;
    sim::Gauge g;
    sim::LatencyHistogram h;
    EXPECT_FALSE(c.bound());
    c.add(5);
    c.addAt(3, 5);
    g.set(1.0);
    h.record(100);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
    EXPECT_EQ(h.merged().count, 0u);
}

TEST(MetricsRegistryTest, HistogramShardsMerge)
{
    MetricsRegistry registry(4);
    auto h = registry.histogram("test.lat_ns");
    h.recordAt(0, 100);
    h.recordAt(1, 200);
    h.recordAt(2, 400);
    h.recordAt(3, 800);
    const HistogramData merged = h.merged();
    EXPECT_EQ(merged.count, 4u);
    EXPECT_EQ(merged.sum, 1500u);
    EXPECT_EQ(merged.min, 100u);
    EXPECT_EQ(merged.max, 800u);
    EXPECT_EQ(registry.histogramValue("test.lat_ns"), merged);
}

TEST(MetricsRegistryTest, CollectorsPublishGaugesAtSnapshot)
{
    MetricsRegistry registry;
    int sampled = 0;
    auto depth = registry.gauge("pool.depth");
    registry.addCollector([&sampled, depth]() mutable {
        sampled++;
        depth.set(42.0);
    });
    // peek() must not run collectors.
    EXPECT_EQ(registry.peek().gauge("pool.depth"), 0.0);
    EXPECT_EQ(sampled, 0);
    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(sampled, 1);
    EXPECT_EQ(snap.gauge("pool.depth"), 42.0);
}

TEST(MetricsRegistryTest, ResetClearsValuesKeepsRegistrations)
{
    MetricsRegistry registry(2);
    auto c = registry.counter("a.count");
    auto h = registry.histogram("a.lat");
    c.add(9);
    h.record(64);
    registry.reset();
    EXPECT_TRUE(registry.has("a.count"));
    EXPECT_EQ(registry.counterValue("a.count"), 0u);
    EXPECT_EQ(registry.histogramValue("a.lat").count, 0u);
    c.add(2); // old handles still point at the (zeroed) storage
    EXPECT_EQ(registry.counterValue("a.count"), 2u);
}

TEST(MetricsSnapshotTest, MergeAddsAndCombines)
{
    MetricsSnapshot a, b;
    a.counters["n"] = 10;
    b.counters["n"] = 5;
    b.counters["only_b"] = 1;
    a.gauges["g"] = 1.5;
    b.gauges["g"] = 2.5;
    HistogramData ha, hb;
    ha.record(100);
    hb.record(200);
    a.histograms["h"] = ha;
    b.histograms["h"] = hb;
    a.merge(b);
    EXPECT_EQ(a.counter("n"), 15u);
    EXPECT_EQ(a.counter("only_b"), 1u);
    EXPECT_EQ(a.gauge("g"), 4.0);
    EXPECT_EQ(a.histograms["h"].count, 2u);
}

TEST(MetricsSnapshotTest, JsonRoundTrip)
{
    MetricsRegistry registry(2);
    registry.counter("fs.creates").add(3);
    registry.counter("vm.faults").addAt(1, 1ULL << 60); // > 2^53
    registry.gauge("mem.bw").set(123.25);
    auto h = registry.histogram("vm.fault_ns");
    h.recordAt(0, 150);
    h.recordAt(1, 9000);
    const MetricsSnapshot snap = registry.snapshot();

    const std::string text = snap.toJson().dump(2);
    std::string error;
    const sim::Json parsed = sim::Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    const MetricsSnapshot back = MetricsSnapshot::fromJson(parsed, &error);
    ASSERT_TRUE(error.empty()) << error;
    // Exact equality: counters survive as 64-bit ints, histogram
    // buckets/count/sum/min/max all round-trip.
    EXPECT_EQ(back, snap);
    EXPECT_EQ(back.counter("vm.faults"), 1ULL << 60);
}

TEST(MetricsSnapshotTest, ToStringIsSortedAndComplete)
{
    MetricsRegistry registry;
    registry.counter("b.two").add(2);
    registry.counter("a.one").add(1);
    const std::string text = registry.snapshot().toString();
    const auto posA = text.find("a.one");
    const auto posB = text.find("b.two");
    ASSERT_NE(posA, std::string::npos);
    ASSERT_NE(posB, std::string::npos);
    EXPECT_LT(posA, posB);
}

// End-to-end: a full System publishes the documented namespaces in one
// rolled-up snapshot, and the dotted names stay reachable by name.
TEST(SystemMetricsTest, SnapshotCoversSubsystems)
{
    sys::SystemConfig config;
    config.cores = 2;
    config.pmemBytes = 64ULL << 20;
    config.pmemTableBytes = 32ULL << 20;
    config.dramBytes = 32ULL << 20;
    sys::System system(config);

    const fs::Ino ino = system.makeFile("/f", 1 << 20);
    auto as = system.newProcess();
    sim::Cpu cpu(nullptr, 0, 0);
    const std::uint64_t va = as->mmap(cpu, ino, 0, 1 << 20, false, 0);
    ASSERT_NE(va, 0u);
    as->memRead(cpu, va, 8, mem::Pattern::Seq);

    const MetricsSnapshot snap = system.snapshotMetrics();
    EXPECT_GE(snap.counter("fs.creates"), 1u);
    EXPECT_GE(snap.counter("vm.mmap"), 1u);
    EXPECT_GE(snap.counter("vm.faults"), 1u);
    // Collector-published gauges from the device and lock layers.
    EXPECT_GT(snap.gauge("mem.pmem.read_bytes"), 0.0);
    EXPECT_GT(snap.gauge("vm.mmap_sem.write_acquisitions"), 0.0);
    // Fault latency histogram recorded at least the fault above.
    const auto it = snap.histograms.find("vm.fault_ns");
    ASSERT_NE(it, snap.histograms.end());
    EXPECT_GE(it->second.count, 1u);
    // Name-based access agrees with the snapshot.
    EXPECT_EQ(system.metrics().counterValue("vm.faults"),
              snap.counter("vm.faults"));
}

// Retired address spaces keep contributing their mmap_sem and MMU
// totals after destruction (satellite: Fig 8a/8c mmap_sem reporting).
TEST(SystemMetricsTest, RetiredSpacesKeepLockStats)
{
    sys::SystemConfig config;
    config.cores = 2;
    config.pmemBytes = 64ULL << 20;
    config.pmemTableBytes = 32ULL << 20;
    config.dramBytes = 32ULL << 20;
    sys::System system(config);

    const fs::Ino ino = system.makeFile("/f", 1 << 20);
    double liveAcq = 0;
    {
        auto as = system.newProcess();
        sim::Cpu cpu(nullptr, 0, 0);
        const std::uint64_t va =
            as->mmap(cpu, ino, 0, 1 << 20, false, 0);
        ASSERT_NE(va, 0u);
        liveAcq = system.snapshotMetrics().gauge(
            "vm.mmap_sem.write_acquisitions");
        EXPECT_GT(liveAcq, 0.0);
    }
    // The space is gone; its accumulated lock stats must not be.
    const double retiredAcq = system.snapshotMetrics().gauge(
        "vm.mmap_sem.write_acquisitions");
    EXPECT_GE(retiredAcq, liveAcq);
}
