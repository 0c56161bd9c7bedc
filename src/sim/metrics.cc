/**
 * @file
 * Metrics registry implementation: interning, snapshots, JSON.
 */
#include "sim/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "sim/trace.h"

namespace dax::sim {

// ---------------------------------------------------------------------
// HistogramData
// ---------------------------------------------------------------------

unsigned
HistogramData::bucketOf(std::uint64_t v)
{
    return v == 0 ? 0 : static_cast<unsigned>(std::bit_width(v));
}

std::uint64_t
HistogramData::bucketUpperBound(unsigned i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~0ULL;
    return (1ULL << i) - 1;
}

void
HistogramData::record(std::uint64_t v)
{
    buckets[bucketOf(v)]++;
    if (count == 0 || v < min)
        min = v;
    if (v > max)
        max = v;
    count++;
    sum += v;
}

void
HistogramData::merge(const HistogramData &other)
{
    if (other.count == 0)
        return;
    for (unsigned i = 0; i < kBuckets; i++)
        buckets[i] += other.buckets[i];
    if (count == 0 || other.min < min)
        min = other.min;
    if (other.max > max)
        max = other.max;
    count += other.count;
    sum += other.sum;
}

std::uint64_t
HistogramData::percentile(double p) const
{
    if (count == 0)
        return 0;
    if (p <= 0.0)
        return min; // the 0th percentile is the minimum by definition
    if (p > 1.0)
        p = 1.0;
    // Rank of the requested quantile, 1-based.
    const double want = p * static_cast<double>(count);
    std::uint64_t rank = static_cast<std::uint64_t>(want);
    if (static_cast<double>(rank) < want || rank == 0)
        rank++;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; i++) {
        if (buckets[i] == 0)
            continue;
        const std::uint64_t before = seen;
        seen += buckets[i];
        if (seen < rank)
            continue;
        // Log-linear interpolation: the bucket index fixes the
        // log2 range [2^(i-1), 2^i - 1]; within it, samples are
        // assumed evenly spread, so the rank's offset into the bucket
        // maps linearly onto the value range. Integer/__int128 math
        // only — bit-identical across platforms, no libm.
        std::uint64_t v = 0;
        if (i > 0) {
            const std::uint64_t lo = 1ULL << (i >= 64 ? 63 : i - 1);
            const std::uint64_t hi = bucketUpperBound(i);
            const std::uint64_t pos = rank - before; // in [1, cnt]
            v = lo
              + static_cast<std::uint64_t>(
                    static_cast<unsigned __int128>(hi - lo) * pos
                    / buckets[i]);
        }
        // Clamp to the observed range: single-sample histograms are
        // exact, p=0 can not undershoot min, p=1 can not overshoot
        // max.
        if (v < min)
            v = min;
        if (v > max)
            v = max;
        return v;
    }
    return max;
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

HistogramData
LatencyHistogram::merged() const
{
    HistogramData out;
    for (unsigned i = 0; i < nShards_; i++)
        out.merge(shards_[i]);
    return out;
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

MetricsRegistry::Entry &
MetricsRegistry::intern(const std::string &name, MetricKind kind)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        Entry &entry = entries_[it->second];
        if (entry.kind != kind)
            throw std::logic_error("metric '" + name
                                   + "' registered under two kinds");
        return entry;
    }
    entries_.emplace_back();
    Entry &entry = entries_.back();
    entry.name = name;
    entry.kind = kind;
    switch (kind) {
    case MetricKind::Counter:
        entry.slots.assign(shards_, 0);
        break;
    case MetricKind::Gauge:
        break;
    case MetricKind::Histogram:
        entry.hists.assign(shards_, HistogramData{});
        break;
    }
    index_.emplace(name, entries_.size() - 1);
    return entry;
}

const MetricsRegistry::Entry *
MetricsRegistry::lookup(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? nullptr : &entries_[it->second];
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    Entry &entry = intern(name, MetricKind::Counter);
    return Counter(entry.slots.data(),
                   static_cast<unsigned>(entry.slots.size()));
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    Entry &entry = intern(name, MetricKind::Gauge);
    return Gauge(&entry.gauge);
}

LatencyHistogram
MetricsRegistry::histogram(const std::string &name)
{
    Entry &entry = intern(name, MetricKind::Histogram);
    return LatencyHistogram(entry.hists.data(),
                            static_cast<unsigned>(entry.hists.size()));
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    const Entry *entry = lookup(name);
    if (entry == nullptr || entry->kind != MetricKind::Counter)
        return 0;
    std::uint64_t total = 0;
    for (const auto v : entry->slots)
        total += v;
    return total;
}

double
MetricsRegistry::gaugeValue(const std::string &name) const
{
    const Entry *entry = lookup(name);
    return entry != nullptr && entry->kind == MetricKind::Gauge
               ? entry->gauge
               : 0.0;
}

HistogramData
MetricsRegistry::histogramValue(const std::string &name) const
{
    HistogramData out;
    const Entry *entry = lookup(name);
    if (entry == nullptr || entry->kind != MetricKind::Histogram)
        return out;
    for (const auto &h : entry->hists)
        out.merge(h);
    return out;
}

void
MetricsRegistry::collect()
{
    for (const auto &fn : collectors_)
        fn();
}

MetricsSnapshot
MetricsRegistry::snapshot()
{
    collect();
    return peek();
}

MetricsSnapshot
MetricsRegistry::peek() const
{
    // Deterministic roll-up contract: per-core slots merge in
    // ascending slot index, and the snapshot orders instruments by
    // name (std::map), never by registration order. Asserted below so
    // a future container swap cannot silently break byte-stable
    // output.
    MetricsSnapshot snap;
    for (const auto &entry : entries_) {
        switch (entry.kind) {
        case MetricKind::Counter: {
            std::uint64_t total = 0;
            for (const auto v : entry.slots)
                total += v;
            snap.counters.emplace(entry.name, total);
            break;
        }
        case MetricKind::Gauge:
            snap.gauges.emplace(entry.name, entry.gauge);
            break;
        case MetricKind::Histogram: {
            HistogramData merged;
            for (const auto &h : entry.hists)
                merged.merge(h);
            snap.histograms.emplace(entry.name, merged);
            break;
        }
        }
    }
    const auto nameSorted = [](const auto &m) {
        return std::is_sorted(m.begin(), m.end(),
                              [](const auto &a, const auto &b) {
                                  return a.first < b.first;
                              });
    };
    assert(nameSorted(snap.counters) && nameSorted(snap.gauges)
           && nameSorted(snap.histograms)
           && "metric roll-up must ascend by instrument name");
    (void)nameSorted;
    return snap;
}

void
MetricsRegistry::reset()
{
    for (auto &entry : entries_) {
        entry.slots.assign(entry.slots.size(), 0);
        entry.gauge = 0.0;
        entry.hists.assign(entry.hists.size(), HistogramData{});
    }
}

// ---------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, value] : other.gauges)
        gauges[name] += value;
    for (const auto &[name, hist] : other.histograms)
        histograms[name].merge(hist);
}

Json
MetricsSnapshot::toJson() const
{
    Json counterObj = Json::object();
    for (const auto &[name, value] : counters)
        counterObj[name] = Json(value);

    Json gaugeObj = Json::object();
    for (const auto &[name, value] : gauges)
        gaugeObj[name] = Json(value);

    Json histObj = Json::object();
    for (const auto &[name, hist] : histograms) {
        Json h = Json::object();
        h["count"] = Json(hist.count);
        h["sum"] = Json(hist.sum);
        h["min"] = Json(hist.min);
        h["max"] = Json(hist.max);
        Json buckets = Json::object();
        for (unsigned i = 0; i < HistogramData::kBuckets; i++) {
            if (hist.buckets[i] != 0)
                buckets[std::to_string(i)] = Json(hist.buckets[i]);
        }
        h["buckets"] = std::move(buckets);
        h["p50"] = Json(hist.percentile(0.50));
        h["p99"] = Json(hist.percentile(0.99));
        h["p999"] = Json(hist.percentile(0.999));
        histObj[name] = std::move(h);
    }

    Json out = Json::object();
    out["counters"] = std::move(counterObj);
    out["gauges"] = std::move(gaugeObj);
    out["histograms"] = std::move(histObj);
    return out;
}

MetricsSnapshot
MetricsSnapshot::fromJson(const Json &json, std::string *error)
{
    MetricsSnapshot snap;
    if (error != nullptr)
        error->clear();
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "snapshot: not an object";
        return snap;
    }
    if (const Json *c = json.find("counters"); c != nullptr) {
        for (const auto &[name, value] : c->fields())
            snap.counters.emplace(name, value.asUint());
    }
    if (const Json *g = json.find("gauges"); g != nullptr) {
        for (const auto &[name, value] : g->fields())
            snap.gauges.emplace(name, value.asDouble());
    }
    if (const Json *hs = json.find("histograms"); hs != nullptr) {
        for (const auto &[name, h] : hs->fields()) {
            HistogramData hist;
            if (const Json *v = h.find("count"))
                hist.count = v->asUint();
            if (const Json *v = h.find("sum"))
                hist.sum = v->asUint();
            if (const Json *v = h.find("min"))
                hist.min = v->asUint();
            if (const Json *v = h.find("max"))
                hist.max = v->asUint();
            if (const Json *buckets = h.find("buckets")) {
                for (const auto &[idx, n] : buckets->fields()) {
                    const unsigned i = static_cast<unsigned>(
                        std::stoul(idx));
                    if (i < HistogramData::kBuckets)
                        hist.buckets[i] = n.asUint();
                    else if (error != nullptr && error->empty())
                        *error = "histogram bucket out of range: " + idx;
                }
            }
            snap.histograms.emplace(name, hist);
        }
    }
    return snap;
}

// ---------------------------------------------------------------------
// MetricsTimeline
// ---------------------------------------------------------------------

namespace {

/**
 * Histogram activity inside one window: bucket/count/sum deltas of
 * two cumulative snapshots, with min/max synthesized from the first
 * and last non-empty delta buckets (cumulative min/max cannot be
 * subtracted). percentile() clamps against these bounds, which are
 * exact at bucket granularity.
 */
HistogramData
histDelta(const HistogramData &cur, const HistogramData &prev)
{
    HistogramData d;
    d.count = cur.count - prev.count;
    d.sum = cur.sum - prev.sum;
    bool haveMin = false;
    for (unsigned i = 0; i < HistogramData::kBuckets; i++) {
        d.buckets[i] = cur.buckets[i] - prev.buckets[i];
        if (d.buckets[i] == 0)
            continue;
        if (!haveMin) {
            haveMin = true;
            d.min = i == 0 ? 0 : 1ULL << (i >= 64 ? 63 : i - 1);
        }
        d.max = HistogramData::bucketUpperBound(i);
    }
    return d;
}

Json
histWindowJson(const HistogramData &d)
{
    Json h = Json::object();
    h["count"] = d.count;
    h["sum"] = d.sum;
    h["p50"] = d.percentile(0.50);
    h["p99"] = d.percentile(0.99);
    h["p999"] = d.percentile(0.999);
    return h;
}

} // namespace

MetricsTimeline::MetricsTimeline(MetricsRegistry &registry,
                                 Config config)
    : registry_(&registry), cfg_(std::move(config))
{
    if (cfg_.windowNs <= 0)
        throw std::invalid_argument(
            "MetricsTimeline: windowNs must be >= 1");
    if (cfg_.maxWindows == 0)
        cfg_.maxWindows = 1;
}

MetricsSnapshot
MetricsTimeline::filtered() const
{
    MetricsSnapshot snap = registry_->peek();
    if (cfg_.prefix.empty())
        return snap;
    const auto keep = [&](const std::string &name) {
        return name.compare(0, cfg_.prefix.size(), cfg_.prefix) == 0;
    };
    std::erase_if(snap.counters,
                  [&](const auto &kv) { return !keep(kv.first); });
    std::erase_if(snap.gauges,
                  [&](const auto &kv) { return !keep(kv.first); });
    std::erase_if(snap.histograms,
                  [&](const auto &kv) { return !keep(kv.first); });
    return snap;
}

void
MetricsTimeline::roll(Time boundary, std::uint32_t traceTrack)
{
    MetricsSnapshot cur = filtered();
    Json counters = Json::object();
    for (const auto &[name, value] : cur.counters) {
        const std::uint64_t prev = last_.counter(name);
        if (value > prev)
            counters[name] = value - prev;
    }
    Json hists = Json::object();
    for (const auto &[name, h] : cur.histograms) {
        const auto it = last_.histograms.find(name);
        static const HistogramData kEmpty;
        const HistogramData d =
            histDelta(h, it != last_.histograms.end() ? it->second
                                                      : kEmpty);
        if (d.count == 0)
            continue;
        hists[name] = histWindowJson(d);
        if (traceTrack != kNoTrack) {
            Trace::get().spans().counterSample(
                traceTrack, boundary, name + ".win_p99",
                d.percentile(0.99));
        }
    }
    if (!counters.fields().empty() || !hists.fields().empty()) {
        if (windows_.size() < cfg_.maxWindows) {
            Json w = Json::object();
            w["start_ns"] = static_cast<std::uint64_t>(windowStart_);
            w["counters"] = std::move(counters);
            w["histograms"] = std::move(hists);
            windows_.push_back(std::move(w));
        } else {
            truncated_++;
        }
        last_ = std::move(cur);
    }
    windowStart_ = boundary;
}

void
MetricsTimeline::tick(Time now, std::uint32_t traceTrack)
{
    if (closed_)
        return;
    if (!started_) {
        started_ = true;
        startNs_ = now;
        windowStart_ = now;
        baseline_ = filtered();
        last_ = baseline_;
        return;
    }
    if (now < windowStart_ + cfg_.windowNs)
        return;
    // The whole delta since the last roll lands in the closing window
    // (interval snapshots cannot subdivide it further); any remaining
    // crossed windows are then empty and skipped in O(1).
    roll(windowStart_ + cfg_.windowNs, traceTrack);
    if (now >= windowStart_ + cfg_.windowNs) {
        const Time skipped = (now - windowStart_) / cfg_.windowNs;
        windowStart_ += skipped * cfg_.windowNs;
    }
}

void
MetricsTimeline::close(Time now)
{
    if (closed_)
        return;
    closed_ = true;
    if (!started_)
        return;
    // Final (possibly partial) window, so the per-window counts sum
    // to the totals exactly.
    roll(std::max(now, windowStart_), kNoTrack);

    const MetricsSnapshot fin = filtered();
    Json counters = Json::object();
    for (const auto &[name, value] : fin.counters) {
        const std::uint64_t base = baseline_.counter(name);
        if (value > base)
            counters[name] = value - base;
    }
    Json hists = Json::object();
    for (const auto &[name, h] : fin.histograms) {
        const auto it = baseline_.histograms.find(name);
        static const HistogramData kEmpty;
        const HistogramData d = histDelta(
            h, it != baseline_.histograms.end() ? it->second : kEmpty);
        if (d.count == 0)
            continue;
        Json t = Json::object();
        t["count"] = d.count;
        t["sum"] = d.sum;
        hists[name] = std::move(t);
    }
    totals_ = Json::object();
    totals_["counters"] = std::move(counters);
    totals_["histograms"] = std::move(hists);
}

Json
MetricsTimeline::toJson() const
{
    Json run = Json::object();
    run["start_ns"] = static_cast<std::uint64_t>(startNs_);
    run["window_ns"] = static_cast<std::uint64_t>(cfg_.windowNs);
    run["truncated_windows"] = truncated_;
    Json windows = Json::array();
    for (const Json &w : windows_)
        windows.push(w);
    run["windows"] = std::move(windows);
    run["totals"] = totals_.isObject() ? totals_ : Json::object();
    return run;
}

std::string
MetricsSnapshot::toString() const
{
    std::ostringstream os;
    for (const auto &[name, value] : counters)
        os << name << "=" << value << "\n";
    for (const auto &[name, value] : gauges)
        os << name << "=" << value << "\n";
    for (const auto &[name, hist] : histograms) {
        os << name << "=count:" << hist.count << " mean:" << hist.mean()
           << " p50:" << hist.percentile(0.50)
           << " p99:" << hist.percentile(0.99)
           << " p999:" << hist.percentile(0.999) << " max:" << hist.max
           << "\n";
    }
    return os.str();
}

} // namespace dax::sim
