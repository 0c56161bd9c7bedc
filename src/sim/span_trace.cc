/**
 * @file
 * Span recorder, Chrome/folded exporters, and trace analysis.
 */
#include "sim/span_trace.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "sim/json.h"
#include "sim/metrics.h"

namespace dax::sim {

namespace {

/** Default per-track ring capacity (events); DAXVM_TRACE_EVENTS wins. */
constexpr std::size_t kDefaultCapacity = 1u << 20;

/** Default virtual-time period between counter samples. */
constexpr Time kDefaultSamplePeriod = 1'000'000; // 1 ms

void
appendEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/** Append virtual ns as exact microseconds ("12.345"). */
void
appendTsUs(std::string &out, Time ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                  ns % 1000);
    out += buf;
}

void
flushIfFull(std::string &buf, std::FILE *file)
{
    if (file != nullptr && buf.size() >= 1u << 16) {
        std::fwrite(buf.data(), 1, buf.size(), file);
        buf.clear();
    }
}

std::string
trackName(std::uint32_t track)
{
    if (track >= kScratchTrackBase)
        return "scratch " + std::to_string(track - kScratchTrackBase);
    return "thread " + std::to_string(track);
}

void
appendFlowId(std::string &buf, std::uint64_t id)
{
    char hex[24];
    std::snprintf(hex, sizeof(hex), "0x%" PRIx64, id);
    buf += hex;
}

/** One trace event as a Chrome trace_event JSON object. */
void
appendEventJson(std::string &buf, std::uint32_t pid, std::uint32_t track,
                const SpanEvent &e)
{
    const std::string ids = "\"pid\":" + std::to_string(pid)
        + ",\"tid\":" + std::to_string(track) + ",\"ts\":";
    switch (e.phase) {
      case SpanPhase::Begin:
        buf += "{\"ph\":\"B\"," + ids;
        appendTsUs(buf, e.ts);
        buf += ",\"cat\":\"";
        buf += traceCatName(e.cat);
        buf += "\",\"name\":\"";
        buf += e.name;
        buf += "\",\"args\":{\"core\":" + std::to_string(e.core);
        if (!e.detail.empty()) {
            buf += ",\"detail\":\"";
            appendEscaped(buf, e.detail);
            buf += "\"";
        }
        buf += "}}";
        break;
      case SpanPhase::End:
        buf += "{\"ph\":\"E\"," + ids;
        appendTsUs(buf, e.ts);
        buf += ",\"cat\":\"";
        buf += traceCatName(e.cat);
        buf += "\",\"name\":\"";
        buf += e.name;
        buf += "\"}";
        break;
      case SpanPhase::Instant:
        buf += "{\"ph\":\"i\"," + ids;
        appendTsUs(buf, e.ts);
        buf += ",\"s\":\"t\",\"cat\":\"";
        buf += traceCatName(e.cat);
        buf += "\",\"name\":\"";
        buf += e.name;
        buf += "\",\"args\":{\"core\":" + std::to_string(e.core);
        if (!e.detail.empty()) {
            buf += ",\"detail\":\"";
            appendEscaped(buf, e.detail);
            buf += "\"";
        }
        buf += "}}";
        break;
      case SpanPhase::Counter:
        buf += "{\"ph\":\"C\"," + ids;
        appendTsUs(buf, e.ts);
        buf += ",\"name\":\"";
        appendEscaped(buf, e.detail);
        buf += "\",\"args\":{\"value\":" + std::to_string(e.value)
            + "}}";
        break;
      case SpanPhase::FlowStart:
      case SpanPhase::FlowStep:
      case SpanPhase::FlowEnd:
        buf += e.phase == SpanPhase::FlowStart ? "{\"ph\":\"s\","
            : e.phase == SpanPhase::FlowStep   ? "{\"ph\":\"t\","
                                               : "{\"ph\":\"f\","
                                                 "\"bp\":\"e\",";
        buf += ids;
        appendTsUs(buf, e.ts);
        buf += ",\"cat\":\"";
        buf += traceCatName(e.cat);
        buf += "\",\"name\":\"";
        buf += e.name;
        buf += "\",\"id\":\"";
        appendFlowId(buf, e.value);
        buf += "\",\"args\":{\"core\":" + std::to_string(e.core)
            + "}}";
        break;
    }
}

} // namespace

SpanRecorder::SpanRecorder()
    : capacity_(kDefaultCapacity), samplePeriod_(kDefaultSamplePeriod)
{
    if (const char *env = std::getenv("DAXVM_TRACE_EVENTS")) {
        const unsigned long long v = std::strtoull(env, nullptr, 10);
        if (v > 0)
            capacity_ = static_cast<std::size_t>(v);
    }
}

void
SpanRecorder::setCapacity(std::size_t perTrackEvents)
{
    capacity_ = perTrackEvents > 0 ? perTrackEvents : 1;
}

std::uint32_t
SpanRecorder::attachProcess(MetricsRegistry *counters, const char *label)
{
    const std::uint32_t pid = nextPid_++;
    currentPid_ = pid;
    processLabels_[pid] =
        std::string(label) + " #" + std::to_string(pid - 1);
    if (counters != nullptr)
        counterSource_ = counters;
    nextSampleAt_ = 0;
    return pid;
}

void
SpanRecorder::detachProcess(MetricsRegistry *counters)
{
    if (counterSource_ == counters)
        counterSource_ = nullptr;
}

SpanEvent &
SpanRecorder::nextSlot(std::uint32_t track)
{
    Track &t = tracks_[(std::uint64_t(currentPid_) << 32) | track];
    if (t.events.size() < capacity_) {
        t.events.emplace_back();
        return t.events.back();
    }
    SpanEvent &slot = t.events[t.next];
    t.next = (t.next + 1) % capacity_;
    t.dropped++;
    return slot;
}

void
SpanRecorder::push(SpanPhase phase, TraceCat cat, std::uint32_t track,
                   int core, Time ts, const char *name,
                   std::uint64_t value, const std::string &detail)
{
    Track &t = tracks_[(std::uint64_t(currentPid_) << 32) | track];
    // A flow's source timestamp can predate events the source track
    // recorded later in the same quantum (e.g. a wake stamped at
    // quantum start). Clamp flow phases up to the track's newest
    // event — deterministic, and keeps every track monotone.
    if (phase == SpanPhase::FlowStart || phase == SpanPhase::FlowStep
        || phase == SpanPhase::FlowEnd) {
        ts = std::max(ts, t.lastTs);
    }
    t.lastTs = std::max(t.lastTs, ts);
    SpanEvent &e = nextSlot(track);
    e.phase = phase;
    e.cat = cat;
    e.pid = currentPid_;
    e.track = track;
    e.core = static_cast<std::int32_t>(core);
    e.ts = ts;
    e.name = name;
    e.value = value;
    // Assign (not replace) so a recycled slot reuses its buffer: a
    // saturated ring then records detail-free spans with zero heap
    // traffic and detailed ones with at most an in-place copy.
    e.detail = detail;
}

void
SpanRecorder::maybeSampleCounters(std::uint32_t track, Time ts)
{
    if (counterSource_ == nullptr || samplePeriod_ == 0
        || ts < nextSampleAt_) {
        return;
    }
    nextSampleAt_ = ts + samplePeriod_;
    const MetricsSnapshot snap = counterSource_->peek();
    // Same payload convention as counterSample() (name in detail).
    for (const auto &[name, value] : snap.counters)
        push(SpanPhase::Counter, TraceCat::Fault, track, -1, ts,
             "counter", value, name);
}

void
SpanRecorder::begin(TraceCat cat, std::uint32_t track, int core, Time ts,
                    const char *name, std::string detail)
{
    maybeSampleCounters(track, ts);
    push(SpanPhase::Begin, cat, track, core, ts, name, 0, detail);
}

void
SpanRecorder::end(TraceCat cat, std::uint32_t track, int core, Time ts,
                  const char *name)
{
    static const std::string kNoDetail;
    push(SpanPhase::End, cat, track, core, ts, name, 0, kNoDetail);
}

void
SpanRecorder::span(TraceCat cat, std::uint32_t track, int core,
                   Time beginTs, Time endTs, const char *name,
                   std::string detail)
{
    static const std::string kNoDetail;
    maybeSampleCounters(track, beginTs);
    push(SpanPhase::Begin, cat, track, core, beginTs, name, 0, detail);
    push(SpanPhase::End, cat, track, core, endTs, name, 0, kNoDetail);
}

void
SpanRecorder::instant(TraceCat cat, std::uint32_t track, int core, Time ts,
                      const char *name, std::string detail)
{
    push(SpanPhase::Instant, cat, track, core, ts, name, 0, detail);
}

void
SpanRecorder::counterSample(std::uint32_t track, Time ts,
                            const std::string &name, std::uint64_t value)
{
    // Metric names are interned strings owned by a registry that can be
    // destroyed before export, so they travel in `detail`, not `name`.
    push(SpanPhase::Counter, TraceCat::Fault, track, -1, ts, "counter",
         value, name);
}

std::uint64_t
SpanRecorder::flowStart(TraceCat cat, std::uint32_t track, int core,
                        Time ts, const char *name)
{
    static const std::string kNoDetail;
    Track &t = tracks_[(std::uint64_t(currentPid_) << 32) | track];
    const std::uint64_t id =
        (std::uint64_t(currentPid_ & 0xffff) << 48)
        | (std::uint64_t(track & 0xffffff) << 24)
        | (t.flowNext++ & 0xffffff);
    push(SpanPhase::FlowStart, cat, track, core, ts, name, id,
         kNoDetail);
    return id;
}

void
SpanRecorder::flowStep(TraceCat cat, std::uint32_t track, int core,
                       Time ts, const char *name, std::uint64_t id)
{
    static const std::string kNoDetail;
    push(SpanPhase::FlowStep, cat, track, core, ts, name, id, kNoDetail);
}

void
SpanRecorder::flowEnd(TraceCat cat, std::uint32_t track, int core,
                      Time ts, const char *name, std::uint64_t id)
{
    static const std::string kNoDetail;
    push(SpanPhase::FlowEnd, cat, track, core, ts, name, id, kNoDetail);
}

SpanRecorder::CaptureMark
SpanRecorder::captureMark(std::uint32_t track) const
{
    const auto it =
        tracks_.find((std::uint64_t(currentPid_) << 32) | track);
    if (it == tracks_.end())
        return {};
    return {it->second.events.size() + it->second.dropped};
}

void
SpanRecorder::recordRequestExemplar(const std::string &group,
                                    std::uint64_t seq, Time arrivalNs,
                                    Time startNs, Time doneNs,
                                    std::uint32_t track,
                                    CaptureMark mark, std::size_t topK)
{
    if (topK == 0)
        return;
    const std::uint64_t latency =
        doneNs > arrivalNs ? doneNs - arrivalNs : 0;
    auto &pool = exemplars_[{currentPid_, group}];
    const auto slower = [&](const SpanExemplar &e) {
        if (e.latencyNs != latency)
            return e.latencyNs > latency;
        return e.seq < seq;
    };
    // Reject before copying: a full reservoir whose slowest entry
    // beats this request costs one comparison, not an event copy.
    if (pool.size() >= topK && slower(pool.back()))
        return;

    SpanExemplar ex;
    ex.pid = currentPid_;
    ex.group = group;
    ex.seq = seq;
    ex.arrivalNs = arrivalNs;
    ex.startNs = startNs;
    ex.doneNs = doneNs;
    ex.latencyNs = latency;
    ex.track = track;
    const auto it =
        tracks_.find((std::uint64_t(currentPid_) << 32) | track);
    if (it != tracks_.end()) {
        const Track &t = it->second;
        const std::uint64_t pushed = t.events.size() + t.dropped;
        std::uint64_t n = pushed - mark.pushed;
        if (n > t.events.size()) {
            ex.truncated = true; // ring lapped the request's own start
            n = t.events.size();
        }
        const std::vector<const SpanEvent *> all = ordered(t);
        ex.events.reserve(n);
        for (std::size_t i = all.size() - n; i < all.size(); i++)
            ex.events.push_back(*all[i]);
    }
    const auto pos = std::find_if(pool.begin(), pool.end(),
                                  [&](const SpanExemplar &e) {
                                      return !slower(e);
                                  });
    pool.insert(pos, std::move(ex));
    if (pool.size() > topK)
        pool.pop_back();
}

std::vector<SpanExemplar>
SpanRecorder::exemplars() const
{
    std::vector<SpanExemplar> out;
    for (const auto &[key, pool] : exemplars_)
        out.insert(out.end(), pool.begin(), pool.end());
    return out;
}

void
SpanRecorder::clear()
{
    tracks_.clear();
    exemplars_.clear();
    processLabels_.clear();
    currentPid_ = 1;
    nextPid_ = 2;
    nextSampleAt_ = 0;
    counterSource_ = nullptr;
}

std::uint64_t
SpanRecorder::eventCount() const
{
    std::uint64_t n = 0;
    for (const auto &[key, t] : tracks_)
        n += t.events.size();
    return n;
}

std::uint64_t
SpanRecorder::droppedCount() const
{
    std::uint64_t n = 0;
    for (const auto &[key, t] : tracks_)
        n += t.dropped;
    return n;
}

std::vector<const SpanEvent *>
SpanRecorder::ordered(const Track &t) const
{
    std::vector<const SpanEvent *> out;
    out.reserve(t.events.size());
    for (std::size_t i = 0; i < t.events.size(); i++)
        out.push_back(&t.events[(t.next + i) % t.events.size()]);
    return out;
}

std::vector<SpanEvent>
SpanRecorder::balanced(const Track &t) const
{
    std::vector<SpanEvent> out;
    out.reserve(t.events.size());
    std::vector<std::size_t> open; // indices into `out` of open Begins
    Time last = 0;
    for (const SpanEvent *e : ordered(t)) {
        last = std::max(last, e->ts);
        if (e->phase == SpanPhase::End) {
            if (open.empty())
                continue; // orphan End from a wrapped ring
            open.pop_back();
        } else if (e->phase == SpanPhase::Begin) {
            open.push_back(out.size());
        }
        out.push_back(*e);
    }
    // Close any still-open Begins (innermost first) at the last stamp.
    while (!open.empty()) {
        SpanEvent e = out[open.back()];
        open.pop_back();
        e.phase = SpanPhase::End;
        e.ts = last;
        e.detail.clear();
        out.push_back(std::move(e));
    }
    return out;
}

void
SpanRecorder::renderChrome(std::string &buf, std::FILE *file) const
{
    buf += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    auto comma = [&] {
        if (!first)
            buf += ",\n";
        first = false;
    };

    comma();
    buf += "{\"ph\":\"M\",\"pid\":0,\"name\":\"daxvm_dropped_events\","
           "\"args\":{\"value\":"
        + std::to_string(droppedCount()) + "}}";

    // Export order is the map's (pid, track) key order -- a pure
    // function of the simulation. Asserted so a future container swap
    // can't silently break the byte-stability of traces.
    assert(std::is_sorted(tracks_.begin(), tracks_.end(),
                          [](const auto &a, const auto &b) {
                              return a.first < b.first;
                          })
           && "span-trace export must ascend by (pid, track)");
    std::uint32_t lastPid = 0;
    for (const auto &[key, t] : tracks_) {
        const auto pid = static_cast<std::uint32_t>(key >> 32);
        const auto track = static_cast<std::uint32_t>(key);
        if (pid != lastPid) {
            lastPid = pid;
            const auto it = processLabels_.find(pid);
            const std::string label = it != processLabels_.end()
                                          ? it->second
                                          : "(no system)";
            comma();
            buf += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid)
                + ",\"name\":\"process_name\",\"args\":{\"name\":\"";
            appendEscaped(buf, label);
            buf += "\"}}";
        }
        comma();
        buf += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid)
            + ",\"tid\":" + std::to_string(track)
            + ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            + trackName(track) + "\"}}";

        for (const SpanEvent &e : balanced(t)) {
            comma();
            appendEventJson(buf, pid, track, e);
            flushIfFull(buf, file);
        }
    }
    buf += "\n]";

    // Preserved slowest-request span trees (docs/tracing.md). An
    // extra top-level key is legal Chrome-trace JSON: Perfetto and
    // analyzeChromeTrace() ignore it; tools/tail_report reads it.
    bool anyExemplar = false;
    for (const auto &[key, pool] : exemplars_) {
        for (const SpanExemplar &ex : pool) {
            buf += anyExemplar ? ",\n" : ",\n\"daxvmRequestExemplars\":[\n";
            anyExemplar = true;
            buf += "{\"pid\":" + std::to_string(ex.pid) + ",\"group\":\"";
            appendEscaped(buf, ex.group);
            buf += "\",\"seq\":" + std::to_string(ex.seq)
                + ",\"arrival_ns\":" + std::to_string(ex.arrivalNs)
                + ",\"start_ns\":" + std::to_string(ex.startNs)
                + ",\"done_ns\":" + std::to_string(ex.doneNs)
                + ",\"latency_ns\":" + std::to_string(ex.latencyNs)
                + ",\"track\":" + std::to_string(ex.track)
                + ",\"truncated\":";
            buf += ex.truncated ? "true" : "false";
            buf += ",\"events\":[";
            for (std::size_t i = 0; i < ex.events.size(); i++) {
                if (i > 0)
                    buf += ",";
                appendEventJson(buf, ex.pid, ex.track, ex.events[i]);
                flushIfFull(buf, file);
            }
            buf += "]}";
        }
    }
    if (anyExemplar)
        buf += "\n]";
    buf += "}\n";
}

void
SpanRecorder::renderFolded(std::string &buf, std::FILE *file) const
{
    // stack-line -> accumulated self virtual-time (ns)
    std::map<std::string, std::uint64_t> folded;
    for (const auto &[key, t] : tracks_) {
        const auto pid = static_cast<std::uint32_t>(key >> 32);
        const auto track = static_cast<std::uint32_t>(key);
        const auto it = processLabels_.find(pid);
        const std::string root =
            (it != processLabels_.end() ? it->second : "(no system)")
            + ";" + trackName(track);

        struct Frame
        {
            const char *name;
            Time begin;
            std::uint64_t childNs = 0;
        };
        std::vector<Frame> stack;
        for (const SpanEvent &e : balanced(t)) {
            if (e.phase == SpanPhase::Begin) {
                stack.push_back({e.name, e.ts, 0});
            } else if (e.phase == SpanPhase::End && !stack.empty()) {
                const Frame f = stack.back();
                stack.pop_back();
                const std::uint64_t dur = e.ts - f.begin;
                const std::uint64_t self =
                    dur > f.childNs ? dur - f.childNs : 0;
                if (!stack.empty())
                    stack.back().childNs += dur;
                std::string line = root;
                for (const Frame &outer : stack) {
                    line += ";";
                    line += outer.name;
                }
                line += ";";
                line += f.name;
                folded[line] += self;
            }
        }
    }
    for (const auto &[line, selfNs] : folded) {
        buf += line + " " + std::to_string(selfNs) + "\n";
        flushIfFull(buf, file);
    }
}

void
SpanRecorder::writeChromeTrace(std::FILE *out) const
{
    std::string buf;
    renderChrome(buf, out);
    if (!buf.empty())
        std::fwrite(buf.data(), 1, buf.size(), out);
}

std::string
SpanRecorder::chromeTraceString() const
{
    std::string buf;
    renderChrome(buf, nullptr);
    return buf;
}

void
SpanRecorder::writeFoldedStacks(std::FILE *out) const
{
    std::string buf;
    renderFolded(buf, out);
    if (!buf.empty())
        std::fwrite(buf.data(), 1, buf.size(), out);
}

std::string
SpanRecorder::foldedStacksString() const
{
    std::string buf;
    renderFolded(buf, nullptr);
    return buf;
}

namespace {

/** Round an exact-microsecond JSON timestamp back to integer ns. */
std::uint64_t
tsToNs(double tsUs)
{
    return static_cast<std::uint64_t>(tsUs * 1000.0 + 0.5);
}

struct OpenSpan
{
    std::string name;
    std::string detail;
    std::uint64_t beginNs;
    std::uint64_t childNs = 0;
};

/** The event's args.detail string ("" when absent). */
std::string
detailOf(const Json &ev)
{
    if (const Json *args = ev.find("args"))
        if (const Json *d = args->find("detail"))
            if (d->isString())
                return d->asString();
    return {};
}

/** TraceReport::instants key: category plus the detail's first word. */
std::string
instantKey(const Json &ev)
{
    const Json *cat = ev.find("cat");
    std::string key = cat != nullptr && cat->isString() ? cat->asString()
                                                        : "?";
    const std::string detail = detailOf(ev);
    if (!detail.empty())
        key += " " + detail.substr(0, detail.find(' '));
    return key;
}

} // namespace

TraceReport
analyzeChromeTrace(const Json &doc)
{
    TraceReport report;
    const Json *events = doc.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        report.problems.push_back("missing traceEvents array");
        return report;
    }

    struct TrackState
    {
        std::vector<OpenSpan> stack;
        std::uint64_t lastNs = 0;
        bool seen = false;
    };
    std::map<std::pair<std::int64_t, std::int64_t>, TrackState> tracks;

    std::size_t index = 0;
    for (const Json &ev : events->items()) {
        const std::size_t at = index++;
        if (!ev.isObject()) {
            report.problems.push_back(
                "event " + std::to_string(at) + ": not an object");
            continue;
        }
        const Json *ph = ev.find("ph");
        if (ph == nullptr || !ph->isString()) {
            report.problems.push_back(
                "event " + std::to_string(at) + ": missing ph");
            continue;
        }
        const std::string &phase = ph->asString();
        if (phase == "M") {
            const Json *name = ev.find("name");
            if (name != nullptr && name->isString()
                && name->asString() == "daxvm_dropped_events") {
                if (const Json *args = ev.find("args"))
                    if (const Json *v = args->find("value"))
                        report.dropped = v->asUint();
            }
            continue;
        }
        const bool isFlow =
            phase == "s" || phase == "t" || phase == "f";
        if (phase != "B" && phase != "E" && phase != "i" && phase != "C"
            && !isFlow) {
            report.problems.push_back("event " + std::to_string(at)
                                      + ": unknown ph '" + phase + "'");
            continue;
        }
        report.events++;

        const Json *pid = ev.find("pid");
        const Json *tid = ev.find("tid");
        const Json *ts = ev.find("ts");
        if (pid == nullptr || !pid->isNumber() || pid->asInt() < 0
            || tid == nullptr || !tid->isNumber() || tid->asInt() < 0) {
            report.problems.push_back(
                "event " + std::to_string(at) + ": malformed pid/tid");
            continue;
        }
        if (ts == nullptr || !ts->isNumber()) {
            report.problems.push_back(
                "event " + std::to_string(at) + ": missing ts");
            continue;
        }
        const std::uint64_t tsNs = tsToNs(ts->asDouble());
        TrackState &track = tracks[{pid->asInt(), tid->asInt()}];
        if (track.seen && tsNs < track.lastNs)
            report.nonMonotone++;
        track.seen = true;
        track.lastNs = std::max(track.lastNs, tsNs);

        if (isFlow) {
            report.flowEvents++;
            const Json *id = ev.find("id");
            if (id == nullptr || (!id->isString() && !id->isNumber()))
                report.problems.push_back("event " + std::to_string(at)
                                          + ": flow phase without id");
            continue;
        }
        if (phase == "i") {
            report.instants[instantKey(ev)]++;
            continue;
        }
        if (phase == "C")
            continue;

        const Json *name = ev.find("name");
        const std::string spanName =
            name != nullptr && name->isString() ? name->asString() : "";
        if (phase == "B") {
            track.stack.push_back({spanName, detailOf(ev), tsNs, 0});
            continue;
        }

        // phase == "E"
        if (track.stack.empty()) {
            report.problems.push_back(
                "event " + std::to_string(at) + ": E with no open B on "
                "track " + std::to_string(pid->asInt()) + "/"
                + std::to_string(tid->asInt()));
            continue;
        }
        const OpenSpan span = track.stack.back();
        track.stack.pop_back();
        const std::uint64_t dur =
            tsNs > span.beginNs ? tsNs - span.beginNs : 0;
        const std::uint64_t self =
            dur > span.childNs ? dur - span.childNs : 0;
        if (!track.stack.empty())
            track.stack.back().childNs += dur;

        SpanStat &stat = report.spans[span.name];
        stat.count++;
        stat.totalNs += dur;
        stat.selfNs += self;
        if (span.name == "fault") {
            report.faultCount++;
            report.faultTotalNs += dur;
        } else {
            for (const OpenSpan &outer : track.stack) {
                if (outer.name == "fault") {
                    SpanStat &child = report.faultChildren[span.name];
                    child.count++;
                    child.totalNs += dur;
                    child.selfNs += self;
                    break;
                }
            }
        }
        if (span.name == "lock_wait") {
            const std::string lock =
                span.detail.empty() ? "(unnamed)" : span.detail;
            report.lockWaits[lock]++;
            report.lockWaitNs[lock] += dur;
        }
    }

    for (const auto &[key, track] : tracks) {
        for (const OpenSpan &span : track.stack) {
            report.problems.push_back(
                "unclosed B '" + span.name + "' on track "
                + std::to_string(key.first) + "/"
                + std::to_string(key.second));
        }
    }
    return report;
}

namespace {

std::string
fmtUs(std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                  ns % 1000);
    return buf;
}

/** The first 20 schema problems, then a count of the rest. */
void
appendProblems(std::string &out, const std::vector<std::string> &problems)
{
    if (problems.empty())
        return;
    out += "\nproblems:\n";
    for (std::size_t i = 0; i < problems.size(); i++) {
        if (i == 20) {
            out += "  ... (" + std::to_string(problems.size() - 20)
                + " more)\n";
            break;
        }
        out += "  " + problems[i] + "\n";
    }
}

} // namespace

std::string
formatTraceReport(const TraceReport &report, std::size_t topN)
{
    std::string out;
    char line[256];

    std::snprintf(line, sizeof(line),
                  "events: %" PRIu64 "  flows: %" PRIu64
                  "  dropped: %" PRIu64 "  problems: %zu"
                  "  ts-regressions: %" PRIu64 "\n",
                  report.events, report.flowEvents, report.dropped,
                  report.problems.size(), report.nonMonotone);
    out += line;
    if (report.dropped > 0) {
        // Ring overflow means the spans and instants below are a
        // biased sample: whatever wrapped first is undercounted.
        // Attribution and instant tables over such a window would
        // claim precision the data no longer has, so refuse them
        // instead of printing wrong percentages and counts.
        std::snprintf(line, sizeof(line),
                      "attribution refused: ring overflow dropped %"
                      PRIu64 " events, totals would undercount "
                      "(raise DAXVM_TRACE_EVENTS)\n",
                      report.dropped);
        out += line;
        appendProblems(out, report.problems);
        return out;
    }

    std::vector<std::pair<std::string, SpanStat>> byName(
        report.spans.begin(), report.spans.end());
    std::sort(byName.begin(), byName.end(), [](const auto &a,
                                               const auto &b) {
        if (a.second.selfNs != b.second.selfNs)
            return a.second.selfNs > b.second.selfNs;
        return a.first < b.first;
    });

    out += "\ntop spans by self virtual time:\n";
    std::snprintf(line, sizeof(line), "  %-18s %10s %14s %14s %10s\n",
                  "span", "count", "total_us", "self_us", "mean_ns");
    out += line;
    std::size_t shown = 0;
    for (const auto &[name, stat] : byName) {
        if (shown++ >= topN)
            break;
        std::snprintf(line, sizeof(line),
                      "  %-18s %10" PRIu64 " %14s %14s %10" PRIu64 "\n",
                      name.c_str(), stat.count,
                      fmtUs(stat.totalNs).c_str(),
                      fmtUs(stat.selfNs).c_str(),
                      stat.count > 0 ? stat.totalNs / stat.count : 0);
        out += line;
    }

    out += "\nper-fault latency breakdown:\n";
    std::snprintf(line, sizeof(line),
                  "  faults: %" PRIu64 "  total: %s us  mean: %" PRIu64
                  " ns\n",
                  report.faultCount, fmtUs(report.faultTotalNs).c_str(),
                  report.faultCount > 0
                      ? report.faultTotalNs / report.faultCount
                      : 0);
    out += line;
    for (const auto &[name, stat] : report.faultChildren) {
        const double pct = report.faultTotalNs > 0
                               ? 100.0 * double(stat.totalNs)
                                     / double(report.faultTotalNs)
                               : 0.0;
        std::snprintf(line, sizeof(line),
                      "    %-16s %10" PRIu64 " %14s %6.1f%%\n",
                      name.c_str(), stat.count,
                      fmtUs(stat.totalNs).c_str(), pct);
        out += line;
    }

    out += "\nlock wait attribution:\n";
    for (const auto &[lock, ns] : report.lockWaitNs) {
        std::snprintf(line, sizeof(line),
                      "  %-20s %10" PRIu64 " waits %14s us\n",
                      lock.c_str(), report.lockWaits.at(lock),
                      fmtUs(ns).c_str());
        out += line;
    }
    if (report.lockWaitNs.empty())
        out += "  (no lock waits recorded)\n";

    out += "\ninstants by kind:\n";
    for (const auto &[kind, count] : report.instants) {
        std::snprintf(line, sizeof(line), "  %-32s %10" PRIu64 "\n",
                      kind.c_str(), count);
        out += line;
    }
    if (report.instants.empty())
        out += "  (no instants recorded)\n";

    out += "\nreconciliation totals (ns):\n";
    const auto total = [&](const char *name) -> std::uint64_t {
        const auto it = report.spans.find(name);
        return it != report.spans.end() ? it->second.totalNs : 0;
    };
    std::snprintf(line, sizeof(line),
                  "  fault_total_ns=%" PRIu64 "\n"
                  "  shootdown_total_ns=%" PRIu64 "\n"
                  "  journal_commit_total_ns=%" PRIu64 "\n",
                  report.faultTotalNs,
                  total("shootdown") + total("shootdown_full"),
                  total("journal_commit"));
    out += line;

    appendProblems(out, report.problems);
    return out;
}

} // namespace dax::sim
