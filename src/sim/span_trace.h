/**
 * @file
 * Structured span tracing stamped with virtual time.
 *
 * The recorder keeps one bounded ring of typed events per (process,
 * track): Begin/End spans (nesting: a `fault` span contains its
 * `pt_walk`, `frame_alloc`, `zero`, `journal_commit` and shootdown
 * children), Instant events (one per DAX_TRACE call site, with the
 * formatted arguments as detail), and periodic Counter samples pulled
 * from the attached sim::MetricsRegistry. Tracks map to simulated
 * hardware threads and daemons; each sys::System registers as one
 * process so traces from sequential Systems (whose engine clocks
 * restart at zero) stay monotone per track.
 *
 * Two exporters: Chrome `trace_event` JSON (loadable in Perfetto) and
 * Brendan-Gregg folded stacks (flamegraphs). analyzeChromeTrace() is
 * the shared reader used by tools/trace_report and the tests; its
 * totals reconcile with the metrics registry (see docs/tracing.md).
 *
 * Everything here is disabled by default and costs one predictable
 * branch per call site when off. Recording never advances virtual
 * time, so traced runs are bit-identical to untraced ones.
 *
 * The recorder is shared process-wide (Trace::get()) and, like the
 * engine that drives it, single-threaded. Tracks map to engine thread
 * ids, so per-track event order (and thus export order) is a pure
 * function of the simulation.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dax::sim {

class Json;
class MetricsRegistry;

/** Trace categories: the recorder's enable mask has one bit each. */
enum class TraceCat : unsigned
{
    Fault = 0,
    Mmap,
    Shootdown,
    Fs,
    Daxvm,
    Prezero,
    Latr,
    Lock,
    Openloop,
    Sched,
    kCount,
};

const char *traceCatName(TraceCat cat);

enum class SpanPhase : std::uint8_t
{
    Begin,
    End,
    Instant,
    Counter,
    FlowStart, ///< Chrome "s": causal arrow leaves this track
    FlowStep,  ///< Chrome "t": arrow passes through
    FlowEnd,   ///< Chrome "f" (bp:e): arrow lands on this track
};

struct SpanEvent
{
    SpanPhase phase;
    TraceCat cat;
    std::uint32_t pid;   ///< process id (one per sys::System)
    std::uint32_t track; ///< engine thread id, or scratch-Cpu track
    std::int32_t core;
    Time ts;
    const char *name;    ///< static string literal
    std::uint64_t value; ///< Counter payload, or flow id (Flow* phases)
    std::string detail;  ///< optional formatted args ("" = none)
};

/**
 * One preserved request span tree: the slowest requests per (process,
 * group) survive ring overflow because their events are copied out of
 * the ring at request completion, before any later wrap can evict
 * them. `truncated` marks a capture whose leading events had already
 * been overwritten when the request finished (ring smaller than one
 * request's footprint).
 */
struct SpanExemplar
{
    std::uint32_t pid = 0;
    std::string group; ///< reservoir key, e.g. the tenant name
    std::uint64_t seq = 0;
    Time arrivalNs = 0;
    Time startNs = 0;
    Time doneNs = 0;
    std::uint64_t latencyNs = 0; ///< doneNs - arrivalNs
    std::uint32_t track = 0;
    bool truncated = false;
    std::vector<SpanEvent> events;
};

/** Tracks for engineless scratch Cpus start here (see spanTrackOf). */
constexpr std::uint32_t kScratchTrackBase = 1u << 16;

class SpanRecorder
{
  public:
    SpanRecorder();

    bool
    enabled(TraceCat cat) const
    {
        return (mask_ & (1u << static_cast<unsigned>(cat))) != 0;
    }
    bool anyEnabled() const { return mask_ != 0; }
    void enable(TraceCat cat) { mask_ |= 1u << static_cast<unsigned>(cat); }
    void
    disable(TraceCat cat)
    {
        mask_ &= ~(1u << static_cast<unsigned>(cat));
    }
    void enableAll() { mask_ = (1u << unsigned(TraceCat::kCount)) - 1; }
    void disableAll() { mask_ = 0; }

    /** Per-track ring capacity in events (oldest dropped on overflow). */
    void setCapacity(std::size_t perTrackEvents);
    std::size_t capacity() const { return capacity_; }

    /**
     * Register a new trace process (one per sys::System); subsequent
     * events carry its pid. @p counters, when non-null, becomes the
     * source for periodic counter samples. @return the pid.
     */
    std::uint32_t attachProcess(MetricsRegistry *counters,
                                const char *label);
    /** Drop the counter source if it is @p counters (System teardown). */
    void detachProcess(MetricsRegistry *counters);

    void begin(TraceCat cat, std::uint32_t track, int core, Time ts,
               const char *name, std::string detail = {});
    void end(TraceCat cat, std::uint32_t track, int core, Time ts,
             const char *name);
    /** Retrospective span, e.g. a lock wait known only on acquisition. */
    void span(TraceCat cat, std::uint32_t track, int core, Time beginTs,
              Time endTs, const char *name, std::string detail = {});
    void instant(TraceCat cat, std::uint32_t track, int core, Time ts,
                 const char *name, std::string detail = {});
    void counterSample(std::uint32_t track, Time ts,
                       const std::string &name, std::uint64_t value);

    /**
     * Start a causal flow (Chrome `s`) on @p track and return its id.
     * Ids are allocated from a per-track counter, so they are a pure
     * function of the simulation: `(pid << 48) | (track << 24) | seq`
     * (docs/tracing.md).
     * Flow timestamps are clamped up to the track's last recorded
     * event so arrows never make a track non-monotone.
     */
    std::uint64_t flowStart(TraceCat cat, std::uint32_t track, int core,
                            Time ts, const char *name);
    /** Continue a flow (Chrome `t`) on @p track. */
    void flowStep(TraceCat cat, std::uint32_t track, int core, Time ts,
                  const char *name, std::uint64_t id);
    /** Terminate a flow (Chrome `f`, binding point `e`) on @p track. */
    void flowEnd(TraceCat cat, std::uint32_t track, int core, Time ts,
                 const char *name, std::uint64_t id);

    /**
     * Snapshot of how many events (currentPid_, @p track) has pushed,
     * taken at request start; recordRequestExemplar() later copies
     * everything pushed since the mark.
     */
    struct CaptureMark
    {
        std::uint64_t pushed = 0;
    };
    CaptureMark captureMark(std::uint32_t track) const;

    /**
     * Offer a finished request to the per-(process, @p group) top-K
     * exemplar reservoir (K = @p topK, ordered by latency descending,
     * then seq ascending). Only an admitted request pays the event
     * copy; rejected offers are a comparison under the lock.
     */
    void recordRequestExemplar(const std::string &group,
                               std::uint64_t seq, Time arrivalNs,
                               Time startNs, Time doneNs,
                               std::uint32_t track, CaptureMark mark,
                               std::size_t topK);
    /** All reservoirs flattened, ordered by (pid, group, rank). */
    std::vector<SpanExemplar> exemplars() const;

    /** Drop all recorded events and process state; keep the mask. */
    void clear();

    std::uint64_t eventCount() const;
    std::uint64_t droppedCount() const;

    void writeChromeTrace(std::FILE *out) const;
    std::string chromeTraceString() const;
    void writeFoldedStacks(std::FILE *out) const;
    std::string foldedStacksString() const;

  private:
    struct Track
    {
        std::vector<SpanEvent> events; ///< ring once at capacity
        std::size_t next = 0;          ///< ring cursor
        std::uint64_t dropped = 0;
        std::uint64_t flowNext = 0; ///< per-track flow id counter
        Time lastTs = 0;            ///< newest push (flow ts clamp)
    };

    /**
     * Write one event into the track's ring in place. Recycled slots
     * keep their detail string's buffer (assigned into, not replaced),
     * so a saturated ring records without heap traffic.
     */
    void push(SpanPhase phase, TraceCat cat, std::uint32_t track,
              int core, Time ts, const char *name, std::uint64_t value,
              const std::string &detail);
    /** Next ring slot of (currentPid_, @p track), growing to capacity. */
    SpanEvent &nextSlot(std::uint32_t track);
    void maybeSampleCounters(std::uint32_t track, Time ts);
    /** Events of @p t in recording order (unrolls the ring). */
    std::vector<const SpanEvent *> ordered(const Track &t) const;
    /**
     * Recording order with ring damage repaired: orphan leading Ends
     * dropped, unclosed Begins closed at the track's last timestamp.
     * Balanced by construction, so exporters never emit an unmatched
     * phase even after wrap-around.
     */
    std::vector<SpanEvent> balanced(const Track &t) const;
    /** Render into @p buf, flushing to @p file (when non-null). */
    void renderChrome(std::string &buf, std::FILE *file) const;
    void renderFolded(std::string &buf, std::FILE *file) const;

    unsigned mask_ = 0;
    std::size_t capacity_;
    Time samplePeriod_;
    Time nextSampleAt_ = 0;
    std::uint32_t currentPid_ = 1;
    std::uint32_t nextPid_ = 2;
    std::map<std::uint32_t, std::string> processLabels_;
    std::map<std::uint64_t, Track> tracks_; ///< key: pid << 32 | track
    /** key: pid, group — each holds a latency-ordered top-K. */
    std::map<std::pair<std::uint32_t, std::string>,
             std::vector<SpanExemplar>>
        exemplars_;
    MetricsRegistry *counterSource_ = nullptr;
};

/** Aggregate statistics for one span name. */
struct SpanStat
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0; ///< total minus enclosed child spans
};

/** What analyzeChromeTrace() distills from a trace file. */
struct TraceReport
{
    std::uint64_t events = 0;
    std::uint64_t dropped = 0; ///< recorder-reported ring overflows
    std::uint64_t flowEvents = 0; ///< s/t/f causal-arrow phases
    std::map<std::string, SpanStat> spans;
    /** Spans closed while a `fault` span was open, keyed by name. */
    std::map<std::string, SpanStat> faultChildren;
    std::uint64_t faultCount = 0;
    std::uint64_t faultTotalNs = 0;
    std::map<std::string, std::uint64_t> lockWaits;
    std::map<std::string, std::uint64_t> lockWaitNs;
    /**
     * Instant events keyed by category plus kind, the first word of
     * the detail: "fault write", "daxvm zombie".
     */
    std::map<std::string, std::uint64_t> instants;
    /** Schema violations: unmatched E, unclosed B, malformed pid/tid. */
    std::vector<std::string> problems;
    /** Timestamp regressions per track (informational, see docs). */
    std::uint64_t nonMonotone = 0;
};

TraceReport analyzeChromeTrace(const Json &doc);
std::string formatTraceReport(const TraceReport &report,
                              std::size_t topN = 20);

} // namespace dax::sim
