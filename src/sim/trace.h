/**
 * @file
 * Category-based event tracing (gem5 DPRINTF-style call sites).
 *
 * DAX_TRACE call sites record one Instant event each into the
 * structured SpanRecorder (Trace::get().spans()), and DAX_SPAN scopes
 * add Begin/End pairs; both are filtered by the recorder's category
 * mask (see sim/span_trace.h for the TraceCat list). Recordings export
 * as Chrome trace_event JSON or folded stacks, and tools/trace_report
 * tallies the instants by kind. Benches enable every category with
 * `--trace FILE`.
 *
 * Everything is off by default and adds one predictable branch per
 * call site when disabled. reset() restores the pristine state between
 * tests.
 */
#pragma once

#include <cstdint>

#include "sim/engine.h"
#include "sim/span_trace.h"
#include "sim/time.h"

namespace dax::sim {

/** Span track of a Cpu: engine thread id, or a scratch-Cpu track. */
inline std::uint32_t
spanTrackOf(const Cpu &cpu)
{
    const auto id = static_cast<std::uint32_t>(cpu.threadId());
    // Scratch Cpus commonly carry threadId -1: mask to 16 bits so the
    // scratch track space never wraps into the engine-thread range.
    return cpu.engine() != nullptr ? id
                                   : kScratchTrackBase + (id & 0xffffu);
}

class Trace
{
  public:
    /** Global tracer. */
    static Trace &get();

    /** Structured span recorder behind the DAX_TRACE call sites. */
    SpanRecorder &spans() { return spans_; }

    /**
     * Record one Instant event whose detail is the printf-formatted
     * body. Call through DAX_TRACE, which checks the category first.
     */
    void event(TraceCat cat, std::uint32_t track, int core, Time now,
               const char *fmt, ...)
        __attribute__((format(printf, 6, 7)));

    /**
     * Restore the pristine state: all categories off and recorded
     * spans dropped. Lets tests sandbox tracing instead of leaking
     * enabled categories into later tests in the same binary.
     */
    void reset();

  private:
    Trace() = default;

    SpanRecorder spans_;
};

/** Call-site helper: no-op (one branch) when the category is off. */
#define DAX_TRACE(cat, cpu, ...)                                        \
    do {                                                                \
        auto &traceInstance = ::dax::sim::Trace::get();                 \
        if (traceInstance.spans().enabled(cat))                         \
            traceInstance.event(cat, ::dax::sim::spanTrackOf(cpu),      \
                                (cpu).coreId(), (cpu).now(),            \
                                __VA_ARGS__);                           \
    } while (0)

/**
 * RAII Begin/End span scope. Cheap when recording is off: the
 * constructor takes one predictable branch and leaves the scope inert.
 * The name must be a static string literal.
 */
class SpanScope
{
  public:
    SpanScope(TraceCat cat, const Cpu &cpu, const char *name)
    {
        SpanRecorder &rec = Trace::get().spans();
        if (rec.enabled(cat)) {
            rec_ = &rec;
            cpu_ = &cpu;
            cat_ = cat;
            name_ = name;
            rec.begin(cat, spanTrackOf(cpu), cpu.coreId(), cpu.now(),
                      name);
        }
    }

    ~SpanScope()
    {
        if (rec_ != nullptr) {
            rec_->end(cat_, spanTrackOf(*cpu_), cpu_->coreId(),
                      cpu_->now(), name_);
        }
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_ = nullptr;
    const Cpu *cpu_ = nullptr;
    const char *name_ = nullptr;
    TraceCat cat_{};
};

#define DAX_SPAN_CONCAT2(a, b) a##b
#define DAX_SPAN_CONCAT(a, b) DAX_SPAN_CONCAT2(a, b)

/** Scope the rest of the block as one named span on @p cpu's track. */
#define DAX_SPAN(cat, cpu, name)                                        \
    ::dax::sim::SpanScope DAX_SPAN_CONCAT(daxSpanScope_, __COUNTER__)(  \
        cat, cpu, name)

} // namespace dax::sim
