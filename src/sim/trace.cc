/**
 * @file
 * Trace implementation.
 */
#include "sim/trace.h"

#include <cstdarg>
#include <cstdio>

namespace dax::sim {

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Fault:
        return "fault";
      case TraceCat::Mmap:
        return "mmap";
      case TraceCat::Shootdown:
        return "shootdown";
      case TraceCat::Fs:
        return "fs";
      case TraceCat::Daxvm:
        return "daxvm";
      case TraceCat::Prezero:
        return "prezero";
      case TraceCat::Latr:
        return "latr";
      case TraceCat::Lock:
        return "lock";
      case TraceCat::Openloop:
        return "openloop";
      case TraceCat::Sched:
        return "sched";
      case TraceCat::kCount:
        break;
    }
    return "?";
}

Trace &
Trace::get()
{
    static Trace instance;
    return instance;
}

void
Trace::event(TraceCat cat, std::uint32_t track, int core, Time now,
             const char *fmt, ...)
{
    char body[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(body, sizeof(body), fmt, args);
    va_end(args);
    spans_.instant(cat, track, core, now, traceCatName(cat), body);
}

void
Trace::reset()
{
    spans_.disableAll();
    spans_.clear();
}

} // namespace dax::sim
