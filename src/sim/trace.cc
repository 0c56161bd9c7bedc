/**
 * @file
 * Trace implementation.
 */
#include "sim/trace.h"

#include <cstdlib>
#include <cstring>

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

Trace::Trace()
{
    if (const char *spec = std::getenv("DAXVM_TRACE"))
        enableFromSpec(spec);
}

Trace &
Trace::get()
{
    static Trace instance;
    return instance;
}

void
Trace::enableFromSpec(const std::string &spec)
{
    if (spec == "all") {
        enableAll();
        return;
    }
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string name = spec.substr(pos, comma - pos);
        for (unsigned c = 0;
             c < static_cast<unsigned>(TraceCat::kCount); c++) {
            if (name == traceCatName(static_cast<TraceCat>(c)))
                enable(static_cast<TraceCat>(c));
        }
        pos = comma + 1;
    }
}

void
Trace::log(TraceCat cat, Time now, const char *fmt, ...)
{
    char body[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(body, sizeof(body), fmt, args);
    va_end(args);

    char line[640];
    std::snprintf(line, sizeof(line), "[%11.3f us] %s: %s\n",
                  static_cast<double>(now) / 1e3, traceCatName(cat),
                  body);
    if (sink_ != nullptr)
        std::fputs(line, sink_);
    else
        captured_ += line;
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

    if (enabled(cat)) {
        char line[640];
        std::snprintf(line, sizeof(line), "[%11.3f us] %s: %s\n",
                      static_cast<double>(now) / 1e3, traceCatName(cat),
                      body);
        if (sink_ != nullptr)
            std::fputs(line, sink_);
        else
            captured_ += line;
    }
    if (spans_.enabled(cat))
        spans_.instant(cat, track, core, now, traceCatName(cat), body);
}

void
Trace::reset()
{
    mask_ = 0;
    sink_ = stderr;
    captured_.clear();
    spans_.disableAll();
    spans_.clear();
}

} // namespace dax::sim
