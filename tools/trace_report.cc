/**
 * @file
 * trace_report - summarize a Chrome trace_event span trace produced
 * with `--trace` (see docs/tracing.md).
 *
 * Default mode prints the top spans by self virtual time, the
 * per-fault latency breakdown, per-lock wait attribution, and the
 * DAX_TRACE instants counted by kind (`fault write`, `daxvm zombie`);
 * the totals reconcile with the bench's metrics snapshot. `--validate`
 * checks the trace's structure instead (every E matches a B, pids and
 * tids well-formed) and exits non-zero on any violation - CI runs it
 * on every uploaded trace.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/cli.h"
#include "sim/json.h"
#include "sim/span_trace.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--top N] [--validate] TRACE.json\n"
        "  --top N      spans to list in the self-time table "
        "(default 20)\n"
        "  --validate   only check trace structure; exit 1 on any "
        "schema violation\n",
        argv0);
}

std::string
readFile(const std::string &path, bool &ok)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        ok = false;
        return {};
    }
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    ok = std::ferror(f) == 0;
    std::fclose(f);
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t topN = 20;
    bool validateOnly = false;
    std::string path;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--top" && i + 1 < argc) {
            if (!dax::sim::parseNumber(argv[++i], topN)) {
                std::fprintf(stderr,
                             "trace_report: bad value '%s' for --top\n",
                             argv[i]);
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--validate") {
            validateOnly = true;
        } else if (arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
            path = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (path.empty()) {
        usage(argv[0]);
        return 2;
    }

    bool ok = true;
    const std::string text = readFile(path, ok);
    if (!ok) {
        std::fprintf(stderr, "trace_report: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    std::string error;
    const dax::sim::Json doc = dax::sim::Json::parse(text, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "trace_report: %s: bad JSON: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }

    const dax::sim::TraceReport report =
        dax::sim::analyzeChromeTrace(doc);
    if (validateOnly) {
        if (report.problems.empty()) {
            std::printf("%s: OK (%llu events, %llu dropped)\n",
                        path.c_str(),
                        (unsigned long long)report.events,
                        (unsigned long long)report.dropped);
            return 0;
        }
        for (const auto &p : report.problems)
            std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
        std::fprintf(stderr, "%s: %zu schema violation(s)\n",
                     path.c_str(), report.problems.size());
        return 1;
    }

    const std::string out =
        dax::sim::formatTraceReport(report, topN);
    std::fwrite(out.data(), 1, out.size(), stdout);
    return report.problems.empty() ? 0 : 1;
}
