/**
 * @file
 * tail_report - per-request critical-path and tail-latency forensics
 * over a Chrome span trace produced with `--trace` (docs/tracing.md,
 * tools/tail_analysis.h).
 *
 * Default mode prints the per-tenant critical-path attribution table
 * (refused when the recorder dropped events) and the preserved
 * slowest-request exemplars with their exact latency decomposition
 * and cross-tenant disruption arrows. `--validate` machine-checks the
 * trace instead: schema-clean, request spans present, and every
 * untruncated exemplar attributing >= 95% of its latency to named
 * segments - CI runs it on every uploaded trace.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/cli.h"
#include "sim/json.h"
#include "tools/tail_analysis.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--top K] [--validate] TRACE.json\n"
        "  --top K      exemplar rows per tenant (default 3)\n"
        "  --validate   machine check: schema, request spans, >=95%%\n"
        "               exemplar attribution; exit 1 on failure\n",
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
    std::size_t topK = 3;
    bool validateOnly = false;
    std::string path;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--top" && i + 1 < argc) {
            if (!dax::sim::parseNumber(argv[++i], topK)) {
                std::fprintf(stderr,
                             "tail_report: bad value '%s' for --top\n",
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
        std::fprintf(stderr, "tail_report: cannot read %s\n",
                     path.c_str());
        return 1;
    }
    std::string error;
    const dax::sim::Json doc = dax::sim::Json::parse(text, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "tail_report: %s: bad JSON: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }

    const dax::tools::TailReportData data =
        dax::tools::analyzeTailTrace(doc);
    if (validateOnly) {
        const std::string reason =
            dax::tools::validateTailReport(data);
        if (reason.empty()) {
            std::printf("%s: OK (%llu events, %llu requests, "
                        "%zu exemplars, %llu dropped)\n",
                        path.c_str(),
                        (unsigned long long)data.events,
                        (unsigned long long)data.requestsParsed,
                        data.exemplars.size(),
                        (unsigned long long)data.dropped);
            return 0;
        }
        std::fprintf(stderr, "%s: FAIL: %s\n", path.c_str(),
                     reason.c_str());
        return 1;
    }

    const std::string out =
        dax::tools::formatTailReport(data, topK);
    std::fwrite(out.data(), 1, out.size(), stdout);
    return data.problems.empty() ? 0 : 1;
}
