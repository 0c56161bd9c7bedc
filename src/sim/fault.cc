/**
 * @file
 * FaultPlan implementation.
 */
#include "sim/fault.h"

#include <charconv>
#include <stdexcept>
#include <vector>

#include "sim/cli.h"
#include "sim/rng.h"

namespace dax::sim {

const char *
faultEventName(FaultEvent ev)
{
    switch (ev) {
      case FaultEvent::DurableStore:
        return "durable-store";
      case FaultEvent::Flush:
        return "flush";
      case FaultEvent::Drain:
        return "drain";
      case FaultEvent::JournalCommit:
        return "journal-commit";
      case FaultEvent::NovaCommit:
        return "nova-commit";
      case FaultEvent::TableUpdate:
        return "table-update";
      case FaultEvent::PrezeroRelease:
        return "prezero-release";
      case FaultEvent::RecoveryReplay:
        return "recovery-replay";
      case FaultEvent::kCount_:
        break;
    }
    return "?";
}

FaultPlan
FaultPlan::randomIndex(std::uint64_t seed, std::uint64_t totalEvents)
{
    Rng rng(seed);
    return atIndex(totalEvents == 0 ? 0 : rng.below(totalEvents));
}

void
FaultPlan::onEvent(FaultEvent ev, Time now)
{
    const std::uint64_t index = seen_++;
    const std::uint64_t kindIndex =
        perKind_[static_cast<int>(ev)]++;
    if (fired_)
        return;

    bool crash = false;
    if (targetIndex_ && index == *targetIndex_)
        crash = true;
    if (targetKind_ && ev == *targetKind_
        && kindIndex == targetKindIndex_)
        crash = true;
    if (targetTime_ && now >= *targetTime_)
        crash = true;
    if (!crash)
        return;
    fired_ = true;
    throw CrashException(ev, index, now);
}

namespace {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t next = s.find(sep, pos);
        if (next == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, next - pos));
        pos = next + 1;
    }
    return out;
}

[[noreturn]] void
bad(const std::string &what, const std::string &token)
{
    throw std::invalid_argument("fault spec: " + what + " '" + token
                                + "'");
}

std::uint64_t
parseU64(const std::string &v, const std::string &token)
{
    std::uint64_t n = 0;
    if (parseNumber(v, n))
        return n;
    // Only an all-digit string fails by being too large.
    const bool digits =
        !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
    bad(digits ? "number out of range in" : "bad number in", token);
}

double
parseF64(const std::string &v, const std::string &token)
{
    double x = 0.0;
    if (parseNumber(v, x))
        return x;
    // Tell overflow ("1e999") from malformed or non-finite input.
    const char *end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, x);
    bad(ec == std::errc::result_out_of_range && ptr == end
            ? "real number out of range in"
            : "bad real number in",
        token);
}

FaultEvent
parseEventName(const std::string &name, const std::string &token)
{
    for (int i = 0; i < static_cast<int>(FaultEvent::kCount_); i++) {
        const auto ev = static_cast<FaultEvent>(i);
        if (name == faultEventName(ev))
            return ev;
    }
    bad("unknown event kind in", token);
}

void
parseCrash(FaultPlan &plan, const std::string &body)
{
    const auto parts = split(body, ':');
    if (parts[0] == "index" && parts.size() == 2) {
        plan = FaultPlan::atIndex(parseU64(parts[1], body));
    } else if (parts[0] == "kind"
               && (parts.size() == 2 || parts.size() == 3)) {
        const FaultEvent ev = parseEventName(parts[1], body);
        const std::uint64_t n =
            parts.size() == 3 ? parseU64(parts[2], body) : 0;
        plan = FaultPlan::atKind(ev, n);
    } else if (parts[0] == "time" && parts.size() == 2) {
        plan = FaultPlan::atTime(parseU64(parts[1], body));
    } else if (parts[0] == "random" && parts.size() == 3) {
        plan = FaultPlan::randomIndex(parseU64(parts[1], body),
                                      parseU64(parts[2], body));
    } else {
        bad("unknown crash clause", body);
    }
}

void
parseMedia(MediaSpec &media, std::string &policy, const std::string &body)
{
    for (const auto &item : split(body, ',')) {
        const auto kv = split(item, ':');
        if (kv[0] == "seed" && kv.size() == 2) {
            media.seed = parseU64(kv[1], item);
        } else if (kv[0] == "ue" && kv.size() == 2) {
            media.backgroundRate = parseF64(kv[1], item);
        } else if (kv[0] == "wear"
                   && (kv.size() == 2 || kv.size() == 3)) {
            media.wearScale = parseF64(kv[1], item);
            if (kv.size() == 3)
                media.wearShape = parseF64(kv[2], item);
        } else if (kv[0] == "torn" && kv.size() == 1) {
            media.poisonTornStore = true;
        } else if (kv[0] == "policy" && kv.size() == 2) {
            if (kv[1] != "fail-fast" && kv[1] != "remap-zero"
                && kv[1] != "remap-restore")
                bad("unknown media policy", item);
            policy = kv[1];
        } else {
            bad("unknown media clause", item);
        }
    }
}

} // namespace

FaultSpec
parseFaultSpec(const std::string &spec)
{
    FaultSpec out;
    bool haveMedia = false;
    MediaSpec media;
    for (const auto &clause : split(spec, ';')) {
        if (clause.empty())
            continue;
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            bad("missing '=' in clause", clause);
        const std::string key = clause.substr(0, eq);
        const std::string body = clause.substr(eq + 1);
        if (key == "crash") {
            parseCrash(out.plan, body);
        } else if (key == "media") {
            haveMedia = true;
            parseMedia(media, out.policy, body);
        } else {
            bad("unknown clause", clause);
        }
    }
    if (haveMedia)
        out.plan.setMedia(media);
    return out;
}

} // namespace dax::sim
