/**
 * @file
 * JSON serialization and a small recursive-descent parser.
 */
#include "sim/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dax::sim {

std::int64_t
Json::asInt() const
{
    switch (type_) {
    case Type::Int:
        return int_;
    case Type::Uint:
        return static_cast<std::int64_t>(uint_);
    case Type::Double:
        return static_cast<std::int64_t>(double_);
    default:
        return 0;
    }
}

std::uint64_t
Json::asUint() const
{
    switch (type_) {
    case Type::Int:
        return int_ < 0 ? 0 : static_cast<std::uint64_t>(int_);
    case Type::Uint:
        return uint_;
    case Type::Double:
        return double_ < 0 ? 0 : static_cast<std::uint64_t>(double_);
    default:
        return 0;
    }
}

double
Json::asDouble() const
{
    switch (type_) {
    case Type::Int:
        return static_cast<double>(int_);
    case Type::Uint:
        return static_cast<double>(uint_);
    case Type::Double:
        return double_;
    default:
        return 0.0;
    }
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

namespace {

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
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
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    char buf[64];
    switch (type_) {
    case Type::Null:
        out += "null";
        break;
    case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
    case Type::Int:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(int_));
        out += buf;
        break;
    case Type::Uint:
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(uint_));
        out += buf;
        break;
    case Type::Double:
        if (std::isfinite(double_)) {
            // Round-trip exact for doubles; integral values still get
            // a fractional marker so parsing preserves the type.
            std::snprintf(buf, sizeof(buf), "%.17g", double_);
            out += buf;
            if (out.find_first_of(".eE", out.size() - std::strlen(buf))
                == std::string::npos)
                out += ".0";
        } else {
            out += "null"; // JSON has no inf/nan
        }
        break;
    case Type::String:
        escapeString(out, string_);
        break;
    case Type::Array: {
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const auto &v : array_) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
        break;
    }
    case Type::Object: {
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, value] : object_) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            escapeString(out, key);
            out += indent > 0 ? ": " : ":";
            value.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
        break;
    }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool failed() const { return !error.empty(); }

    void
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
    }

    void
    skipWs()
    {
        while (pos < text.size()
               && std::isspace(static_cast<unsigned char>(text[pos])))
            pos++;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            pos++;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text.compare(pos, n, word) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    Json
    parseString()
    {
        std::string out;
        if (!consume('"')) {
            fail("expected string");
            return Json();
        }
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos + 4 > text.size()) {
                    fail("truncated \\u escape");
                    return Json();
                }
                const unsigned code = static_cast<unsigned>(
                    std::strtoul(text.substr(pos, 4).c_str(), nullptr, 16));
                pos += 4;
                // Metrics names/paths are ASCII; encode BMP points as
                // UTF-8 for completeness.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail("bad escape");
                return Json();
            }
        }
        if (pos >= text.size()) {
            fail("unterminated string");
            return Json();
        }
        pos++; // closing quote
        return Json(std::move(out));
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            pos++;
        bool isFloat = false;
        while (pos < text.size()) {
            const char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                pos++;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-'
                       || c == '+') {
                if (c == '.' || c == 'e' || c == 'E')
                    isFloat = true;
                pos++;
            } else {
                break;
            }
        }
        const std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-") {
            fail("expected number");
            return Json();
        }
        if (!isFloat) {
            errno = 0;
            if (tok[0] == '-') {
                const long long v = std::strtoll(tok.c_str(), nullptr, 10);
                if (errno == 0)
                    return Json(static_cast<std::int64_t>(v));
            } else {
                const unsigned long long v =
                    std::strtoull(tok.c_str(), nullptr, 10);
                if (errno == 0)
                    return Json(static_cast<std::uint64_t>(v));
            }
        }
        return Json(std::strtod(tok.c_str(), nullptr));
    }

    Json
    parseValue(int depth)
    {
        if (depth > 128) {
            fail("nesting too deep");
            return Json();
        }
        skipWs();
        if (pos >= text.size()) {
            fail("unexpected end of input");
            return Json();
        }
        const char c = text[pos];
        if (c == '{') {
            pos++;
            Json obj = Json::object();
            skipWs();
            if (consume('}'))
                return obj;
            for (;;) {
                skipWs();
                Json key = parseString();
                if (failed())
                    return Json();
                if (!consume(':')) {
                    fail("expected ':'");
                    return Json();
                }
                obj[key.asString()] = parseValue(depth + 1);
                if (failed())
                    return Json();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return obj;
                fail("expected ',' or '}'");
                return Json();
            }
        }
        if (c == '[') {
            pos++;
            Json arr = Json::array();
            skipWs();
            if (consume(']'))
                return arr;
            for (;;) {
                arr.push(parseValue(depth + 1));
                if (failed())
                    return Json();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return arr;
                fail("expected ',' or ']'");
                return Json();
            }
        }
        if (c == '"')
            return parseString();
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json(nullptr);
        return parseNumber();
    }
};

} // namespace

Json
Json::parse(const std::string &text, std::string *error)
{
    Parser p{text, 0, {}};
    Json v = p.parseValue(0);
    p.skipWs();
    if (!p.failed() && p.pos != text.size())
        p.fail("trailing garbage");
    if (p.failed()) {
        if (error != nullptr)
            *error = p.error;
        return Json();
    }
    if (error != nullptr)
        error->clear();
    return v;
}

} // namespace dax::sim
