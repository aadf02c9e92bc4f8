#include "telemetry/text_format.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/check.h"

namespace poseidon::telemetry {

namespace {

constexpr const char *kSchemaKey = "schema";
constexpr const char *kVersionKey = "schema_version";

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
        --e;
    }
    return s.substr(b, e - b);
}

Clause
parse_clause(const std::string &text, const std::string &dsl)
{
    Clause c;
    c.where = dsl + " clause \"" + text + "\"";
    auto add_field = [&c](const std::string &item) {
        std::size_t eq = item.find('=');
        std::string key = trim(item.substr(0, eq));
        POSEIDON_REQUIRE(eq != std::string::npos && !key.empty(),
                         c.where << ": \"" << item
                                 << "\" is not key=value");
        c.fields.emplace_back(key, trim(item.substr(eq + 1)));
    };
    std::size_t brace = text.find('{');
    if (brace == std::string::npos) {
        add_field(text);
        return c;
    }
    c.kind = trim(text.substr(0, brace));
    POSEIDON_REQUIRE(!c.kind.empty() && text.back() == '}',
                     c.where << ": want Kind{k=v, ...}");
    std::istringstream body(
        text.substr(brace + 1, text.size() - brace - 2));
    for (std::string item; std::getline(body, item, ',');) {
        if (!trim(item).empty()) add_field(item);
    }
    return c;
}

} // namespace

// ------------------------------------------------------ JSONL documents

Json
jsonl_header(const JsonlSchema &schema)
{
    Json h = Json::object();
    h.set(kSchemaKey, Json(schema.name));
    h.set(kVersionKey, Json(schema.version));
    return h;
}

void
read_jsonl(const std::string &text, const JsonlSchema &schema,
           const std::function<void(const Json &)> &onHeader,
           const JsonlLineFn &onLine)
{
    std::istringstream in(text);
    std::size_t lineNo = 0;
    bool sawHeader = false;
    std::vector<std::int64_t> declared(schema.counts.size());
    std::vector<std::int64_t> seen(schema.counts.size());
    for (std::string line; std::getline(in, line);) {
        ++lineNo;
        if (line.empty()) continue;
        try {
            Json j = Json::parse(line);
            if (sawHeader) {
                std::size_t kind = onLine(j);
                POSEIDON_CHECK(kind < seen.size(), "undeclared line kind");
                ++seen[kind];
                continue;
            }
            POSEIDON_REQUIRE_T(ParseError,
                               jsonl_schema_name(line) == schema.name,
                               "not a " << schema.name << " header");
            POSEIDON_REQUIRE_T(
                ParseError,
                json_int(j.at(kVersionKey), kVersionKey) ==
                    schema.version,
                "unsupported " << kVersionKey << " (want "
                               << schema.version << ")");
            for (std::size_t k = 0; k < declared.size(); ++k) {
                const std::string &key = schema.counts[k];
                declared[k] = json_int(j.at(key), key.c_str());
            }
            onHeader(j);
            sawHeader = true;
        } catch (const Error &e) {
            POSEIDON_THROW(ParseError, schema.noun << " line " << lineNo
                                                   << ": "
                                                   << e.message());
        }
    }
    POSEIDON_REQUIRE_T(ParseError, sawHeader,
                       schema.noun << " text has no header line");
    for (std::size_t k = 0; k < declared.size(); ++k) {
        POSEIDON_REQUIRE_T(ParseError, seen[k] == declared[k],
                           schema.noun << " header declares "
                           << declared[k] << " " << schema.counts[k]
                           << " but " << seen[k] << " follow");
    }
}

std::string
jsonl_schema_name(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line) && line.empty()) {
    }
    Json j = Json::parse(line); // ParseError when empty too
    POSEIDON_REQUIRE_T(ParseError,
                       j.is_object() && j.contains(kSchemaKey) &&
                           j.at(kSchemaKey).is_string(),
                       "not a schema'd JSONL header");
    return j.at(kSchemaKey).as_string();
}

std::int64_t
json_int(const Json &v, const char *what, std::int64_t lo,
         std::int64_t hi)
{
    lo = std::max(lo, -kMaxJsonInt);
    hi = std::min(hi, kMaxJsonInt);
    // Range-check the double: an out-of-range cast would be UB.
    double d = v.is_number() ? v.as_number() : std::nan("");
    POSEIDON_REQUIRE_T(ParseError,
                       d == std::floor(d) &&
                           d >= static_cast<double>(lo) &&
                           d <= static_cast<double>(hi),
                       "\"" << what << "\" = " << v.dump()
                            << " is not an integer in [" << lo << ", "
                            << hi << "]");
    return static_cast<std::int64_t>(d);
}

std::string
read_text_file(const std::string &path, const std::string &noun)
{
    std::ifstream in(path, std::ios::binary);
    POSEIDON_REQUIRE_T(ParseError, static_cast<bool>(in),
                       "cannot open " << noun << " file \"" << path
                                      << "\"");
    return std::string(std::istreambuf_iterator<char>(in), {});
}

bool
write_text_file(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

// ------------------------------------------------------ clause grammar

std::vector<std::string>
split_clauses(const std::string &spec)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find_first_of(";\n", start);
        if (end == std::string::npos) end = spec.size();
        std::string piece = trim(spec.substr(start, end - start));
        if (!piece.empty()) out.push_back(std::move(piece));
        start = end + 1;
    }
    return out;
}

std::vector<Clause>
parse_clauses(const std::string &spec, const std::string &dsl)
{
    std::vector<Clause> out;
    for (const std::string &text : split_clauses(spec)) {
        out.push_back(parse_clause(text, dsl));
    }
    return out;
}

double
parse_number(const std::string &tok, const std::string &where)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(tok.c_str(), &end);
    bool lead = !tok.empty() &&
                !std::isspace(static_cast<unsigned char>(tok[0]));
    POSEIDON_REQUIRE(lead && end == tok.c_str() + tok.size() &&
                         !std::isnan(v) &&
                         !(errno == ERANGE && std::isinf(v)),
                     where << ": malformed number \"" << tok << "\"");
    return v;
}

void
throw_bad_integer(const std::string &tok, const std::string &where)
{
    POSEIDON_THROW(InvalidArgument, where << ": \"" << tok
                                          << "\" is not an integer "
                                             "in range");
}

std::string
format_number(double v)
{
    if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
    return Json(v).dump();
}

} // namespace poseidon::telemetry
