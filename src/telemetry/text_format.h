#ifndef POSEIDON_TELEMETRY_TEXT_FORMAT_H_
#define POSEIDON_TELEMETRY_TEXT_FORMAT_H_

/**
 * @file
 * The one text layer behind every dump and every spec: the JSONL
 * document reader/writer of the journal, cluster journal and TSDB
 * dumps (failures are line-numbered ParseErrors), and the clause
 * grammar of the chaos, host-chaos and alert specs (failures are
 * InvalidArgument naming the clause). Contract: DESIGN.md §17.
 */

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.h"

namespace poseidon::telemetry {

// ------------------------------------------------------ JSONL documents

/// What a JSONL format declares about itself; read_jsonl enforces it.
struct JsonlSchema
{
    std::string name;  ///< the header's "schema" value
    int version = 1;   ///< the one supported "schema_version"
    std::string noun;  ///< error-message prefix ("journal", "TSDB")
    /// Header keys declaring how many body lines of each kind follow,
    /// indexed by what the line decoder returns.
    std::vector<std::string> counts;
};

/// The schema name and version; the format appends its own fields.
Json jsonl_header(const JsonlSchema &schema);

/// Accumulates a document: the header line, then one line per object.
class JsonlWriter
{
  public:
    explicit JsonlWriter(const Json &header) { line(header); }
    void line(const Json &j)
    {
        text_ += j.dump();
        text_ += '\n';
    }
    std::string take() { return std::move(text_); }

  private:
    std::string text_;
};

/// Decodes one body line; returns its kind (index into counts).
using JsonlLineFn = std::function<std::size_t(const Json &line)>;

/// Header to `onHeader`, each later non-empty line to `onLine`; then
/// every kind's line count must match its declared count.
void read_jsonl(const std::string &text, const JsonlSchema &schema,
                const std::function<void(const Json &)> &onHeader,
                const JsonlLineFn &onLine);

/// The header's "schema" value, for tools that dispatch on it.
std::string jsonl_schema_name(const std::string &text);

/// Largest integer a JSON number (a double) carries exactly: 2^53.
inline constexpr std::int64_t kMaxJsonInt = std::int64_t(1) << 53;

/// `v` as an integer: a finite, integral number in [lo, hi] (clamped to
/// +-kMaxJsonInt), else ParseError naming `what`.
std::int64_t json_int(const Json &v, const char *what,
                      std::int64_t lo = 0,
                      std::int64_t hi = kMaxJsonInt);

/// Whole file as text; ParseError naming `noun` when unreadable.
std::string read_text_file(const std::string &path,
                           const std::string &noun);

/// Write `text` to `path`; false on I/O failure.
bool write_text_file(const std::string &path, const std::string &text);

// ------------------------------------------------------ clause grammar

/// `Kind{k=v, ...}`, or a standalone `k=v` (empty kind, one field).
struct Clause
{
    std::string kind;
    std::vector<std::pair<std::string, std::string>> fields;
    std::string where; ///< `<dsl> clause "<text>"`, for error messages
};

/// Split on `;` and newline; trim every piece and drop blank ones.
std::vector<std::string> split_clauses(const std::string &spec);

/// split_clauses, then read each piece; `dsl` names the spec in errors.
std::vector<Clause> parse_clauses(const std::string &spec,
                                  const std::string &dsl);

/// strtod number text, `inf` included; NaN, overflow and trailing
/// junk throw. Consumers needing a finite value check it themselves.
double parse_number(const std::string &tok, const std::string &where);

[[noreturn]] void throw_bad_integer(const std::string &tok,
                                    const std::string &where);

/// Exact integer text: decimal digits (a leading '-' only for signed
/// T) within T's range. No exponent and no rounding.
template <class T>
T
parse_integer(const std::string &tok, const std::string &where)
{
    T v{};
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (tok.empty() || ec != std::errc{} || ptr != end) {
        throw_bad_integer(tok, where);
    }
    return v;
}

/// Canonical number text, the inverse of parse_number: `inf`/`-inf`,
/// else Json::dump's exact form.
std::string format_number(double v);

} // namespace poseidon::telemetry

#endif // POSEIDON_TELEMETRY_TEXT_FORMAT_H_
