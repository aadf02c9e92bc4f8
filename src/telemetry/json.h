#ifndef POSEIDON_TELEMETRY_JSON_H_
#define POSEIDON_TELEMETRY_JSON_H_

/**
 * @file
 * A minimal JSON value: enough for the telemetry subsystem to emit
 * metrics dumps, Chrome trace-event files and BENCH_*.json records,
 * and to parse them back (schema validation, round-trip tests).
 *
 * Deliberately small: UTF-8 pass-through (no surrogate handling
 * beyond \u escapes), numbers are doubles, objects preserve insertion
 * order. Parse failures throw poseidon::ParseError with an offset.
 */

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace poseidon::telemetry {

/// Escape a string for embedding between JSON quotes.
std::string json_escape(const std::string &s);

/// A parsed or under-construction JSON value.
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(std::nullptr_t) : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(int v) : type_(Type::Number), num_(v) {}
    Json(unsigned v) : type_(Type::Number), num_(v) {}
    Json(long v) : type_(Type::Number), num_(static_cast<double>(v)) {}
    Json(unsigned long v)
        : type_(Type::Number), num_(static_cast<double>(v)) {}
    Json(unsigned long long v)
        : type_(Type::Number), num_(static_cast<double>(v)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::Null; }
    bool is_number() const { return type_ == Type::Number; }
    bool is_string() const { return type_ == Type::String; }
    bool is_array() const { return type_ == Type::Array; }
    bool is_object() const { return type_ == Type::Object; }

    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;

    // ---- arrays ----
    void push_back(Json v);
    std::size_t size() const;
    const Json& at(std::size_t i) const;

    // ---- objects (insertion-ordered) ----
    /// Insert or overwrite a key.
    void set(const std::string &key, Json v);
    bool contains(const std::string &key) const;
    /// Lookup; throws poseidon::InvalidArgument when missing.
    const Json& at(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>>& items() const;

    /// Serialize. indent < 0 yields a compact single line; indent >= 0
    /// pretty-prints with that many spaces per level.
    std::string dump(int indent = -1) const;

    /// Parse a complete JSON document (throws poseidon::ParseError).
    static Json parse(const std::string &text);

  private:
    void dump_to(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

} // namespace poseidon::telemetry

#endif // POSEIDON_TELEMETRY_JSON_H_
