// Tests for the shared text layer: the clause grammar every DSL
// parses through (splitter, both clause forms, number and integer
// text, the canonical number printer) and the JSONL document reader
// and writer behind the journal, cluster journal and TSDB dumps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/text_format.h"

namespace poseidon {
namespace {

using namespace telemetry;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------ clause grammar

TEST(TextFormat, SplitClausesTrimsAndDropsBlanks)
{
    EXPECT_EQ(split_clauses(" a ; b\n\n ;\tc "),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(split_clauses("").empty());
    EXPECT_TRUE(split_clauses(" ; \n ;").empty());
}

TEST(TextFormat, ParseClausesReadsBothForms)
{
    std::vector<Clause> cs =
        parse_clauses("Kind{ k = 1 , j=2e6, }\n x = inf", "test DSL");
    ASSERT_EQ(cs.size(), 2u);
    EXPECT_EQ(cs[0].kind, "Kind");
    ASSERT_EQ(cs[0].fields.size(), 2u);
    EXPECT_EQ(cs[0].fields[0].first, "k");
    EXPECT_EQ(cs[0].fields[0].second, "1");
    EXPECT_EQ(cs[0].fields[1].second, "2e6");
    EXPECT_NE(cs[0].where.find("test DSL clause \"Kind{"),
              std::string::npos);
    EXPECT_TRUE(cs[1].kind.empty());
    ASSERT_EQ(cs[1].fields.size(), 1u);
    EXPECT_EQ(cs[1].fields[0].first, "x");
    EXPECT_EQ(cs[1].fields[0].second, "inf");
    EXPECT_TRUE(parse_clauses("Empty{}", "t").front().fields.empty());
}

TEST(TextFormat, ClauseGrammarRejectsMalformedStructure)
{
    for (const char *bad : {"Kind{a=1", "{a=1}", "Kind{a}", "plain",
                            "=5", "Kind{=5}", "Kind{a=1}}x"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parse_clauses(bad, "t"), InvalidArgument);
    }
}

TEST(TextFormat, NumberTextRejectsNanAcceptsInf)
{
    EXPECT_EQ(parse_number("inf", "t"), kInf);
    EXPECT_EQ(parse_number("-inf", "t"), -kInf);
    EXPECT_EQ(parse_number("2e6", "t"), 2e6);
    EXPECT_EQ(parse_number("0.25", "t"), 0.25);
    EXPECT_EQ(parse_number("-7", "t"), -7.0);
    for (const char *bad :
         {"nan", "NaN", "-nan", "1e999", "", "1.5x", " 1", "zero"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parse_number(bad, "t"), InvalidArgument);
    }
}

TEST(TextFormat, IntegerTextIsExact)
{
    EXPECT_EQ(parse_integer<std::uint64_t>("12345678901234567891", "t"),
              12345678901234567891ULL);
    EXPECT_EQ(parse_integer<int>("-5", "t"), -5);
    EXPECT_EQ(parse_integer<std::size_t>("0", "t"), 0u);
    for (const char *bad : {"-1", "1e3", "1.0", "nan", "inf", "", " 1",
                            "+1", "18446744073709551616"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(parse_integer<std::uint64_t>(bad, "t"),
                     InvalidArgument);
    }
    EXPECT_THROW(parse_integer<int>("99999999999", "t"),
                 InvalidArgument);
    EXPECT_THROW(parse_integer<unsigned>("4294967296", "t"),
                 InvalidArgument);
}

TEST(TextFormat, FormatNumberRoundTripsBitExactly)
{
    EXPECT_EQ(format_number(1234567.0), "1234567");
    EXPECT_EQ(format_number(kInf), "inf");
    EXPECT_EQ(format_number(-kInf), "-inf");
    EXPECT_EQ(format_number(0.25), "0.25");
    for (double v : {0.0, -0.0, 0.2, 1.0 / 3.0, 1234567.0, 1e300,
                     5e-324, 9007199254740993.0, kInf, -kInf}) {
        double back = parse_number(format_number(v), "t");
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << format_number(v);
    }
}

// ------------------------------------------------------ JSONL documents

const JsonlSchema kDoc{"test-doc", 2, "doc", {"as", "bs"}};

std::string
sample_doc()
{
    Json h = jsonl_header(kDoc);
    h.set("scale", Json(0.5));
    h.set("as", Json(2));
    h.set("bs", Json(1));
    JsonlWriter w(h);
    for (int i : {1, 2}) {
        Json a = Json::object();
        a.set("a", Json(i));
        w.line(a);
    }
    Json b = Json::object();
    b.set("b", Json("x"));
    w.line(b);
    return w.take();
}

/// Reads `text` as a kDoc document; lines with an "a" key are kind 0.
std::vector<std::int64_t>
read_doc(const std::string &text, double *scale = nullptr)
{
    std::vector<std::int64_t> as;
    read_jsonl(
        text, kDoc,
        [&](const Json &h) {
            double s = h.at("scale").as_number();
            if (scale) *scale = s;
        },
        [&](const Json &line) -> std::size_t {
            if (line.contains("a")) {
                as.push_back(json_int(line.at("a"), "a"));
                return 0;
            }
            return 1;
        });
    return as;
}

TEST(TextFormat, JsonlWriterAndReaderRoundTrip)
{
    std::string text = sample_doc();
    EXPECT_EQ(text.substr(0, text.find('\n')),
              "{\"schema\":\"test-doc\",\"schema_version\":2,"
              "\"scale\":0.5,\"as\":2,\"bs\":1}");
    double scale = 0.0;
    EXPECT_EQ(read_doc(text, &scale),
              (std::vector<std::int64_t>{1, 2}));
    EXPECT_EQ(scale, 0.5);
    EXPECT_EQ(jsonl_schema_name("\n" + text), "test-doc");
}

/// The ParseError message read_jsonl raises for `text`.
std::string
doc_error(const std::string &text)
{
    try {
        read_doc(text);
    } catch (const ParseError &e) {
        return e.message();
    }
    ADD_FAILURE() << "no ParseError for: " << text;
    return "";
}

TEST(TextFormat, JsonlReaderNumbersEveryFailingLine)
{
    std::string good = sample_doc();
    std::string header = good.substr(0, good.find('\n') + 1);
    // Body failures name their 1-based line; blank lines count.
    EXPECT_EQ(
        doc_error(header + "\n{\"a\":1.5}\n").rfind("doc line 3:", 0), 0u);
    EXPECT_EQ(doc_error(good + "not json\n").rfind("doc line 5:", 0), 0u);
    // Wrong-typed or missing header fields are ParseErrors on line 1.
    for (const char *h :
         {"{\"schema\":5}", "[1,2]",
          "{\"schema\":\"test-doc\",\"schema_version\":\"2\"}",
          "{\"schema\":\"test-doc\",\"schema_version\":1,\"scale\":1,"
          "\"as\":0,\"bs\":0}",
          "{\"schema\":\"test-doc\",\"schema_version\":2,\"scale\":1,"
          "\"as\":-1,\"bs\":0}",
          "{\"schema\":\"test-doc\",\"schema_version\":2,\"scale\":1,"
          "\"as\":0}",
          "{\"schema\":\"test-doc\",\"schema_version\":2,\"as\":0,"
          "\"bs\":0}"}) {
        SCOPED_TRACE(h);
        EXPECT_EQ(
            doc_error(std::string(h) + "\n").rfind("doc line 1:", 0), 0u);
    }
    // Document-level failures: no header, declared counts disagree.
    EXPECT_NE(doc_error("\n\n").find("no header"), std::string::npos);
    EXPECT_NE(doc_error(header).find("declares 2 as but 0 follow"),
              std::string::npos);
    EXPECT_THROW(jsonl_schema_name(""), ParseError);
    EXPECT_THROW(jsonl_schema_name("[1]\n"), ParseError);
}

TEST(TextFormat, JsonIntAcceptsOnlyExactIntegersInRange)
{
    EXPECT_EQ(json_int(Json(7), "k"), 7);
    EXPECT_EQ(json_int(Json(static_cast<double>(kMaxJsonInt)), "k"),
              kMaxJsonInt);
    EXPECT_EQ(json_int(Json(-3), "k", -5, 5), -3);
    for (const Json &bad : {Json(1.5), Json(-1), Json("1"), Json(true),
                            Json(1e300), Json(kInf),
                            Json(std::nan(""))}) {
        EXPECT_THROW(json_int(bad, "k"), ParseError) << bad.dump();
    }
    EXPECT_THROW(json_int(Json(6), "k", -5, 5), ParseError);
}

TEST(TextFormat, TextFilesRoundTripAndMissingFilesAreParseErrors)
{
    std::string path = testing::TempDir() + "text_format_doc.jsonl";
    ASSERT_TRUE(write_text_file(path, sample_doc()));
    EXPECT_EQ(read_text_file(path, "doc"), sample_doc());
    EXPECT_THROW(read_text_file(path + ".missing", "doc"), ParseError);
    EXPECT_FALSE(write_text_file("/no/such/dir/x.jsonl", "x"));
}

} // namespace
} // namespace poseidon
