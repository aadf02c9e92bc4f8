// Schema validator for BENCH_<name>.json files (bench_harness.h).
// Accepts schema_version 2 only, whose git_sha / threads / hw_config
// stamps the bench_compare regression gate keys on. CI runs this
// against every JSON a bench emits; any drift — missing key, wrong
// type, non-finite or out-of-range value — exits nonzero with a
// message naming the offending field.
//
// Usage: validate_bench_json FILE.json [FILE.json ...]

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/json.h"

using poseidon::telemetry::Json;

namespace {

int
fail(const std::string &path, const std::string &why)
{
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), why.c_str());
    return 1;
}

int
validate(const std::string &path)
{
    std::ifstream in(path);
    if (!in) return fail(path, "cannot open");
    std::ostringstream ss;
    ss << in.rdbuf();

    Json root;
    try {
        root = Json::parse(ss.str());
    } catch (const std::exception &e) {
        return fail(path, std::string("parse error: ") + e.what());
    }
    if (!root.is_object()) return fail(path, "root is not an object");

    for (const char *key : {"schema_version", "name", "git", "config",
                            "metrics", "cycles", "seconds",
                            "bandwidth_util", "git_sha", "threads",
                            "hw_config"}) {
        if (!root.contains(key)) {
            return fail(path, std::string("missing key \"") + key +
                                  "\"");
        }
    }
    if (!root.at("schema_version").is_number() ||
        root.at("schema_version").as_number() != 2.0) {
        return fail(path, "schema_version must be 2");
    }
    if (!root.at("git_sha").is_string() ||
        root.at("git_sha").as_string().empty()) {
        return fail(path, "git_sha must be a non-empty string");
    }
    const Json &th = root.at("threads");
    if (!th.is_number() || !std::isfinite(th.as_number()) ||
        th.as_number() < 1.0 ||
        th.as_number() !=
            static_cast<double>(static_cast<long long>(th.as_number()))) {
        return fail(path, "threads must be an integer >= 1");
    }
    if (!root.at("hw_config").is_string() ||
        root.at("hw_config").as_string().empty()) {
        return fail(path, "hw_config must be a non-empty string");
    }
    if (root.contains("tsdb")) {
        // Optional stamp tying the document to a TSDB dump written
        // alongside it (bench_harness::tsdb_stamp).
        const Json &ts = root.at("tsdb");
        if (!ts.is_object()) {
            return fail(path, "tsdb must be an object");
        }
        for (const char *key : {"cadence_cycles", "series"}) {
            if (!ts.contains(key)) {
                return fail(path, std::string("tsdb: missing key \"") +
                                      key + "\"");
            }
        }
        const Json &cad = ts.at("cadence_cycles");
        if (!cad.is_number() || !std::isfinite(cad.as_number()) ||
            cad.as_number() <= 0.0) {
            return fail(path,
                        "tsdb.cadence_cycles must be a finite "
                        "number > 0");
        }
        const Json &ns = ts.at("series");
        if (!ns.is_number() || !std::isfinite(ns.as_number()) ||
            ns.as_number() < 1.0 ||
            ns.as_number() !=
                static_cast<double>(
                    static_cast<long long>(ns.as_number()))) {
            return fail(path, "tsdb.series must be an integer >= 1");
        }
    }
    if (!root.at("name").is_string() ||
        root.at("name").as_string().empty()) {
        return fail(path, "name must be a non-empty string");
    }
    if (!root.at("git").is_string()) {
        return fail(path, "git must be a string");
    }
    if (!root.at("config").is_object()) {
        return fail(path, "config must be an object");
    }
    if (!root.at("metrics").is_object()) {
        return fail(path, "metrics must be an object");
    }
    for (const char *key : {"cycles", "seconds"}) {
        const Json &v = root.at(key);
        if (!v.is_number() || !std::isfinite(v.as_number()) ||
            v.as_number() < 0.0) {
            return fail(path, std::string(key) +
                                  " must be a finite number >= 0");
        }
    }
    const Json &bw = root.at("bandwidth_util");
    if (!bw.is_number() || !std::isfinite(bw.as_number()) ||
        bw.as_number() < 0.0 || bw.as_number() > 1.0) {
        return fail(path, "bandwidth_util must be in [0, 1]");
    }
    for (const auto &kv : root.at("metrics").items()) {
        if (!kv.second.is_number() ||
            !std::isfinite(kv.second.as_number())) {
            return fail(path, "metric \"" + kv.first +
                                  "\" is not a finite number");
        }
    }
    std::printf("%s: ok (name=%s, %zu metrics)\n", path.c_str(),
                root.at("name").as_string().c_str(),
                root.at("metrics").items().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: validate_bench_json FILE.json [...]\n");
        return 2;
    }
    int rc = 0;
    for (int i = 1; i < argc; ++i) rc |= validate(argv[i]);
    return rc;
}
