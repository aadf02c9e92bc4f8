#include "telemetry/alerts.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "telemetry/text_format.h"

namespace poseidon::telemetry {

const char*
to_string(AlertCmp c)
{
    switch (c) {
    case AlertCmp::GT: return ">";
    case AlertCmp::GE: return ">=";
    case AlertCmp::LT: return "<";
    case AlertCmp::LE: return "<=";
    }
    return "?";
}

const char*
to_string(AlertSeverity s)
{
    switch (s) {
    case AlertSeverity::Warn: return "warn";
    case AlertSeverity::Page: return "page";
    }
    return "?";
}

const char*
to_string(AlertState s)
{
    switch (s) {
    case AlertState::Inactive: return "inactive";
    case AlertState::Pending: return "pending";
    case AlertState::Firing: return "firing";
    }
    return "?";
}

bool
AlertRule::condition(double value) const
{
    if (std::isnan(value)) return false;
    switch (cmp) {
    case AlertCmp::GT: return value > threshold;
    case AlertCmp::GE: return value >= threshold;
    case AlertCmp::LT: return value < threshold;
    case AlertCmp::LE: return value <= threshold;
    }
    return false;
}

namespace {

/// A finite number token of the rule `clause`.
double
parse_num(const std::string &tok, const std::string &clause)
{
    double v = parse_number(tok, "alert rule \"" + clause + "\"");
    POSEIDON_REQUIRE(std::isfinite(v), "alert rule \"" << clause
                     << "\": \"" << tok << "\" is not finite");
    return v;
}

std::vector<std::string>
tokenize(const std::string &clause)
{
    std::vector<std::string> toks;
    std::istringstream in(clause);
    std::string tok;
    while (in >> tok) toks.push_back(tok);
    return toks;
}

} // namespace

std::string
AlertRule::str() const
{
    std::string out = metric;
    out += ' ';
    out += to_string(cmp);
    out += ' ';
    out += format_number(threshold);
    if (forCycles > 0.0) {
        out += " for ";
        out += format_number(forCycles);
        out += " cycles";
    }
    if (holdCycles > 0.0) {
        out += " hold ";
        out += format_number(holdCycles);
        out += " cycles";
    }
    out += " => ";
    out += to_string(severity);
    return out;
}

std::string
AlertRules::str() const
{
    std::string out;
    for (const AlertRule &r : rules) {
        if (!out.empty()) out += "; ";
        out += r.str();
    }
    return out;
}

AlertRules
AlertRules::parse(const std::string &spec)
{
    AlertRules out;
    for (const std::string &text : split_clauses(spec)) {
        std::vector<std::string> toks = tokenize(text);
        POSEIDON_REQUIRE(toks.size() >= 3,
                         "alert rule \"" << text
                         << "\": want <metric> <cmp> <threshold>");
        AlertRule r;
        r.metric = toks[0];
        const std::string &cmp = toks[1];
        if (cmp == ">") {
            r.cmp = AlertCmp::GT;
        } else if (cmp == ">=") {
            r.cmp = AlertCmp::GE;
        } else if (cmp == "<") {
            r.cmp = AlertCmp::LT;
        } else if (cmp == "<=") {
            r.cmp = AlertCmp::LE;
        } else {
            POSEIDON_THROW(InvalidArgument,
                           "alert rule \"" << text
                           << "\": comparator \"" << cmp
                           << "\" is not one of > >= < <=");
        }
        r.threshold = parse_num(toks[2], text);
        std::size_t i = 3;
        auto duration = [&](const char *kw) {
            POSEIDON_REQUIRE(i + 1 < toks.size(),
                             "alert rule \"" << text << "\": " << kw
                             << " needs a cycle count");
            double v = parse_num(toks[i + 1], text);
            POSEIDON_REQUIRE(v >= 0.0, "alert rule \"" << text
                             << "\": negative " << kw
                             << " duration");
            i += 2;
            if (i < toks.size() && toks[i] == "cycles") ++i;
            return v;
        };
        while (i < toks.size()) {
            if (toks[i] == "for") {
                r.forCycles = duration("for");
            } else if (toks[i] == "hold") {
                r.holdCycles = duration("hold");
            } else if (toks[i] == "=>") {
                POSEIDON_REQUIRE(i + 1 < toks.size(),
                                 "alert rule \"" << text
                                 << "\": => needs warn or page");
                const std::string &sev = toks[i + 1];
                if (sev == "warn") {
                    r.severity = AlertSeverity::Warn;
                } else if (sev == "page") {
                    r.severity = AlertSeverity::Page;
                } else {
                    POSEIDON_THROW(InvalidArgument,
                                   "alert rule \"" << text
                                   << "\": severity \"" << sev
                                   << "\" is not warn or page");
                }
                i += 2;
                POSEIDON_REQUIRE(i == toks.size(),
                                 "alert rule \"" << text
                                 << "\": trailing tokens after "
                                    "severity");
            } else {
                POSEIDON_THROW(InvalidArgument,
                               "alert rule \"" << text
                               << "\": unexpected token \""
                               << toks[i] << "\"");
            }
        }
        out.rules.push_back(std::move(r));
    }
    return out;
}

std::string
AlertTransition::text() const
{
    std::string out = to_string(from);
    out += " -> ";
    out += to_string(to);
    return out;
}

AlertEngine::AlertEngine(AlertRules rules)
    : rules_(std::move(rules)), states_(rules_.size())
{
}

AlertState
AlertEngine::state(std::size_t rule) const
{
    POSEIDON_REQUIRE(rule < states_.size(), "AlertEngine: rule "
                     << rule << " out of range");
    return states_[rule].state;
}

std::size_t
AlertEngine::firing() const
{
    std::size_t n = 0;
    for (const RuleState &s : states_) {
        if (s.state == AlertState::Firing) ++n;
    }
    return n;
}

std::string
AlertEngine::state_series_name(std::size_t rule)
{
    return "alert.r" + std::to_string(rule) + ".state";
}

std::vector<AlertTransition>
AlertEngine::evaluate(double cycle, Tsdb &tsdb)
{
    POSEIDON_REQUIRE(cycle >= lastCycle_,
                     "AlertEngine: evaluation cycle " << cycle
                     << " runs backwards (last " << lastCycle_
                     << ")");
    lastCycle_ = cycle;
    std::vector<AlertTransition> transitions;
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const AlertRule &rule = rules_.rules[i];
        RuleState &st = states_[i];
        double value = std::numeric_limits<double>::quiet_NaN();
        if (const Series *s = tsdb.find(rule.metric)) {
            if (!s->empty()) value = s->latest().value;
        }
        bool cond = rule.condition(value);
        AlertState before = st.state;
        switch (st.state) {
        case AlertState::Inactive:
            if (cond) {
                st.conditionSince = cycle;
                st.state = cycle - st.conditionSince >=
                                   rule.forCycles
                               ? AlertState::Firing
                               : AlertState::Pending;
            }
            break;
        case AlertState::Pending:
            if (!cond) {
                st.state = AlertState::Inactive;
            } else if (cycle - st.conditionSince >= rule.forCycles) {
                st.state = AlertState::Firing;
            }
            break;
        case AlertState::Firing:
            if (cond) {
                st.clearSince = -1.0; // re-assertion resets the timer
            } else {
                if (st.clearSince < 0.0) st.clearSince = cycle;
                if (cycle - st.clearSince >= rule.holdCycles) {
                    st.state = AlertState::Inactive;
                    st.clearSince = -1.0;
                }
            }
            break;
        }
        if (st.state != before) {
            if (st.state == AlertState::Firing) ++firedTotal_;
            if (before == AlertState::Firing) ++resolvedTotal_;
            AlertTransition t;
            t.rule = i;
            t.cycle = cycle;
            t.from = before;
            t.to = st.state;
            t.value = value;
            Annotation a;
            a.cycle = cycle;
            a.kind = "alert";
            a.name = rule.str();
            a.text = t.text();
            a.value = static_cast<double>(
                static_cast<unsigned>(st.state));
            tsdb.annotate(std::move(a));
            transitions.push_back(std::move(t));
        }
        tsdb.record(state_series_name(i), cycle,
                    static_cast<double>(
                        static_cast<unsigned>(st.state)));
    }
    return transitions;
}

} // namespace poseidon::telemetry
