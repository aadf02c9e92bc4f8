#include "spans.h"

#include <cstdio>

namespace hostbench {

SpanLog::SpanLog() : t0_(std::chrono::steady_clock::now()) {}

double
SpanLog::now_us() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

SpanLog::Scope::Scope(SpanLog &log, const char *name)
    : log_(log), index_(log.spans_.size())
{
    Span s;
    s.name = name;
    s.parent = log.open_.empty() ? kNoParent : log.open_.back();
    s.request = log.request_;
    log.spans_.push_back(std::move(s));
    log.open_.push_back(index_);
    // Stamp last, so the span's own bookkeeping stays outside it.
    log.spans_[index_].startUs = log.now_us();
}

SpanLog::Scope::~Scope()
{
    log_.spans_[index_].endUs = log_.now_us();
    log_.open_.pop_back();
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name) out.push_back(s.endUs - s.startUs);
    }
    return out;
}

const std::vector<double>&
SpanLog::samples(const std::string &name) const
{
    static const std::vector<double> kNone;
    auto it = samples_.find(name);
    return it == samples_.end() ? kNone : it->second;
}

std::string
SpanLog::to_jsonl() const
{
    std::string out;
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        long long parent = s.parent == kNoParent
                               ? -1
                               : static_cast<long long>(s.parent);
        std::snprintf(buf, sizeof(buf),
                      "{\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
                      "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                      i, parent,
                      static_cast<unsigned long long>(s.request),
                      s.name.c_str(), s.startUs, s.endUs);
        out += buf;
    }
    return out;
}

} // namespace hostbench
