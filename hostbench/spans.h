#ifndef POSEIDON_HOSTBENCH_SPANS_H_
#define POSEIDON_HOSTBENCH_SPANS_H_

/**
 * @file
 * In-memory span log for the traced run: every span carries its name,
 * wall-clock start and end, the span that caused it, and the request
 * it belongs to. Spans are written out only when the run ends.
 * Per-request counts measured at the same boundaries ride along as
 * named samples.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

class SpanLog
{
  public:
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    struct Span
    {
        std::string name;
        std::size_t parent = kNoParent;
        std::uint64_t request = 0;
        double startUs = 0.0;
        double endUs = 0.0;
    };

    /// Opens a span on construction, closes it on destruction.
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name);
        ~Scope();

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog &log_;
        std::size_t index_;
    };

    SpanLog();

    /// Spans opened from now on belong to request `id`.
    void begin_request(std::uint64_t id) { request_ = id; }

    /// Record one measured count or ratio under `name`.
    void sample(const std::string &name, double value)
    {
        samples_[name].push_back(value);
    }

    /// Durations in microseconds of every span called `name`.
    std::vector<double> durations(const std::string &name) const;

    /// Every sample recorded under `name`.
    const std::vector<double>& samples(const std::string &name) const;

    /// One JSON object per span, one per line.
    std::string to_jsonl() const;

  private:
    double now_us() const;

    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::uint64_t request_ = 0;
    std::map<std::string, std::vector<double>> samples_;
};

} // namespace hostbench

#endif // POSEIDON_HOSTBENCH_SPANS_H_
