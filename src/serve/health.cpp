#include "serve/health.h"

#include <limits>
#include <sstream>

#include "common/check.h"

namespace poseidon::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
} // namespace

const char*
to_string(BreakerState s)
{
    switch (s) {
      case BreakerState::Closed: return "Closed";
      case BreakerState::Open: return "Open";
      case BreakerState::HalfOpen: return "HalfOpen";
    }
    return "?";
}

const char*
to_string(HealthEvent::Kind k)
{
    switch (k) {
      case HealthEvent::Kind::Quarantined: return "Quarantined";
      case HealthEvent::Kind::Probing: return "Probing";
      case HealthEvent::Kind::Readmitted: return "Readmitted";
      case HealthEvent::Kind::Died: return "Died";
    }
    return "?";
}

HealthMonitor::HealthMonitor(std::size_t cards, HealthConfig cfg)
    : cfg_(cfg)
{
    POSEIDON_REQUIRE(cards >= 1,
                     "HealthMonitor: the fleet needs at least one card");
    POSEIDON_REQUIRE(cfg_.ewmaAlpha > 0.0 && cfg_.ewmaAlpha <= 1.0,
                     "HealthMonitor: ewmaAlpha must be in (0, 1], got "
                         << cfg_.ewmaAlpha);
    POSEIDON_REQUIRE(cfg_.failureThreshold > 0.0,
                     "HealthMonitor: failureThreshold must be positive");
    POSEIDON_REQUIRE(cfg_.retryShareThreshold > 0.0,
                     "HealthMonitor: retryShareThreshold must be "
                     "positive");
    POSEIDON_REQUIRE(cfg_.cooldownCycles >= 0.0,
                     "HealthMonitor: negative cooldown");
    POSEIDON_REQUIRE(cfg_.probeSuccessesToClose >= 1,
                     "HealthMonitor: probeSuccessesToClose must be "
                     ">= 1");
    cards_.resize(cards);
}

const CardHealth&
HealthMonitor::card(std::size_t i) const
{
    POSEIDON_REQUIRE(i < cards_.size(),
                     "HealthMonitor: card " << i << " out of range");
    return cards_[i];
}

void
HealthMonitor::trip(std::size_t card, double cycle,
                    const std::string &why)
{
    CardHealth &h = cards_[card];
    h.state = BreakerState::Open;
    h.openedAtCycle = cycle;
    h.probeSuccesses = 0;
    ++h.quarantines;
    events_.push_back(
        HealthEvent{HealthEvent::Kind::Quarantined, card, cycle, why});
}

bool
HealthMonitor::record_attempt(std::size_t card, double cycle,
                              const hw::FaultStats &faults,
                              double attemptCycles, bool failed)
{
    POSEIDON_REQUIRE(card < cards_.size(),
                     "HealthMonitor: card " << card << " out of range");
    CardHealth &h = cards_[card];
    ++h.attempts;
    if (failed) ++h.failedAttempts;

    double a = cfg_.ewmaAlpha;
    double retryShare = attemptCycles > 0.0
                            ? faults.retryCycles / attemptCycles
                            : 0.0;
    h.ewmaFailure = a * (failed ? 1.0 : 0.0) + (1.0 - a) * h.ewmaFailure;
    h.ewmaRetryShare = a * retryShare + (1.0 - a) * h.ewmaRetryShare;

    if (h.state != BreakerState::Closed || h.dead) return false;
    if (h.attempts < cfg_.minAttempts) return false;

    bool corrupting = h.ewmaFailure >= cfg_.failureThreshold;
    bool degraded = h.ewmaRetryShare >= cfg_.retryShareThreshold;
    if (!corrupting && !degraded) return false;

    std::ostringstream why;
    if (corrupting) {
        why << "failure EWMA " << h.ewmaFailure << " >= "
            << cfg_.failureThreshold;
    } else {
        why << "ECC-replay share EWMA " << h.ewmaRetryShare << " >= "
            << cfg_.retryShareThreshold;
    }
    trip(card, cycle, why.str());
    return true;
}

bool
HealthMonitor::admissible(std::size_t card, double) const
{
    POSEIDON_REQUIRE(card < cards_.size(),
                     "HealthMonitor: card " << card << " out of range");
    const CardHealth &h = cards_[card];
    return !h.dead && h.state == BreakerState::Closed;
}

bool
HealthMonitor::wants_probe(std::size_t card, double cycle) const
{
    POSEIDON_REQUIRE(card < cards_.size(),
                     "HealthMonitor: card " << card << " out of range");
    const CardHealth &h = cards_[card];
    if (h.dead) return false;
    if (h.state == BreakerState::HalfOpen) return true;
    return h.state == BreakerState::Open &&
           cycle >= h.openedAtCycle + cfg_.cooldownCycles;
}

void
HealthMonitor::record_probe(std::size_t card, double cycle, bool ok)
{
    POSEIDON_REQUIRE(card < cards_.size(),
                     "HealthMonitor: card " << card << " out of range");
    CardHealth &h = cards_[card];
    POSEIDON_CHECK(!h.dead && h.state != BreakerState::Closed,
                   "probe result for a card that is not on probation");
    if (h.state == BreakerState::Open) {
        h.state = BreakerState::HalfOpen;
        events_.push_back(HealthEvent{HealthEvent::Kind::Probing, card,
                                      cycle, "cooldown elapsed"});
    }
    ++h.probes;
    if (ok) {
        ++h.probeSuccesses;
        if (h.probeSuccesses >= cfg_.probeSuccessesToClose) {
            h.state = BreakerState::Closed;
            h.probeSuccesses = 0;
            h.probeRoundFailures = 0;
            // The card earns a fresh record: the EWMAs that tripped
            // the breaker describe the pre-quarantine era.
            h.ewmaFailure = 0.0;
            h.ewmaRetryShare = 0.0;
            h.attempts = 0;
            h.failedAttempts = 0;
            ++readmissions_;
            events_.push_back(
                HealthEvent{HealthEvent::Kind::Readmitted, card, cycle,
                            "probes passed"});
        }
        return;
    }
    ++h.probeRoundFailures;
    h.state = BreakerState::Open;
    h.openedAtCycle = cycle;
    h.probeSuccesses = 0;
    if (h.probeRoundFailures >= cfg_.maxProbeRoundFailures) {
        h.dead = true;
        events_.push_back(
            HealthEvent{HealthEvent::Kind::Died, card, cycle,
                        "probe rounds exhausted"});
        return;
    }
    events_.push_back(HealthEvent{HealthEvent::Kind::Quarantined, card,
                                  cycle, "probe failed"});
}

double
HealthMonitor::available_at(std::size_t card, double cycle) const
{
    POSEIDON_REQUIRE(card < cards_.size(),
                     "HealthMonitor: card " << card << " out of range");
    const CardHealth &h = cards_[card];
    if (h.dead) return kInf;
    if (h.state == BreakerState::Open) {
        double probeAt = h.openedAtCycle + cfg_.cooldownCycles;
        return probeAt > cycle ? probeAt : cycle;
    }
    return cycle;
}

bool
HealthMonitor::all_dead() const
{
    for (const CardHealth &h : cards_) {
        if (!h.dead) return false;
    }
    return true;
}

std::size_t
HealthMonitor::live_cards() const
{
    std::size_t n = 0;
    for (const CardHealth &h : cards_) {
        if (!h.dead) ++n;
    }
    return n;
}

u64
HealthMonitor::quarantines() const
{
    u64 n = 0;
    for (const CardHealth &h : cards_) n += h.quarantines;
    return n;
}

u64
HealthMonitor::probes() const
{
    u64 n = 0;
    for (const CardHealth &h : cards_) n += h.probes;
    return n;
}

} // namespace poseidon::serve
