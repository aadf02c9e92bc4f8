#include "serve/scheduler.h"

#include <limits>

#include "common/check.h"

namespace poseidon::serve {

Scheduler::Scheduler(std::size_t maxBatch)
    : maxBatch_(maxBatch)
{
    POSEIDON_REQUIRE(maxBatch_ >= 1,
                     "Scheduler: maxBatch must be >= 1");
}

void
Scheduler::enqueue(QueuedJob job)
{
    if (journal_) {
        JournalEvent ev;
        ev.kind = JournalEventKind::Enqueued;
        ev.job = job.id;
        ev.cycle = job.spec.arrivalCycle;
        ev.priority = job.spec.priority;
        ev.attempt = job.attempt; // 0 = fresh, >0 = retry requeue
        journal_->append(std::move(ev));
    }
    tenants_[job.spec.tenant].push_back(std::move(job));
    ++queued_;
}

double
Scheduler::earliest_head_arrival() const
{
    double earliest = std::numeric_limits<double>::infinity();
    for (const auto &[tenant, q] : tenants_) {
        if (!q.empty()) {
            earliest = std::min(earliest, q.front().spec.arrivalCycle);
        }
    }
    return earliest;
}

const QueuedJob*
Scheduler::live_head(std::deque<QueuedJob> &q, double now,
                     std::vector<ExpiredJob> &expired)
{
    while (!q.empty()) {
        QueuedJob &head = q.front();
        if (head.spec.arrivalCycle > now) return nullptr;
        if (head.spec.deadlineCycle < now) {
            expired.push_back(ExpiredJob{std::move(head), now});
            q.pop_front();
            --queued_;
            continue;
        }
        return &head;
    }
    return nullptr;
}

std::vector<QueuedJob>
Scheduler::pick_batch(std::size_t card, double now,
                      std::vector<ExpiredJob> &expired,
                      const JobFilter &excluded)
{
    // Exclusion policy lives in the engine's filter; `card` only tags
    // the journal records below.
    // Choose the winning tenant: among arrived, non-excluded heads,
    // max priority, then least attained service, then tenant name
    // (map order) — all simulated-clock state, fully deterministic.
    std::map<std::string, std::deque<QueuedJob>>::iterator best =
        tenants_.end();
    int bestPrio = 0;
    double bestAttained = 0.0;
    for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
        const QueuedJob *head = live_head(it->second, now, expired);
        if (!head) continue;
        if (excluded && excluded(*head)) continue;
        int prio = head->spec.priority;
        double att = attained_[it->first];
        if (best == tenants_.end() || prio > bestPrio ||
            (prio == bestPrio && att < bestAttained)) {
            best = it;
            bestPrio = prio;
            bestAttained = att;
        }
    }
    if (best == tenants_.end()) return {};

    std::deque<QueuedJob> &q = best->second;
    std::vector<QueuedJob> batch;
    batch.push_back(std::move(q.front()));
    q.pop_front();
    --queued_;

    // Extend with compatible followers from the same tenant queue.
    // (By value: growing `batch` reallocates and would dangle a
    // reference into it.)
    const std::string key = batch.front().spec.batchKey;
    while (batch.size() < maxBatch_ && !q.empty()) {
        const QueuedJob &next = q.front();
        if (next.spec.arrivalCycle > now) break;
        if (next.spec.priority != bestPrio) break;
        if (next.spec.batchKey != key) break;
        if (excluded && excluded(next)) break;
        if (next.spec.deadlineCycle < now) break; // let live_head expire it
        batch.push_back(std::move(q.front()));
        q.pop_front();
        --queued_;
    }
    if (journal_) {
        u64 batchId = nextBatch_++;
        JournalEvent formed;
        formed.kind = JournalEventKind::BatchFormed;
        formed.cycle = now;
        formed.card = card;
        formed.batch = batchId;
        formed.batchSize = batch.size();
        journal_->append(std::move(formed));
        for (const QueuedJob &qj : batch) {
            JournalEvent ev;
            ev.kind = JournalEventKind::Dispatched;
            ev.job = qj.id;
            ev.cycle = now;
            ev.card = card;
            ev.attempt = qj.attempt + 1; // the attempt about to run
            ev.batch = batchId;
            journal_->append(std::move(ev));
        }
    }
    return batch;
}

std::vector<QueuedJob>
Scheduler::shed_to_depth(std::size_t target)
{
    std::vector<QueuedJob> shed;
    while (queued_ > target) {
        // The victim: lowest priority class, newest submission (the
        // highest id) within it — deterministic and
        // submission-order-respecting.
        std::deque<QueuedJob> *victimQ = nullptr;
        std::size_t victimIdx = 0;
        for (auto &[tenant, q] : tenants_) {
            (void)tenant;
            for (std::size_t i = 0; i < q.size(); ++i) {
                if (victimQ == nullptr ||
                    q[i].spec.priority <
                        (*victimQ)[victimIdx].spec.priority ||
                    (q[i].spec.priority ==
                         (*victimQ)[victimIdx].spec.priority &&
                     q[i].id > (*victimQ)[victimIdx].id)) {
                    victimQ = &q;
                    victimIdx = i;
                }
            }
        }
        POSEIDON_CHECK(victimQ != nullptr,
                       "shed_to_depth: depth/queue mismatch");
        shed.push_back(std::move((*victimQ)[victimIdx]));
        victimQ->erase(victimQ->begin() +
                       static_cast<std::ptrdiff_t>(victimIdx));
        --queued_;
    }
    return shed;
}

std::vector<QueuedJob>
Scheduler::drain_all()
{
    std::vector<QueuedJob> all;
    for (auto &[tenant, q] : tenants_) {
        (void)tenant;
        while (!q.empty()) {
            all.push_back(std::move(q.front()));
            q.pop_front();
            --queued_;
        }
    }
    return all;
}

void
Scheduler::charge(const std::string &tenant, double cycles)
{
    attained_[tenant] += cycles;
}

} // namespace poseidon::serve
