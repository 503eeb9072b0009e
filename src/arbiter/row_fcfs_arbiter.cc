#include "arbiter/row_fcfs_arbiter.hh"

#include "arbiter/row_scan.hh"
#include "sim/logging.hh"

namespace vpc
{

RowFcfsArbiter::RowFcfsArbiter(unsigned num_threads)
    : Arbiter(num_threads), perThread(num_threads, 0)
{}

void
RowFcfsArbiter::doEnqueue(const ArbRequest &req, Cycle now)
{
    (void)now;
    if (req.thread >= numThreads())
        vpc_panic("RoW-FCFS enqueue from invalid thread {}", req.thread);
    queue.push_back(req);
    ++perThread[req.thread];
}

bool
RowFcfsArbiter::doFaultDropOldest(ThreadId t)
{
    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].thread == t) {
            queue.erase_at(i);
            --perThread[t];
            return true;
        }
    }
    return false;
}

std::optional<ArbRequest>
RowFcfsArbiter::select(Cycle now)
{
    if (queue.empty())
        return std::nullopt;

    // Oldest demand read, then oldest prefetch read, that does not
    // bypass an older same-line write; else the oldest request.  One
    // O(n) pass; see row_scan.hh for the equivalence argument.
    std::size_t chosen = rowCandidateIndex(queue, rowScratch);

    ArbRequest req = queue[chosen];
    queue.erase_at(chosen);
    --perThread[req.thread];
    recordGrant(req, now);
    return req;
}

std::size_t
RowFcfsArbiter::pendingCount() const
{
    return queue.size();
}

std::size_t
RowFcfsArbiter::pendingCount(ThreadId t) const
{
    return perThread.at(t);
}

} // namespace vpc
