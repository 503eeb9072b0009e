#include "arbiter/fcfs_arbiter.hh"

#include "sim/logging.hh"

namespace vpc
{

FcfsArbiter::FcfsArbiter(unsigned num_threads)
    : Arbiter(num_threads), perThread(num_threads, 0)
{}

void
FcfsArbiter::doEnqueue(const ArbRequest &req, Cycle now)
{
    (void)now;
    if (req.thread >= numThreads())
        vpc_panic("FCFS enqueue from invalid thread {}", req.thread);
    queue.push_back(req);
    ++perThread[req.thread];
}

bool
FcfsArbiter::doFaultDropOldest(ThreadId t)
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
FcfsArbiter::select(Cycle now)
{
    if (queue.empty())
        return std::nullopt;
    ArbRequest req = queue.front();
    queue.pop_front();
    --perThread[req.thread];
    recordGrant(req, now);
    return req;
}

std::size_t
FcfsArbiter::pendingCount() const
{
    return queue.size();
}

std::size_t
FcfsArbiter::pendingCount(ThreadId t) const
{
    return perThread.at(t);
}

} // namespace vpc
