#include "arbiter/round_robin_arbiter.hh"

#include "sim/logging.hh"

namespace vpc
{

RoundRobinArbiter::RoundRobinArbiter(unsigned num_threads)
    : Arbiter(num_threads), queues(num_threads)
{}

void
RoundRobinArbiter::doEnqueue(const ArbRequest &req, Cycle now)
{
    (void)now;
    if (req.thread >= numThreads())
        vpc_panic("RR enqueue from invalid thread {}", req.thread);
    queues[req.thread].push_back(req);
    ++total;
}

bool
RoundRobinArbiter::doFaultDropOldest(ThreadId t)
{
    if (queues.at(t).empty())
        return false;
    queues[t].pop_front();
    --total;
    return true;
}

std::optional<ArbRequest>
RoundRobinArbiter::select(Cycle now)
{
    if (total == 0)
        return std::nullopt;
    for (unsigned i = 0; i < numThreads(); ++i) {
        ThreadId t = (nextThread + i) % numThreads();
        if (!queues[t].empty()) {
            ArbRequest req = queues[t].front();
            queues[t].pop_front();
            --total;
            nextThread = (t + 1) % numThreads();
            recordGrant(req, now);
            return req;
        }
    }
    vpc_panic("RR arbiter inconsistent: total={} but all queues empty",
              total);
}

std::size_t
RoundRobinArbiter::pendingCount() const
{
    return total;
}

std::size_t
RoundRobinArbiter::pendingCount(ThreadId t) const
{
    return queues.at(t).size();
}

} // namespace vpc
