#include "mem/memory_controller.hh"

#include "arbiter/arbiter_factory.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vpc
{

MemoryController::MemoryController(const MemConfig &cfg_,
                                   unsigned num_threads,
                                   unsigned line_bytes,
                                   EventQueue &events_,
                                   const std::vector<double> &shares)
    : cfg(cfg_), events(events_), queues(num_threads)
{
    if (cfg.sharedChannel) {
        channels.emplace_back(cfg, line_bytes);
        std::vector<double> phis = shares;
        if (phis.empty())
            phis.assign(num_threads, 1.0 / num_threads);
        if (phis.size() != num_threads)
            vpc_fatal("memory scheduler: {} shares for {} threads",
                      phis.size(), num_threads);
        // The scheduled unit is one line burst; its bus occupancy is
        // the service requirement the fair-queuing shares divide.
        // The channel's effective bandwidth is below the nominal bus
        // rate (bank conflicts), so the scheduler runs the
        // virtual-clock FQ variant (see VpcArbiterOptions).
        VpcArbiterOptions opts;
        opts.virtualClock = true;
        sched = makeArbiter(cfg.schedulerPolicy, num_threads,
                            cfg.tBurst, 1, phis, opts);
        slots.resize(static_cast<std::size_t>(num_threads) *
                     (cfg.transactionEntries + cfg.writeEntries));
    } else {
        channels.reserve(num_threads);
        for (unsigned t = 0; t < num_threads; ++t)
            channels.emplace_back(cfg, line_bytes);
    }
}

bool
MemoryController::canAcceptRead(ThreadId t) const
{
    const ThreadQueues &q = queues.at(t);
    return q.outstandingReads < cfg.transactionEntries;
}

bool
MemoryController::canAcceptWrite(ThreadId t) const
{
    if (cfg.sharedChannel)
        return queues.at(t).outstandingWrites < cfg.writeEntries;
    return queues.at(t).writes.size() < cfg.writeEntries;
}

int
MemoryController::freeSlot() const
{
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].busy)
            return static_cast<int>(i);
    }
    return -1;
}

void
MemoryController::read(ThreadId t, Addr line_addr, Cycle now,
                       ReadCallback cb)
{
    ThreadQueues &q = queues.at(t);
    if (!canAcceptRead(t))
        vpc_panic("mem read from thread {} with full transaction "
                  "buffer", t);
    ++q.outstandingReads;
    if (!cfg.sharedChannel) {
        q.reads.push_back(PendingRead{line_addr, now, std::move(cb)});
        return;
    }
    int idx = freeSlot();
    if (idx < 0)
        vpc_panic("shared memory controller out of slots");
    Slot &s = slots[idx];
    s.busy = true;
    s.isWrite = false;
    s.thread = t;
    s.lineAddr = line_addr;
    s.queued = now;
    s.cb = std::move(cb);
    ArbRequest req;
    req.id = static_cast<std::uint32_t>(idx);
    req.thread = t;
    req.isWrite = false;
    req.arrival = now;
    req.seq = nextSeq++;
    req.lineAddr = line_addr;
    sched->enqueue(req, now);
}

void
MemoryController::write(ThreadId t, Addr line_addr, Cycle now)
{
    ThreadQueues &q = queues.at(t);
    if (!canAcceptWrite(t))
        vpc_panic("mem write from thread {} with full write buffer", t);
    if (!cfg.sharedChannel) {
        q.writes.push_back(line_addr);
        return;
    }
    ++q.outstandingWrites;
    int idx = freeSlot();
    if (idx < 0)
        vpc_panic("shared memory controller out of slots");
    Slot &s = slots[idx];
    s.busy = true;
    s.isWrite = true;
    s.thread = t;
    s.lineAddr = line_addr;
    s.queued = now;
    s.cb = nullptr;
    ArbRequest req;
    req.id = static_cast<std::uint32_t>(idx);
    req.thread = t;
    req.isWrite = true;
    req.arrival = now;
    req.seq = nextSeq++;
    req.lineAddr = line_addr;
    sched->enqueue(req, now);
}

void
MemoryController::finishSlot(unsigned idx, Cycle done)
{
    Slot &s = slots.at(idx);
    ThreadQueues &q = queues.at(s.thread);
    if (s.isWrite) {
        --q.outstandingWrites;
        q.writesDone.inc();
        s.busy = false;
        return;
    }
    --q.outstandingReads;
    q.readsDone.inc();
    q.readLat.sample(static_cast<double>(done - s.queued));
    ReadCallback cb = std::move(s.cb);
    Addr addr = s.lineAddr;
    s.busy = false;
    if (cb)
        cb(addr, done);
}

void
MemoryController::tickShared(Cycle now)
{
    // Issue at most one transaction per cycle, and only far enough
    // ahead to keep the data bus saturated: a transaction issued now
    // delivers data no earlier than ctrl + tRCD + tCL cycles out, so
    // the gate must look that far past the bus-free point or the
    // activate/CAS pipeline drains and the channel underruns (which
    // would also corrupt the fair queue's notion of who is behind).
    // Anything further ahead would just let the scheduler commit
    // decisions long before the service point.
    if (!sched->hasPending())
        return;
    DramChannel &ch = channels.front();
    Cycle lookahead = cfg.ctrlLatency + cfg.tRcd + cfg.tCl +
                      cfg.tBurst;
    if (ch.busFreeAt() > now + lookahead)
        return;
    std::optional<ArbRequest> grant = sched->select(now);
    if (!grant)
        return;
    const Slot &s = slots.at(grant->id);
    VPC_DPRINTF(Memory, "[{}] shared-channel issue t{} {} {:#x}", now,
                s.thread, s.isWrite ? "wr" : "rd", s.lineAddr);
    Cycle data_at = ch.access(s.lineAddr, s.isWrite,
                              now + cfg.ctrlLatency);
    Cycle done = data_at + cfg.ctrlLatency;
    events.schedule(done, [this, idx = grant->id, done]() {
        finishSlot(idx, done);
    });
}

void
MemoryController::tickPrivate(Cycle now)
{
    for (ThreadId t = 0; t < queues.size(); ++t) {
        ThreadQueues &q = queues[t];
        DramChannel &ch = channels[t];

        // Reads first; drain writebacks when no read is waiting or the
        // write buffer is nearly full (simple high-water policy).
        bool write_pressure = q.writes.size() >= cfg.writeEntries - 1;
        if (!q.reads.empty() && !write_pressure) {
            PendingRead pr = std::move(q.reads.front());
            q.reads.pop_front();
            Cycle data_at = ch.access(pr.lineAddr, false,
                                      now + cfg.ctrlLatency);
            Cycle done = data_at + cfg.ctrlLatency;
            q.readLat.sample(static_cast<double>(done - pr.queued));
            events.schedule(done,
                [this, t, done, pr = std::move(pr)]() {
                    --queues[t].outstandingReads;
                    queues[t].readsDone.inc();
                    pr.cb(pr.lineAddr, done);
                });
        } else if (!q.writes.empty()) {
            Addr a = q.writes.front();
            q.writes.pop_front();
            ch.access(a, true, now + cfg.ctrlLatency);
            q.writesDone.inc();
        }
    }
}

void
MemoryController::tick(Cycle now)
{
    if (cfg.sharedChannel)
        tickShared(now);
    else
        tickPrivate(now);
}

Cycle
MemoryController::nextWork(Cycle now) const
{
    if (cfg.sharedChannel) {
        if (!sched->hasPending())
            return kCycleMax;
        const DramChannel &ch = channels.front();
        Cycle lookahead = cfg.ctrlLatency + cfg.tRcd + cfg.tCl +
                          cfg.tBurst;
        // tickShared() gates issue on busFreeAt() <= now + lookahead;
        // busFreeAt only moves when this controller issues, so the
        // earliest cycle the gate can open is exact, not a guess.
        if (ch.busFreeAt() > now + lookahead)
            return ch.busFreeAt() - lookahead;
        return now;
    }
    for (const ThreadQueues &q : queues) {
        if (!q.reads.empty() || !q.writes.empty())
            return now;
    }
    return kCycleMax; // enqueues re-poll; completions are events
}

bool
MemoryController::tickIfDue(Cycle now)
{
    if (MemoryController::nextWork(now) > now)
        return false;
    MemoryController::tick(now);
    return true;
}

const SampleStat &
MemoryController::readLatency(ThreadId t) const
{
    return queues.at(t).readLat;
}

std::uint64_t
MemoryController::readCount(ThreadId t) const
{
    return queues.at(t).readsDone.value();
}

std::uint64_t
MemoryController::writeCount(ThreadId t) const
{
    return queues.at(t).writesDone.value();
}

const DramChannel &
MemoryController::channel(ThreadId t) const
{
    if (cfg.sharedChannel)
        return channels.front();
    return channels.at(t);
}

Arbiter &
MemoryController::scheduler()
{
    if (!sched)
        vpc_panic("scheduler() on a private-channel controller");
    return *sched;
}

void
MemoryController::setBandwidthShare(ThreadId t, double phi)
{
    if (!sched) {
        vpc_warn("memory share update ignored: private channels");
        return;
    }
    sched->setShare(t, phi);
}

} // namespace vpc
