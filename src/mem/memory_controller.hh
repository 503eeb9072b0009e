/**
 * @file
 * On-chip memory controller with two channel organizations.
 *
 * Private mode (the paper's evaluation setup, Table 1): one DDR2-800
 * channel per thread, a 16-entry transaction buffer and an 8-entry
 * write buffer per thread.  Reads are prioritized over writebacks;
 * writebacks drain when the write buffer passes its high-water mark
 * or the read queue is empty.  Because channels are private, no
 * cross-thread memory scheduling exists -- cache-level interference is
 * the only coupling between threads, which is exactly what the VPC
 * study isolates.
 *
 * Shared mode (MemConfig::sharedChannel): every thread's transactions
 * compete for a single channel through a pluggable scheduler built
 * from the same arbiter framework as the cache resources -- FCFS as
 * the baseline, or the fair-queuing VPC arbiter with per-thread
 * bandwidth shares.  This is the companion FQ memory system the paper
 * builds on (Nesbit et al., Section 2.1), and it lets the repository
 * demonstrate the full Virtual Private *Machine* story: QoS in the
 * cache and the memory system composed from one mechanism.
 */

#ifndef VPC_MEM_MEMORY_CONTROLLER_HH
#define VPC_MEM_MEMORY_CONTROLLER_HH

#include <functional>
#include <memory>
#include <vector>

#include "arbiter/arbiter.hh"
#include "mem/dram_channel.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace vpc
{

/** Routes cache misses and writebacks to DRAM channels. */
class MemoryController : public Ticking
{
  public:
    /** Invoked when a read's data is back at the cache controller. */
    using ReadCallback = std::function<void(Addr line_addr, Cycle now)>;

    /**
     * @param cfg memory configuration (selects private/shared mode)
     * @param num_threads thread count
     * @param line_bytes transfer granularity
     * @param events shared event queue for completion callbacks
     * @param shares per-thread bandwidth shares for the shared-channel
     *        fair-queuing scheduler; may be empty for private mode or
     *        share-less policies (defaults to equal shares)
     */
    MemoryController(const MemConfig &cfg, unsigned num_threads,
                     unsigned line_bytes, EventQueue &events,
                     const std::vector<double> &shares = {});

    /** @return true if thread @p t has a free transaction-buffer entry. */
    bool canAcceptRead(ThreadId t) const;

    /** @return true if thread @p t has a free write-buffer entry. */
    bool canAcceptWrite(ThreadId t) const;

    /**
     * Queue a line read.
     *
     * @pre canAcceptRead(t)
     * @param t owning thread
     * @param line_addr line-aligned address
     * @param now current cycle
     * @param cb invoked (via the event queue) when data returns
     */
    void read(ThreadId t, Addr line_addr, Cycle now, ReadCallback cb);

    /**
     * Queue a line writeback (fire-and-forget).
     *
     * @pre canAcceptWrite(t)
     */
    void write(ThreadId t, Addr line_addr, Cycle now);

    void tick(Cycle now) override;

    /**
     * Quiescence hint (see Ticking::nextWork).  Private mode: due
     * whenever any thread's read or write queue is non-empty (issue
     * happens every cycle), asleep otherwise — completions travel by
     * event.  Shared mode: asleep without pending transactions; while
     * the channel's bus is booked past the issue lookahead the next
     * possible issue cycle is known exactly, so the controller sleeps
     * until then.
     */
    Cycle nextWork(Cycle now) const override;

    /** Direct-call nextWork() + tick() (see Ticking::tickIfDue). */
    bool tickIfDue(Cycle now) override;

    /** @return read latency statistics (queue + DRAM), thread @p t. */
    const SampleStat &readLatency(ThreadId t) const;

    /** @return reads serviced for thread @p t. */
    std::uint64_t readCount(ThreadId t) const;

    /** @return writebacks serviced for thread @p t. */
    std::uint64_t writeCount(ThreadId t) const;

    /** @return thread @p t's channel (channel 0 in shared mode). */
    const DramChannel &channel(ThreadId t) const;

    /** @return true when running one shared channel. */
    bool sharedChannel() const { return cfg.sharedChannel; }

    /** @return the shared-mode scheduler (for stats/tests).
     *  @pre sharedChannel() */
    Arbiter &scheduler();

    /** Update thread @p t's memory bandwidth share (shared mode). */
    void setBandwidthShare(ThreadId t, double phi);

  private:
    struct PendingRead
    {
        Addr lineAddr;
        Cycle queued;
        ReadCallback cb;
    };

    struct ThreadQueues
    {
        SmallRing<PendingRead> reads;
        SmallRing<Addr> writes;
        unsigned outstandingReads = 0; //!< transaction entries in use
        unsigned outstandingWrites = 0; //!< shared-mode write slots
        Counter readsDone;
        Counter writesDone;
        SampleStat readLat;
    };

    /** Shared-mode in-flight transaction slot. */
    struct Slot
    {
        bool busy = false;
        bool isWrite = false;
        ThreadId thread = 0;
        Addr lineAddr = 0;
        Cycle queued = 0;
        ReadCallback cb;
    };

    /** Private-mode per-thread issue. */
    void tickPrivate(Cycle now);

    /** Shared-mode scheduler-driven issue. */
    void tickShared(Cycle now);

    /** @return a free shared-mode slot index, or -1. */
    int freeSlot() const;

    /** Complete slot @p idx whose data is ready at @p done. */
    void finishSlot(unsigned idx, Cycle done);

    MemConfig cfg;
    EventQueue &events;
    std::vector<DramChannel> channels;
    std::vector<ThreadQueues> queues;

    // Shared-channel state.
    std::unique_ptr<Arbiter> sched;
    std::vector<Slot> slots;
    SeqNum nextSeq = 0;
};

} // namespace vpc

#endif // VPC_MEM_MEMORY_CONTROLLER_HH
