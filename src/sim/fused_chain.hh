/**
 * @file
 * Fused fixed-latency event chains.
 *
 * Many hot event-queue hops have a latency that is a configuration
 * constant and a handler that is a pure state write consumed only by
 * later ticks: the L1 hit completion (hitLatency), the crossbar
 * transit to an L2 bank (interconnectLatency), the critical-word
 * response beat (busBeatCycles).  Routing those through the timing
 * wheel pays closure construction, placement, cascade and
 * deterministic ordering cost for hops whose order the model can
 * prove irrelevant.
 *
 * A fused chain is a FIFO side channel for one such hop class:
 * producers push (due-cycle, payload) records, and the kernel drains
 * every record due at the current cycle right after the event queue
 * fires — before any component ticks, so ticks observe exactly the
 * state the event-path delivery would have produced.  Because every
 * record in a lane carries the same constant latency, push order is
 * due order and the drain is a pointer chase down a ring, not a wheel
 * walk.  The payload is plain data handed to a sink bound at
 * construction (DataLane below) — no type erasure, no per-record
 * allocation, no indirect call on the hot path.
 *
 * Legality (see DESIGN.md 5i): a chain may only be fused when (a) its
 * latency is constant for the lane's lifetime and (b) its handlers are
 * pure state writes that no other same-cycle event handler reads.
 * Chains that arbitrate shared state inside the handler (tagDone/
 * dataDone/busDone, memory returns) stay on the event queue.
 *
 * The kernel keeps a cached earliest-due cycle so lanes cost nothing
 * on cycles with no fused work: addFusedChain installs a due hook
 * (setDueHook) that push() min-updates, the kernel compares one Cycle
 * per executed cycle, and only a due drain touches the lanes at all.
 * Each lane also keeps its own exact earliest-due cycle and its
 * counted flag as plain base-class fields, so a due drain visits only
 * the lanes due this cycle and re-derives the cache without a virtual
 * call per lane.
 *
 * Counted lanes (crossbar transit, critical-word response) increment
 * eventsFired and bill the profiler exactly as the event path would.
 * The kernel counters are an exact benchmark gate (events fired and
 * wheel cascades are compared with perfbench/reference), so fusing
 * these hops must not move them.  Uncounted lanes (L1 hit completions)
 * never count; the recorded figures already exclude them.
 */

#ifndef VPC_SIM_FUSED_CHAIN_HH
#define VPC_SIM_FUSED_CHAIN_HH

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/profiler.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace vpc
{

/** Kernel-side view of one fused chain. */
class FusedChain
{
  public:
    virtual ~FusedChain() = default;

    /**
     * Run every entry due at or before @p now, in push order, and
     * re-derive due().
     * @return the number of entries drained.
     */
    virtual std::uint64_t drain(Cycle now) = 0;

    /** @return entries not yet drained. */
    virtual std::size_t pending() const = 0;

    /**
     * Install (or clear) the profiler counted drains bill into; the
     * owning kernel forwards its own setProfiler here.  No-op for
     * chains that never bill.
     */
    virtual void setProfiler(Profiler *) {}

    /** @return the due cycle of the oldest entry, or kCycleMax. */
    Cycle due() const { return due_; }

    /** @return whether drained entries count as fired events. */
    bool counted() const { return counted_; }

    /**
     * Install the owning kernel's earliest-due cache: push() will
     * min-update *@p hook, so the kernel can skip the lanes entirely
     * on cycles where nothing fused is due.  Passing nullptr detaches
     * (pushes fall back to a private sink).  The hook must outlive the
     * chain's use; the kernel is responsible for re-deriving the exact
     * minimum (from due()) after each drain.
     */
    void setDueHook(Cycle *hook) { dueHook_ = hook ? hook : &selfDue_; }

  protected:
    explicit FusedChain(bool counted) : counted_(counted) {}

    /**
     * Record that an entry due at @p when was pushed.  Only a push
     * that lowers due() touches the kernel's cache: the cache never
     * exceeds a lane's due(), except during a drain for the lanes the
     * kernel has yet to pass, and it reads their due() as it does.
     */
    void
    noteDue(Cycle when)
    {
        if (when < due_) {
            due_ = when;
            if (when < *dueHook_)
                *dueHook_ = when;
        }
    }

    Cycle due_ = kCycleMax; //!< exact: oldest entry's due cycle

  private:
    bool counted_;
    Cycle selfDue_ = kCycleMax; //!< sink while no kernel is attached
    Cycle *dueHook_ = &selfDue_;
};

/**
 * The one concrete chain shape: a FIFO of (due, owner, payload)
 * records consumed by a sink bound at construction.  @p T must be
 * trivially copyable plain data (the whole point is that a fused hop
 * needs no closure); @p Sink is a stateless-or-small callable invoked
 * as sink(when, payload).  Producers push with the lane's constant
 * latency already applied, so due cycles are monotonically
 * non-decreasing in push order.
 */
template <class T, class Sink>
class DataLane final : public FusedChain
{
  public:
    /**
     * @param counted drains increment eventsFired and bill the
     *        profiler (lanes standing in for counted events);
     *        uncounted lanes never touch either.
     * @param sink consumer invoked for each drained record
     */
    explicit DataLane(bool counted, Sink sink = Sink{})
        : FusedChain(counted), sink_(std::move(sink))
    {}

    void setProfiler(Profiler *p) override { prof_ = p; }

    /** Queue @p v for cycle @p when, billed to @p owner. */
    void
    push(Cycle when, Profiler::ComponentId owner, const T &v)
    {
        Entry &e = ring_.emplace_back();
        e.when = when;
        e.owner = owner;
        e.payload = v;
        noteDue(when);
    }

    /** Queue @p v for cycle @p when (uncounted lanes). */
    void
    push(Cycle when, const T &v)
    {
        push(when, Profiler::kUnattributed, v);
    }

    std::uint64_t
    drain(Cycle now) override
    {
        std::uint64_t fired = 0;
        bool billed = counted() && prof_ != nullptr;
        while (!ring_.empty() && ring_.front().when <= now) {
            // Copy out before popping: the sink may push new records
            // (never due this cycle — the latency is a positive
            // constant) and grow the ring under us.
            Entry e = ring_.front();
            ring_.pop_front();
            if (billed) {
                std::uint64_t t0 = Profiler::nowNs();
                sink_(e.when, e.payload);
                prof_->addEvent(e.owner, Profiler::nowNs() - t0);
            } else {
                sink_(e.when, e.payload);
            }
            ++fired;
        }
        due_ = ring_.empty() ? kCycleMax : ring_.front().when;
        return fired;
    }

    std::size_t pending() const override { return ring_.size(); }

  private:
    struct Entry
    {
        Cycle when = 0;
        Profiler::ComponentId owner = Profiler::kUnattributed;
        T payload{};
    };

    SmallRing<Entry> ring_;
    Sink sink_;
    Profiler *prof_ = nullptr;
};

} // namespace vpc

#endif // VPC_SIM_FUSED_CHAIN_HH
