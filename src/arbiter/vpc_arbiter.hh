/**
 * @file
 * The Virtual Private Cache arbiter (Section 4.1 of the paper).
 *
 * A strict fair-queuing arbiter: each thread i holds a share
 * 0 <= phi_i <= 1 of the resource's bandwidth and a small buffer of
 * pending request IDs.  The arbiter maintains, per thread,
 *
 *   R.L_i = L / phi_i      (virtual service time; L = resource latency)
 *   R.S_i                  (virtual time thread i's virtual resource
 *                           next becomes available)
 *
 * and a real-time clock R.clk.  On enqueue, Equation 6 conditionally
 * resets an idle thread's virtual time:
 *
 *   [6]  if queue_i empty and R.S_i <= R.clk then R.S_i <- R.clk
 *
 * On selection the thread with the earliest virtual finish time
 *
 *   [3'] S_i^k = R.S_i
 *   [4]  F_i^k = S_i^k + R.L_i        (2 * R.L_i for data-array writes)
 *
 * is granted (earliest deadline first), and
 *
 *   [5]  R.S_i <- F_i^k.
 *
 * Because R.S_i depends only on the amount of service consumed -- not on
 * which specific request is chosen -- requests *within* a thread's buffer
 * may be reordered (we implement Read-over-Write, subject to same-line
 * dependences) without disturbing any thread's bandwidth guarantee.
 *
 * Fairness policy: excess bandwidth goes to the backlogged thread with
 * the earliest virtual finish time, i.e. the thread that has received
 * the least excess service in the past relative to its share.
 *
 * Threads with phi_i = 0 have infinite virtual service time and are only
 * served from excess bandwidth (work conservation), in arrival order
 * among themselves.
 */

#ifndef VPC_ARBITER_VPC_ARBITER_HH
#define VPC_ARBITER_VPC_ARBITER_HH

#include <cstdint>
#include <vector>

#include "arbiter/arbiter.hh"
#include "sim/ring.hh"

namespace vpc
{

/** Tunables for the VPC arbiter (ablation switches). */
struct VpcArbiterOptions
{
    /** Reorder reads over writes inside each thread's buffer. */
    bool intraThreadRow = true;
    /** Apply Equation 6 on enqueue (reset idle virtual time). */
    bool idleReset = true;
    /**
     * Distribute excess bandwidth (work-conserving).  When false a
     * thread is eligible only once real time has caught up with its
     * virtual start time, so unallocated bandwidth is wasted.
     */
    bool workConserving = true;
    /**
     * Reset idle threads against the arbiter's *virtual* clock (the
     * start tag of the most recently granted request) instead of the
     * wall clock (Equation 6).
     *
     * Strict wall-clock FQ assumes the allocations are feasible: the
     * resource really can deliver sum(phi) of its nominal bandwidth.
     * A DRAM channel cannot (bank conflicts and activate gaps eat
     * into the nominal bus rate), so under wall-clock virtual time a
     * permanently backlogged flow accumulates unbounded deficit and
     * outranks every burst from a lighter flow forever.  Tracking
     * system virtual time by served start tags -- the classic
     * SFQ-style construction approximate fair-queuing memory
     * schedulers use (the paper's Section 2.1 notes the FQ memory
     * controller uses approximate methods) -- keeps shares exact and
     * the unfairness window bounded at any achievable bandwidth.
     * Cache resources keep the paper-exact wall-clock Equation 6
     * (their occupancy-based capacity makes sum(phi) <= 1 feasible).
     */
    bool virtualClock = false;
};

/** Fair-queuing arbiter providing per-thread minimum bandwidth. */
class VpcArbiter : public Arbiter
{
  public:
    /**
     * @param num_threads threads sharing the resource
     * @param service_latency L: resource occupancy of one (read) access,
     *        in cycles
     * @param write_multiplier how many back-to-back accesses a write
     *        performs (2 for the data array, 1 elsewhere)
     * @param shares phi_i per thread; sum must be <= 1
     * @param opts ablation switches
     */
    VpcArbiter(unsigned num_threads, Cycle service_latency,
               unsigned write_multiplier,
               const std::vector<double> &shares,
               const VpcArbiterOptions &opts = {});

    std::optional<ArbRequest> select(Cycle now) override;
    std::size_t pendingCount() const override;
    std::size_t pendingCount(ThreadId t) const override;
    void setShare(ThreadId t, double phi) override;
    std::string name() const override { return "VPC"; }

    /** @return thread @p t's current share phi_t. */
    double share(ThreadId t) const { return phi_.at(t); }

    /** @return R.S_t, thread @p t's virtual-resource-available time. */
    double virtualTime(ThreadId t) const { return rs_.at(t); }

    /**
     * Virtual finish time of thread @p t's next grant, or +infinity if
     * the thread has no pending request.  Exposed for tests.
     */
    double nextVirtualFinish(ThreadId t) const;

    /** @return the ablation switches this arbiter was built with. */
    const VpcArbiterOptions &vpcOptions() const { return options; }

    /** @return start tag of the last granted request (system V(t)). */
    double systemVirtualTime() const { return vclock; }

    /** @return back-to-back accesses per write (2 for data array). */
    unsigned writeMultiplier() const { return writeMult; }

    /** @return R.L_t = L / phi_t (+infinity when phi_t = 0). */
    double virtualServiceTime(ThreadId t) const
    {
        return rl_.at(t);
    }

    /**
     * Fault-injection hook: rewind thread @p t's R.S_i register by
     * @p delta, violating virtual-time monotonicity on purpose so the
     * VpcArbiterAuditor can be proven live.
     */
    void
    faultCorruptVirtualTime(ThreadId t, double delta)
    {
        rs_.at(t) -= delta;
    }

  protected:
    void doEnqueue(const ArbRequest &req, Cycle now) override;
    bool doFaultDropOldest(ThreadId t) override;

    /** Hard cap on threads per arbiter (the active set is a mask). */
    static constexpr unsigned kMaxThreads = 64;

  private:
    /**
     * Index into thread @p t's buffer of the request to service next
     * under the intra-thread reordering policy (RoW subject to
     * same-line dependences when enabled, else FIFO).  Cached per
     * thread: the RoW scan depends only on the buffer's contents, so
     * the cache is invalidated exactly on buffer mutation (enqueue,
     * grant, fault drop).  Between mutations the EDF loop reads the
     * winner back in O(1) instead of rescanning every backlogged
     * buffer every select.
     */
    std::size_t candidateIndex(ThreadId t) const;

    /** Drop thread @p t's cached candidate (buffer mutated). */
    void
    invalidateCandidate(ThreadId t)
    {
        candValid_ &= ~(std::uint64_t{1} << t);
    }

    /** Virtual service time of @p req for thread @p t. */
    double
    virtualService(ThreadId t, const ArbRequest &req) const
    {
        return req.isWrite ? rl_[t] * writeMult : rl_[t];
    }

    //! @name Per-thread state, flat (structure-of-arrays)
    /// @{
    std::vector<SmallRing<ArbRequest>> buffers_;
    std::vector<double> phi_; //!< bandwidth share
    std::vector<double> rl_;  //!< R.L_i = L / phi_i
    std::vector<double> rs_;  //!< R.S_i register
    mutable std::vector<std::uint32_t> candIdx_; //!< cached candidate
    /// @}
    /** Bit t set iff candIdx_[t] is current for buffers_[t]. */
    mutable std::uint64_t candValid_ = 0;
    /**
     * Bit t set iff thread t's buffer is non-empty.  EDF selection
     * iterates set bits only, so idle threads cost nothing — with one
     * backlogged thread out of 64, select() visits one queue, not 64.
     */
    std::uint64_t activeMask = 0;
    /** Scratch for the single-pass RoW scan (capacity persists). */
    mutable std::vector<Addr> rowScratch;
    double vclock = 0.0; //!< start tag of the last granted request
    Cycle latency;
    unsigned writeMult;
    VpcArbiterOptions options;
    std::size_t total = 0;
};

} // namespace vpc

#endif // VPC_ARBITER_VPC_ARBITER_HH
