/**
 * @file
 * Abstract arbiter interface for shared cache resources.
 *
 * Each shared resource in an L2 bank (tag array, data array, data bus)
 * owns one Arbiter.  Requests enter arbitration with enqueue(); whenever
 * the resource is free, it calls select() to pick the next request.
 */

#ifndef VPC_ARBITER_ARBITER_HH
#define VPC_ARBITER_ARBITER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arbiter/arb_request.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vpc
{

/**
 * Selects which pending request accesses a shared resource next.
 *
 * Implementations must be work-conserving unless documented otherwise:
 * if hasPending() is true, select() must eventually return a request.
 */
class Arbiter
{
  public:
    /** @param num_threads number of hardware threads sharing us. */
    explicit Arbiter(unsigned num_threads)
        : numThreads_(num_threads), grants_(num_threads),
          enqueues_(num_threads)
    {}

    virtual ~Arbiter() = default;

    Arbiter(const Arbiter &) = delete;
    Arbiter &operator=(const Arbiter &) = delete;

    /**
     * Add a request to arbitration.
     *
     * Non-virtual so the base class can count per-thread admissions;
     * together with grantCount() and pendingCount() this lets the
     * verify layer prove request conservation (nothing is lost or
     * duplicated between enqueue and grant).  Policies implement
     * doEnqueue().
     *
     * @param req the request; req.thread must be < numThreads()
     * @param now current cycle (the arrival time a_i^k)
     */
    void
    enqueue(const ArbRequest &req, Cycle now)
    {
        ++enqueues_.at(req.thread);
        ++live_;
        doEnqueue(req, now);
    }

    /**
     * Choose the request that accesses the resource next and remove it
     * from arbitration.
     *
     * @param now current cycle
     * @return the granted request, or std::nullopt if none is pending
     *         (or, for non-work-conserving policies, none is eligible)
     */
    virtual std::optional<ArbRequest> select(Cycle now) = 0;

    /**
     * @return true if any request is waiting.  Non-virtual: the base
     * class keeps the live count (enqueues less grants and drops),
     * which the resources test several times per cycle.
     */
    bool hasPending() const { return live_ != 0; }

    /** @return total requests waiting across all threads. */
    virtual std::size_t pendingCount() const = 0;

    /** @return requests waiting for thread @p t. */
    virtual std::size_t pendingCount(ThreadId t) const = 0;

    /**
     * Update thread @p t's bandwidth share.  Policies without shares
     * ignore this.  Takes effect for subsequent service.
     */
    virtual void setShare(ThreadId t, double phi) { (void)t; (void)phi; }

    /** @return a short human-readable policy name. */
    virtual std::string name() const = 0;

    /** @return number of threads sharing this resource. */
    unsigned numThreads() const { return numThreads_; }

    /** @return grants issued so far to thread @p t. */
    std::uint64_t grantCount(ThreadId t) const { return grants_.at(t); }

    /** @return requests admitted so far for thread @p t. */
    std::uint64_t enqueueCount(ThreadId t) const { return enqueues_.at(t); }

    /** Queueing delay (enqueue to grant) statistics. */
    const SampleStat &queueDelay() const { return queueDelay_; }

    /**
     * Fault-injection hook: silently discard thread @p t's oldest
     * pending request without recording a grant, breaking request
     * conservation on purpose so the auditors can be proven live.
     *
     * @return true if a request was dropped
     */
    bool
    faultDropOldest(ThreadId t)
    {
        if (!doFaultDropOldest(t))
            return false;
        --live_;
        return true;
    }

  protected:
    /** Policy-specific admission; called by enqueue(). */
    virtual void doEnqueue(const ArbRequest &req, Cycle now) = 0;
    /** Policy-specific drop; called by faultDropOldest(). */
    virtual bool doFaultDropOldest(ThreadId t) { (void)t; return false; }
    /**
     * Record a grant for stats and the live count; every select()
     * implementation calls it once per request it removes.
     */
    void
    recordGrant(const ArbRequest &req, Cycle now)
    {
        ++grants_.at(req.thread);
        --live_;
        queueDelay_.sample(static_cast<double>(now - req.arrival));
    }

  private:
    std::size_t live_ = 0; //!< requests waiting, all threads
    unsigned numThreads_;
    std::vector<std::uint64_t> grants_;
    std::vector<std::uint64_t> enqueues_;
    SampleStat queueDelay_;
};

} // namespace vpc

#endif // VPC_ARBITER_ARBITER_HH
