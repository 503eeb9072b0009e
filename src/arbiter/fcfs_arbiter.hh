/**
 * @file
 * First-come first-serve arbiter.
 *
 * The multiprocessor baseline policy for shared resources in the paper's
 * evaluation: requests are granted in global arrival order regardless of
 * thread or request type.  Under FCFS, threads receive resource *time* in
 * proportion to their request rate and per-request occupancy (e.g. with
 * one load interleaved per store on the data array, the store thread gets
 * 2/3 of the bandwidth because writes occupy the array twice as long).
 */

#ifndef VPC_ARBITER_FCFS_ARBITER_HH
#define VPC_ARBITER_FCFS_ARBITER_HH

#include "arbiter/arbiter.hh"
#include "sim/ring.hh"

namespace vpc
{

/** Grants requests in strict global arrival order. */
class FcfsArbiter : public Arbiter
{
  public:
    explicit FcfsArbiter(unsigned num_threads);

    std::optional<ArbRequest> select(Cycle now) override;
    std::size_t pendingCount() const override;
    std::size_t pendingCount(ThreadId t) const override;
    std::string name() const override { return "FCFS"; }

  protected:
    void doEnqueue(const ArbRequest &req, Cycle now) override;
    bool doFaultDropOldest(ThreadId t) override;

  private:
    SmallRing<ArbRequest> queue;
    std::vector<std::size_t> perThread;
};

} // namespace vpc

#endif // VPC_ARBITER_FCFS_ARBITER_HH
