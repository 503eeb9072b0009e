/**
 * @file
 * Round-robin arbiter.
 *
 * Used by the baseline cache controller to select which thread's request
 * (after store gathering) is admitted into the controller pipeline next
 * (Section 3.1).  Rotates a priority pointer one past the last granted
 * thread, FIFO within each thread.
 */

#ifndef VPC_ARBITER_ROUND_ROBIN_ARBITER_HH
#define VPC_ARBITER_ROUND_ROBIN_ARBITER_HH

#include "arbiter/arbiter.hh"
#include "sim/ring.hh"

namespace vpc
{

/** Grants one request per thread in rotating order. */
class RoundRobinArbiter : public Arbiter
{
  public:
    explicit RoundRobinArbiter(unsigned num_threads);

    std::optional<ArbRequest> select(Cycle now) override;
    std::size_t pendingCount() const override;
    std::size_t pendingCount(ThreadId t) const override;
    std::string name() const override { return "RoundRobin"; }

  protected:
    void doEnqueue(const ArbRequest &req, Cycle now) override;
    bool doFaultDropOldest(ThreadId t) override;

  private:
    std::vector<SmallRing<ArbRequest>> queues;
    ThreadId nextThread = 0;
    std::size_t total = 0;
};

} // namespace vpc

#endif // VPC_ARBITER_ROUND_ROBIN_ARBITER_HH
