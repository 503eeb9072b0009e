/**
 * @file
 * Read-over-Write, First-Come First-Serve arbiter.
 *
 * The uniprocessor (private cache) baseline policy: among pending
 * requests, reads are always granted before writes; ties broken by
 * arrival order.  Effective for a single thread, but in a multithreaded
 * cache a thread issuing a continuous load stream starves every other
 * thread's stores indefinitely (Section 3.1 / Figure 8 of the paper) --
 * the motivating design flaw for the VPC arbiter.
 *
 * A read may not bypass an older write to the same line address
 * (dependence), mirroring the consistency checks performed before
 * requests enter arbitration in the baseline microarchitecture.
 */

#ifndef VPC_ARBITER_ROW_FCFS_ARBITER_HH
#define VPC_ARBITER_ROW_FCFS_ARBITER_HH

#include "arbiter/arbiter.hh"
#include "sim/ring.hh"

namespace vpc
{

/** Grants reads before writes, FCFS within each class. */
class RowFcfsArbiter : public Arbiter
{
  public:
    explicit RowFcfsArbiter(unsigned num_threads);

    std::optional<ArbRequest> select(Cycle now) override;
    std::size_t pendingCount() const override;
    std::size_t pendingCount(ThreadId t) const override;
    std::string name() const override { return "RoW-FCFS"; }

  protected:
    void doEnqueue(const ArbRequest &req, Cycle now) override;
    bool doFaultDropOldest(ThreadId t) override;

  private:
    SmallRing<ArbRequest> queue;
    std::vector<std::size_t> perThread;
    /** Scratch for the single-pass RoW scan (capacity persists). */
    std::vector<Addr> rowScratch;
};

} // namespace vpc

#endif // VPC_ARBITER_ROW_FCFS_ARBITER_HH
