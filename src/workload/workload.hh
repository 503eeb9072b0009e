/**
 * @file
 * Workload abstraction: a lazy stream of micro-operations.
 *
 * The processor model pulls MicroOps from a Workload and executes them
 * on the memory hierarchy.  Workloads are infinite streams (benchmarks
 * loop), matching the paper's methodology of running each benchmark for
 * a fixed simulated interval.
 */

#ifndef VPC_WORKLOAD_WORKLOAD_HH
#define VPC_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "sim/types.hh"

namespace vpc
{

/** One dynamic instruction as seen by the timing model. */
struct MicroOp
{
    enum class Kind : std::uint8_t
    {
        Load,    //!< memory read
        Store,   //!< memory write (write-through to L2)
        Compute  //!< non-memory instruction (single-cycle)
    };

    Kind kind = Kind::Compute;
    Addr addr = 0;
    /**
     * The op cannot issue until the previous load in program order has
     * completed (models address-generation / pointer-chase dependences
     * that limit memory-level parallelism).
     */
    bool dependsOnPrevLoad = false;
};

/** An infinite instruction stream. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** @return the next dynamic instruction. */
    virtual MicroOp next() = 0;

    /**
     * Fill @p out with the next out.size() dynamic instructions, in
     * program order — exactly the ops that out.size() calls of next()
     * would have returned.  Generators override this to amortize the
     * per-op virtual dispatch over a whole block (the processor model
     * fetches through a refillable block buffer); the default simply
     * loops next() so trivial workloads stay one-method classes.
     */
    virtual void
    nextBlock(std::span<MicroOp> out)
    {
        for (MicroOp &op : out)
            op = next();
    }

    /** @return the benchmark's display name. */
    virtual std::string name() const = 0;

    /**
     * Create an identical fresh generator (restarted, reseeded with
     * @p seed where applicable).  Used to rerun the same benchmark on
     * an equivalently provisioned private machine for target IPCs.
     */
    virtual std::unique_ptr<Workload> clone(std::uint64_t seed)
        const = 0;
};

} // namespace vpc

#endif // VPC_WORKLOAD_WORKLOAD_HH
