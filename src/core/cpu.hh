/**
 * @file
 * Simplified out-of-order processor model.
 *
 * Captures the structural properties of Table 1's core that matter to
 * the cache study, without modeling individual functional units:
 *
 *  - a dispatch-group-organized reorder buffer (100 entries = 20 groups
 *    of 5) filled in order at the dispatch width;
 *  - load/store reorder queues bounding in-flight memory operations;
 *  - loads issued out of order through a fixed number of LSU ports,
 *    with MSHR-bounded memory-level parallelism and an LSU-reject
 *    mechanism that perturbs issue order (see CoreConfig);
 *  - program-order retirement at the retire width; stores commit at the
 *    head by writing through the L1 into the L2's store gathering
 *    buffers, stalling retirement when a buffer is full (the
 *    backpressure path that throttles the Stores microbenchmark);
 *  - single-cycle non-memory instructions.
 *
 * Instruction fetch is not modeled (the workloads are small loops that
 * always hit the I-cache, as in the paper's microbenchmarks).
 */

#ifndef VPC_CORE_CPU_HH
#define VPC_CORE_CPU_HH

#include <array>
#include <memory>

#include "cache/l1_cache.hh"
#include "cache/l2_cache.hh"
#include "sim/config.hh"
#include "sim/fused_chain.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace vpc
{

/** One hardware thread's processor pipeline. */
class Cpu : public Ticking
{
  public:
    /**
     * @param cfg core parameters
     * @param thread hardware thread id
     * @param workload instruction stream (not owned)
     * @param l1 private L1 D-cache (not owned)
     * @param l2 shared L2 (not owned)
     */
    Cpu(const CoreConfig &cfg, ThreadId thread, Workload &workload,
        L1DCache &l1, L2Cache &l2);

    void tick(Cycle now) override;

    /** Direct-call nextWork() + tick() (see Ticking::tickIfDue). */
    bool tickIfDue(Cycle now) override;

    /**
     * Quiescence hint (see Ticking::nextWork).  The core sleeps only
     * when provably stalled on memory: the ROB head is a load still in
     * flight, no dispatched load is waiting to issue, ready or not (a
     * ready load consumes an LSU port and may draw from the RNG even
     * when it ends up rejected or blocked, so it keeps the core
     * active), and
     * dispatch is structurally blocked with its next op already in the
     * fetch block buffer (an empty buffer means dispatch would refill
     * it from the workload).  The load-completion event flips the head
     * to Done, which makes the re-polled hint due again the same cycle
     * the naive loop would have retired it.
     */
    Cycle nextWork(Cycle now) const override;

    /** @return instructions retired so far. */
    std::uint64_t instrsRetired() const { return retired.value(); }

    /** @return loads retired so far. */
    std::uint64_t loadsRetired() const { return loads.value(); }

    /** @return stores retired so far. */
    std::uint64_t storesRetired() const { return stores.value(); }

    /** @return cycles retirement stalled on a full gathering buffer. */
    std::uint64_t storeStallCycles() const { return storeStalls.value(); }

    /** @return instructions per cycle over @p window cycles. */
    double
    ipc(Cycle window) const
    {
        return window == 0 ? 0.0
            : static_cast<double>(retired.value()) /
              static_cast<double>(window);
    }

    /** @return this thread's id. */
    ThreadId threadId() const { return thread; }

    /**
     * @name Fused L1 hit completion lane
     *
     * The hit hop is (constant hitLatency, one SeqNum to complete) —
     * pure data, no closure.  The system builder registers hitChain()
     * with the kernel (Simulator::addFusedChain) and flips
     * setHitFused(true);
     * issueStage then pushes (due, seq) records instead of scheduling
     * an event, and the kernel's drain completes them the cycle the
     * event would have fired.  Left unfused (unit tests, VPC_NO_FUSE)
     * the hit completion is an ordinary event via L1::scheduleHit.
     */
    /// @{
    /** Drained-record consumer: completes the recorded load. */
    struct HitSink
    {
        Cpu *cpu;
        void
        operator()(Cycle, const SeqNum &seq) const
        {
            cpu->complete(seq);
        }
    };
    using HitLane = DataLane<SeqNum, HitSink>;

    /** @return the lane, for kernel registration (uncounted). */
    FusedChain *hitChain() { return &hitLane_; }

    /** Route hit completions through the lane (default: events). */
    void setHitFused(bool on) { hitFused_ = on; }
    /// @}

  private:
    enum class State : std::uint8_t
    {
        Waiting, //!< not yet issued
        Issued,  //!< access in flight
        Done     //!< result available; retirable
    };

    /**
     * One ROB slot.  The entry's sequence number is implicit: seq
     * lives in slot seq & robMask_.  Dispatch writes every field.
     */
    struct RobEntry
    {
        Addr addr;                //!< memory ops only
        std::uint64_t loadOrd;    //!< load ordinal (loads only)
        MicroOp::Kind kind;
        State state;
        bool dependsOnPrevLoad;
    };

    /**
     * Ops fetched per Workload::nextBlock() call.  One virtual call
     * (and, for generators, one string-free tight loop) is amortized
     * over this many dispatched ops.
     */
    static constexpr std::size_t kFetchBlock = 128;

    /** Retire completed instructions in order; commit stores. */
    void retireStage(Cycle now);

    /** Issue ready loads through the LSU ports. */
    void issueStage(Cycle now);

    /** Dispatch new instructions from the fetch block buffer. */
    void dispatchStage(Cycle now);

    /** Refill the block buffer from the workload (pre-decodes deps). */
    void refillBlock();

    /** Mark the entry with sequence number @p seq complete. */
    void complete(SeqNum seq);

    /** @return the ROB entry of in-flight sequence number @p seq. */
    RobEntry &slot(SeqNum seq) { return rob_[seq & robMask_]; }
    const RobEntry &slot(SeqNum seq) const
    {
        return rob_[seq & robMask_];
    }

    /** @return instructions in the ROB. */
    std::size_t robSize() const { return nextSeq - headSeq_; }

    CoreConfig cfg;
    ThreadId thread;
    Workload &workload;
    L1DCache &l1;
    L2Cache &l2;
    Rng rng;
    Bernoulli lsuRejectB_; //!< cfg.lsuRejectProb in threshold form

    /**
     * @name Reorder buffer
     *
     * ROB sequence numbers are contiguous (allocated at dispatch,
     * released only from the front), so the ROB is a fixed
     * power-of-two array of at least robEntries slots indexed by
     * seq & robMask_: [headSeq_, nextSeq) are the live entries, oldest
     * first.  At most robEntries are live, so no two share a slot.
     */
    /// @{
    std::unique_ptr<RobEntry[]> rob_;
    SeqNum robMask_ = 0;
    SeqNum headSeq_ = 1; //!< oldest live entry (== nextSeq when empty)
    SeqNum nextSeq = 1;  //!< sequence number of the next dispatch
    /// @}
    /** @name Fetch block buffer (refilled via Workload::nextBlock) */
    /// @{
    std::array<MicroOp, kFetchBlock> fetchBlock_;
    std::size_t fetchPos_ = 0; //!< next unconsumed op
    std::size_t fetchLen_ = 0; //!< valid ops in the buffer
    /// @}
    unsigned loadsInRob = 0;
    unsigned storesInRob = 0;
    /**
     * @name Ready-load mask
     *
     * Loads are numbered in dispatch order by an ordinal; at most
     * loadQueueEntries <= 64 are in the ROB at once, so ordinal & 63
     * names a load uniquely.  Bit (ordinal & 63) of readyMask_ is set
     * while the load is Waiting with its dependence met.  A load
     * depends only on the load dispatched just before it, so it
     * becomes ready at exactly two points: at dispatch (independent,
     * or its producer already Done or retired) or when its producer
     * completes.  The issue stage walks the set bits from the oldest
     * load in the ROB, in program order, and never visits a load that
     * is blocked on its dependence.
     */
    /// @{
    std::uint64_t readyMask_ = 0;
    std::array<SeqNum, 64> loadSlot_{}; //!< ordinal & 63 -> ROB seq
    /**
     * Ordinal of the oldest load in the ROB.  Ordinals start at 1, so
     * the first load's (absent) producer, ordinal 0, counts as
     * retired.
     */
    std::uint64_t headLoadIdx_ = 1;
    std::uint64_t nextLoadOrd_ = 1; //!< ordinal of the next load
    unsigned waitingLoads_ = 0;     //!< dispatched, not yet issued
    /// @}

    HitLane hitLane_{/*counted=*/false, HitSink{this}};
    bool hitFused_ = false; //!< hit completions ride hitLane_

    Counter retired;
    Counter loads;
    Counter stores;
    Counter storeStalls;
    Counter lsuRejects;
};

} // namespace vpc

#endif // VPC_CORE_CPU_HH
