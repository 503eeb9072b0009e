#include "core/cpu.hh"

#include <bit>

#include "sim/logging.hh"

namespace vpc
{

Cpu::Cpu(const CoreConfig &cfg_, ThreadId thread_, Workload &workload_,
         L1DCache &l1_, L2Cache &l2_)
    : cfg(cfg_), thread(thread_), workload(workload_), l1(l1_),
      l2(l2_), rng(0xc0ffee + thread_, 0xabcd1234 + thread_),
      lsuRejectB_(cfg.lsuRejectProb)
{
    if (cfg.loadQueueEntries > loadSlot_.size())
        vpc_panic("{} load queue entries exceed the {}-bit ready mask",
                  cfg.loadQueueEntries, loadSlot_.size());
    if (cfg.robEntries > CoreConfig::kMaxRobEntries)
        vpc_panic("{} ROB entries exceed the {}-entry limit",
                  cfg.robEntries, CoreConfig::kMaxRobEntries);
    std::size_t slots = std::bit_ceil(std::size_t{cfg.robEntries});
    rob_ = std::make_unique<RobEntry[]>(slots);
    robMask_ = slots - 1;
}

Cycle
Cpu::nextWork(Cycle now) const
{
    // Retire acts unless the ROB is empty or the head is a load still
    // in flight (a store head attempts an L2 write-through, a Done or
    // compute head retires — both observable).  The head slot is read
    // even when the ROB is empty (any slot is a valid read), so the
    // test needs no branch on the random op kind.
    const RobEntry &head = slot(headSeq_);
    bool retire_acts = (headSeq_ != nextSeq) &
                       ((head.kind != MicroOp::Kind::Load) |
                        (head.state == State::Done));
    // Any waiting load keeps the core due, ready or not: a ready one
    // consumes a port and may draw from the RNG even if it ends up
    // rejected.
    if (retire_acts | (waitingLoads_ != 0))
        return now;
    // Dispatch acts unless structurally blocked with the next op
    // already in the block buffer (an empty buffer means dispatch
    // would refill it, consuming workload state).
    if (robSize() < cfg.robEntries) {
        if (fetchPos_ >= fetchLen_)
            return now;
        const MicroOp &op = fetchBlock_[fetchPos_];
        bool lq_full = op.kind == MicroOp::Kind::Load &&
                       loadsInRob >= cfg.loadQueueEntries;
        bool sq_full = op.kind == MicroOp::Kind::Store &&
                       storesInRob >= cfg.storeQueueEntries;
        if (!lq_full && !sq_full)
            return now;
    }
    return kCycleMax; // a load-completion event wakes the core
}

void
Cpu::tick(Cycle now)
{
    // Classic reverse pipeline order so data moves one stage per cycle.
    retireStage(now);
    issueStage(now);
    dispatchStage(now);
}

bool
Cpu::tickIfDue(Cycle now)
{
    if (Cpu::nextWork(now) > now)
        return false;
    Cpu::tick(now);
    return true;
}

void
Cpu::retireStage(Cycle now)
{
    SeqNum first = headSeq_;
    unsigned committed_stores = 0;
    for (unsigned i = 0; i < cfg.retireWidth && headSeq_ != nextSeq;
         ++i) {
        const RobEntry &head = slot(headSeq_);
        if (head.state == State::Done) {
            // A Done entry is a completed load or a compute op.
            bool is_load = head.kind == MicroOp::Kind::Load;
            loads.inc(is_load);
            loadsInRob -= is_load;
            headLoadIdx_ += is_load;
        } else if (head.kind == MicroOp::Kind::Store) {
            if (committed_stores >= cfg.storeCommitWidth)
                break;
            // Write-through: the store must be accepted by the target
            // bank's gathering buffer before it can leave the machine.
            if (!l2.store(thread, head.addr, now)) {
                storeStalls.inc();
                break;
            }
            l1.store(head.addr, now);
            ++committed_stores;
            stores.inc();
            --storesInRob;
        } else {
            break; // a load still in flight
        }
        ++headSeq_;
    }
    retired.inc(headSeq_ - first);
}

void
Cpu::issueStage(Cycle now)
{
    if (readyMask_ == 0)
        return; // nothing issuable
    unsigned ports_used = 0;
    // Rotated so bit k is the load k places after the oldest one in
    // the ROB: the set bits, lowest first, are the ready loads in
    // program order.  Rejected and blocked loads keep their bit.
    unsigned shift = static_cast<unsigned>(headLoadIdx_ & 63);
    std::uint64_t ready = std::rotr(readyMask_, static_cast<int>(shift));
    for (; ready != 0 && ports_used < cfg.lsuPorts; ready &= ready - 1) {
        unsigned bit = (shift + std::countr_zero(ready)) & 63;
        SeqNum seq = loadSlot_[bit];
        RobEntry &e = slot(seq);
        ++ports_used;
        // One touching probe decides hit/miss up front.  This is
        // load()'s internal lookup hoisted above the reject draw: the
        // LRU touch only happens on a hit (where no RNG is consulted)
        // and a miss leaves the array untouched, so state and the RNG
        // sequence are identical to probing after the draw.
        bool hit = l1.probeTouch(e.addr);
        if (!hit && rng.chance(lsuRejectB_)) {
            // LSU reject on an L1 miss (LMQ allocation): the issue
            // slot is wasted and the load retries later, perturbing
            // the order loads reach the L2 and capping miss issue
            // bandwidth -- the 970 behaviour behind the Loads
            // benchmark's sub-100% utilization at >= 4 banks (Fig. 5).
            lsuRejects.inc();
            continue;
        }
        if (hit) {
            l1.completeHit();
            if (hitFused_)
                hitLane_.push(now + l1.hitLatency(), seq);
            else
                l1.scheduleHit(now, [this, seq]() { complete(seq); });
        } else if (l1.loadMiss(e.addr, now,
                               [this, seq]() { complete(seq); }) ==
                   L1DCache::LoadResult::Blocked) {
            // all MSHRs busy; slot wasted, retry later
            continue;
        }
        e.state = State::Issued;
        readyMask_ &= ~(std::uint64_t{1} << bit);
        --waitingLoads_;
    }
}

void
Cpu::refillBlock()
{
    workload.nextBlock(std::span<MicroOp>(fetchBlock_));
    fetchPos_ = 0;
    fetchLen_ = kFetchBlock;
}

void
Cpu::dispatchStage(Cycle now)
{
    (void)now;
    for (unsigned i = 0; i < cfg.dispatchWidth; ++i) {
        if (robSize() >= cfg.robEntries)
            break;
        if (fetchPos_ >= fetchLen_)
            refillBlock();
        const MicroOp &op = fetchBlock_[fetchPos_];
        // The op mix is random, so the stage tests the kind without
        // branching where it can (bitwise, not short-circuit, logic).
        bool is_load = op.kind == MicroOp::Kind::Load;
        bool is_store = op.kind == MicroOp::Kind::Store;
        if ((is_load & (loadsInRob >= cfg.loadQueueEntries)) |
            (is_store & (storesInRob >= cfg.storeQueueEntries)))
            break;
        ++fetchPos_;

        SeqNum seq = nextSeq++;
        RobEntry &entry = slot(seq);
        entry.addr = op.addr;
        entry.kind = op.kind;
        entry.dependsOnPrevLoad = op.dependsOnPrevLoad;
        // Non-memory work completes in a single cycle; it becomes
        // retirable on the next retire pass.
        entry.state = is_load || is_store ? State::Waiting : State::Done;
        storesInRob += is_store;
        if (is_load) {
            std::uint64_t ord = nextLoadOrd_++;
            entry.loadOrd = ord;
            loadSlot_[ord & 63] = seq;
            ++loadsInRob;
            ++waitingLoads_;
            // Ready unless its producer (the previous load) is still
            // in the ROB and not Done; complete() sets the bit then.
            // The producer's slot is read even when the answer is
            // already known: any slot is a valid read.
            bool ready =
                !op.dependsOnPrevLoad | (ord - 1 < headLoadIdx_) |
                (slot(loadSlot_[(ord - 1) & 63]).state == State::Done);
            readyMask_ |= std::uint64_t{ready} << (ord & 63);
        }
    }
}

void
Cpu::complete(SeqNum seq)
{
    // Only [headSeq_, nextSeq) are live.  A retired seq's slot may
    // already hold a younger entry, so the range check, not the slot,
    // decides whether seq is known.
    if (seq < headSeq_ || seq >= nextSeq)
        vpc_panic("completion for unknown seq {}", seq);
    RobEntry &e = slot(seq);
    if (e.state != State::Issued)
        vpc_panic("completion for seq {} in state {}", seq,
                  static_cast<int>(e.state));
    e.state = State::Done;
    // Only loads complete here.  A dependent successor waits on
    // exactly this one: it becomes ready now.
    std::uint64_t next = e.loadOrd + 1;
    if (next < nextLoadOrd_) {
        const RobEntry &n = slot(loadSlot_[next & 63]);
        if (n.dependsOnPrevLoad && n.state == State::Waiting)
            readyMask_ |= std::uint64_t{1} << (next & 63);
    }
}

} // namespace vpc
