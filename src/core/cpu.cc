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
}

Cycle
Cpu::nextWork(Cycle now) const
{
    // Retire acts unless the ROB is empty or the head is a load still
    // in flight (a store head attempts an L2 write-through, a Done or
    // compute head retires — both observable).
    if (!rob.empty()) {
        const RobEntry &head = rob.front();
        if (head.op.kind != MicroOp::Kind::Load ||
            head.state == State::Done)
            return now;
    }
    // Any waiting load keeps the core due, ready or not: a ready one
    // consumes a port and may draw from the RNG even if it ends up
    // rejected.
    if (waitingLoads_ != 0)
        return now;
    // Dispatch acts unless structurally blocked with the next op
    // already in the block buffer (an empty buffer means dispatch
    // would refill it, consuming workload state).
    if (rob.size() < cfg.robEntries) {
        if (fetchPos_ >= fetchLen_)
            return now;
        const MicroOp &head = fetchBlock_[fetchPos_];
        bool lq_full = head.kind == MicroOp::Kind::Load &&
                       loadsInRob >= cfg.loadQueueEntries;
        bool sq_full = head.kind == MicroOp::Kind::Store &&
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

void
Cpu::retireStage(Cycle now)
{
    unsigned committed_stores = 0;
    for (unsigned i = 0; i < cfg.retireWidth && !rob.empty(); ++i) {
        RobEntry &head = rob.front();
        if (head.op.kind == MicroOp::Kind::Store) {
            if (committed_stores >= cfg.storeCommitWidth)
                break;
            // Write-through: the store must be accepted by the target
            // bank's gathering buffer before it can leave the machine.
            if (!l2.store(thread, head.op.addr, now)) {
                storeStalls.inc();
                break;
            }
            l1.store(head.op.addr, now);
            ++committed_stores;
            stores.inc();
            --storesInRob;
        } else if (head.op.kind == MicroOp::Kind::Load) {
            if (head.state != State::Done)
                break;
            loads.inc();
            --loadsInRob;
            ++headLoadIdx_;
        } else if (head.state != State::Done) {
            break;
        }
        retired.inc();
        rob.pop_front();
    }
}

void
Cpu::issueStage(Cycle now)
{
    if (readyMask_ == 0)
        return; // nothing issuable
    unsigned ports_used = 0;
    // ROB sequence numbers are contiguous (allocated at dispatch,
    // released only from the front), so seq sits seq - base slots in.
    SeqNum base = rob.front().seq;
    // Rotated so bit k is the load k places after the oldest one in
    // the ROB: the set bits, lowest first, are the ready loads in
    // program order.  Rejected and blocked loads keep their bit.
    unsigned shift = static_cast<unsigned>(headLoadIdx_ & 63);
    std::uint64_t ready = std::rotr(readyMask_, static_cast<int>(shift));
    for (; ready != 0 && ports_used < cfg.lsuPorts; ready &= ready - 1) {
        unsigned slot = (shift + std::countr_zero(ready)) & 63;
        RobEntry &e = rob[loadSlot_[slot] - base];
        ++ports_used;
        // One touching probe decides hit/miss up front.  This is
        // load()'s internal lookup hoisted above the reject draw: the
        // LRU touch only happens on a hit (where no RNG is consulted)
        // and a miss leaves the array untouched, so state and the RNG
        // sequence are identical to probing after the draw.
        bool hit = l1.probeTouch(e.op.addr);
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
                hitLane_.push(now + l1.hitLatency(), e.seq);
            else
                l1.scheduleHit(now, [this, seq = e.seq]() {
                    complete(seq);
                });
        } else if (l1.loadMiss(e.op.addr, now,
                               [this, seq = e.seq]() {
                                   complete(seq);
                               }) == L1DCache::LoadResult::Blocked) {
            // all MSHRs busy; slot wasted, retry later
            continue;
        }
        e.state = State::Issued;
        readyMask_ &= ~(std::uint64_t{1} << slot);
        --waitingLoads_;
    }
}

void
Cpu::refillBlock()
{
    workload.nextBlock(std::span<MicroOp>(fetchBlock_));
    // Pre-decode the dependence flags into the side-array so the
    // dispatch loop reads a plain byte instead of re-inspecting ops.
    for (std::size_t i = 0; i < kFetchBlock; ++i)
        fetchDeps_[i] = fetchBlock_[i].dependsOnPrevLoad ? 1 : 0;
    fetchPos_ = 0;
    fetchLen_ = kFetchBlock;
}

void
Cpu::dispatchStage(Cycle now)
{
    (void)now;
    for (unsigned i = 0; i < cfg.dispatchWidth; ++i) {
        if (rob.size() >= cfg.robEntries)
            break;
        if (fetchPos_ >= fetchLen_)
            refillBlock();
        const MicroOp &head = fetchBlock_[fetchPos_];
        if (head.kind == MicroOp::Kind::Load &&
            loadsInRob >= cfg.loadQueueEntries) {
            break;
        }
        if (head.kind == MicroOp::Kind::Store &&
            storesInRob >= cfg.storeQueueEntries) {
            break;
        }

        RobEntry &entry = rob.emplace_back();
        entry.op = head;
        entry.op.dependsOnPrevLoad = fetchDeps_[fetchPos_] != 0;
        ++fetchPos_;
        entry.seq = nextSeq++;
        switch (entry.op.kind) {
          case MicroOp::Kind::Load: {
            std::uint64_t ord = nextLoadOrd_++;
            entry.loadOrd = ord;
            loadSlot_[ord & 63] = entry.seq;
            ++loadsInRob;
            ++waitingLoads_;
            // Ready unless its producer (the previous load) is still
            // in the ROB and not Done; complete() sets the bit then.
            if (!entry.op.dependsOnPrevLoad || ord - 1 < headLoadIdx_ ||
                rob[loadSlot_[(ord - 1) & 63] - rob.front().seq].state ==
                    State::Done)
                readyMask_ |= std::uint64_t{1} << (ord & 63);
            break;
          }
          case MicroOp::Kind::Store:
            ++storesInRob;
            break;
          case MicroOp::Kind::Compute:
            // Non-memory work completes in a single cycle; it becomes
            // retirable on the next retire pass.
            entry.state = State::Done;
            break;
        }
    }
}

void
Cpu::complete(SeqNum seq)
{
    // Contiguous ROB sequence numbers make completion O(1): the entry
    // for seq, if still tracked, is exactly seq - front.seq slots in.
    SeqNum base = rob.empty() ? nextSeq : rob.front().seq;
    if (rob.empty() || seq < base || seq - base >= rob.size())
        vpc_panic("completion for unknown seq {}", seq);
    RobEntry &e = rob[seq - base];
    if (e.state != State::Issued)
        vpc_panic("completion for seq {} in state {}", seq,
                  static_cast<int>(e.state));
    e.state = State::Done;
    // Only loads complete here.  A dependent successor waits on
    // exactly this one: it becomes ready now.
    std::uint64_t next = e.loadOrd + 1;
    if (next < nextLoadOrd_) {
        const RobEntry &n = rob[loadSlot_[next & 63] - base];
        if (n.op.dependsOnPrevLoad && n.state == State::Waiting)
            readyMask_ |= std::uint64_t{1} << (next & 63);
    }
}

} // namespace vpc
