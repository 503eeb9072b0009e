/**
 * @file
 * Unit tests for the simplified out-of-order core model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/cpu.hh"
#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "workload/microbench.hh"
#include "workload/workload.hh"

namespace vpc
{
namespace
{

/** Emits only single-cycle compute ops. */
struct ComputeOnly : Workload
{
    MicroOp next() override { return MicroOp{}; }
    std::string name() const override { return "compute"; }
    std::unique_ptr<Workload> clone(std::uint64_t) const override
    {
        return std::make_unique<ComputeOnly>();
    }
};

/** Emits loads to one L1-resident line, optionally dependent. */
struct HotLoads : Workload
{
    explicit HotLoads(bool dep_) : dep(dep_) {}

    MicroOp
    next() override
    {
        MicroOp op;
        op.kind = MicroOp::Kind::Load;
        op.addr = 0x1000;
        op.dependsOnPrevLoad = dep;
        return op;
    }

    std::string name() const override { return "hotloads"; }

    std::unique_ptr<Workload>
    clone(std::uint64_t) const override
    {
        return std::make_unique<HotLoads>(dep);
    }

    bool dep;
};

/** Replays a fixed script of ops forever. */
struct Scripted : Workload
{
    explicit Scripted(std::vector<MicroOp> s) : script(std::move(s)) {}

    MicroOp
    next() override
    {
        MicroOp op = script[pos];
        pos = (pos + 1) % script.size();
        return op;
    }

    std::string name() const override { return "scripted"; }

    std::unique_ptr<Workload>
    clone(std::uint64_t) const override
    {
        return std::make_unique<Scripted>(script);
    }

    std::vector<MicroOp> script;
    std::size_t pos = 0;
};

MicroOp
loadOp(Addr addr, bool dep)
{
    MicroOp op;
    op.kind = MicroOp::Kind::Load;
    op.addr = addr;
    op.dependsOnPrevLoad = dep;
    return op;
}

/** @return the script with @p n compute ops appended. */
std::vector<MicroOp>
withComputes(std::vector<MicroOp> ops, unsigned n)
{
    ops.insert(ops.end(), n, MicroOp{});
    return ops;
}

/** A 1-core system running @p script, built from @p cfg. */
std::unique_ptr<CmpSystem>
scriptedSystem(std::vector<MicroOp> script, SystemConfig cfg)
{
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<Scripted>(std::move(script)));
    return std::make_unique<CmpSystem>(cfg, std::move(v));
}

SystemConfig
oneCore()
{
    return makeBaselineConfig(1, ArbiterPolicy::RowFcfs);
}

IntervalStats
runSingle(std::unique_ptr<Workload> wl, Cycle warm = 5'000,
          Cycle measure = 20'000)
{
    SystemConfig cfg = makeBaselineConfig(1, ArbiterPolicy::RowFcfs);
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::move(wl));
    CmpSystem sys(cfg, std::move(v));
    return sys.runAndMeasure(warm, measure);
}

TEST(Cpu, ComputeIpcBoundedByRetireWidth)
{
    IntervalStats s = runSingle(std::make_unique<ComputeOnly>());
    CoreConfig core;
    EXPECT_LE(s.ipc.at(0), static_cast<double>(core.retireWidth));
    EXPECT_GT(s.ipc.at(0), 0.9 * core.retireWidth);
}

TEST(Cpu, IndependentHotLoadsSustainLsuThroughput)
{
    // L1 hits are never LSU-rejected, so two loads issue per cycle;
    // retire-width and in-order-retire effects keep IPC near 2.
    IntervalStats s = runSingle(std::make_unique<HotLoads>(false));
    EXPECT_GT(s.ipc.at(0), 1.5);
}

TEST(Cpu, DependentLoadsSerializeOnHitLatency)
{
    // Each load waits for the previous one: one load per (hit
    // latency) cycles at best.
    IntervalStats s = runSingle(std::make_unique<HotLoads>(true));
    L1Config l1;
    double bound = 1.0 / static_cast<double>(l1.hitLatency);
    EXPECT_LE(s.ipc.at(0), 1.05 * bound);
    EXPECT_GT(s.ipc.at(0), 0.5 * bound);
}

TEST(Cpu, StoresThrottledByGatheringBufferDrain)
{
    // The Stores microbenchmark is limited by data-array writes (2
    // banks / 16 cycles = 0.125 stores/cycle), reached only through
    // retire-stall backpressure on full gathering buffers.
    SystemConfig cfg = makeBaselineConfig(1, ArbiterPolicy::RowFcfs);
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<StoresBenchmark>(0));
    CmpSystem sys(cfg, std::move(v));
    IntervalStats s = sys.runAndMeasure(20'000, 40'000);
    EXPECT_GT(sys.cpu(0).storeStallCycles(), 0u);
    EXPECT_NEAR(s.ipc.at(0), 0.15625, 0.01);
}

TEST(Cpu, CountsLoadsAndStoresSeparately)
{
    SystemConfig cfg = makeBaselineConfig(1, ArbiterPolicy::RowFcfs);
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<LoadsBenchmark>(0));
    CmpSystem sys(cfg, std::move(v));
    sys.run(30'000);
    Cpu &cpu = sys.cpu(0);
    EXPECT_GT(cpu.loadsRetired(), 0u);
    EXPECT_EQ(cpu.storesRetired(), 0u);
    // 4 loads per 5 instructions in the unrolled loop.
    EXPECT_NEAR(static_cast<double>(cpu.loadsRetired()) /
                    static_cast<double>(cpu.instrsRetired()),
                0.8, 0.01);
}

TEST(Cpu, DeterministicInstructionCounts)
{
    auto run = [] {
        SystemConfig cfg = makeBaselineConfig(1,
                                              ArbiterPolicy::RowFcfs);
        std::vector<std::unique_ptr<Workload>> v;
        v.push_back(std::make_unique<LoadsBenchmark>(0));
        CmpSystem sys(cfg, std::move(v));
        sys.run(25'000);
        return sys.cpu(0).instrsRetired();
    };
    EXPECT_EQ(run(), run());
}

TEST(Cpu, ReadyMaskWrapsInDependentChains)
{
    // A fully dependent chain of L1 hits issues one load per hit
    // latency, exactly, across hundreds of wraps of the 64-slot
    // ready mask.
    auto sys = scriptedSystem({loadOp(0x1000, true)}, oneCore());
    IntervalStats s = sys->runAndMeasure(5'000, 40'000);
    L1Config l1;
    EXPECT_EQ(s.instrs.at(0), 40'000 / l1.hitLatency);
    EXPECT_GT(sys->cpu(0).loadsRetired(), 64u * 300);

    // Chains of four with an independent head: chains overlap, so
    // the two LSU ports, not the hit latency, bound issue.
    auto chains = scriptedSystem(
        {loadOp(0x1000, false), loadOp(0x1040, true),
         loadOp(0x1080, true), loadOp(0x10c0, true)},
        oneCore());
    IntervalStats c = chains->runAndMeasure(5'000, 40'000);
    CoreConfig core;
    EXPECT_GT(c.ipc.at(0), 0.95 * core.lsuPorts);
    EXPECT_LE(c.ipc.at(0), static_cast<double>(core.lsuPorts));
}

TEST(Cpu, DependentLoadIssuesAtOnceWhenItsProducerRetired)
{
    // 120 compute ops separate producer and consumer; the ROB holds
    // 100, so the producer has retired before the consumer is
    // dispatched.  No completion will ever mark the consumer ready:
    // dispatch must.  Otherwise the core deadlocks on it.
    std::vector<MicroOp> script = withComputes({loadOp(0x1000, false)},
                                               120);
    std::vector<MicroOp> consumer = withComputes({loadOp(0x1000, true)},
                                                 120);
    script.insert(script.end(), consumer.begin(), consumer.end());
    IntervalStats s = scriptedSystem(script, oneCore())
                          ->runAndMeasure(5'000, 20'000);
    IntervalStats compute = runSingle(std::make_unique<ComputeOnly>(),
                                      5'000, 20'000);
    EXPECT_GT(s.ipc.at(0), 0.98 * compute.ipc.at(0));
}

TEST(Cpu, BlockedReadyLoadsKeepProgramOrderAndPorts)
{
    // Four MSHRs, no LSU rejects, and misses that go nowhere: MSHRs
    // free only when the test fills them by hand.  Sixty loads to one
    // line come first, so the distinct-line loads after them (the
    // 61st load on) straddle the 64-slot ready mask's wrap.
    SystemConfig cfg = oneCore();
    cfg.l1.mshrs = 4;
    cfg.core.lsuRejectProb = 0.0;
    const Addr hot = 0x80000;
    auto line = [](Addr i) { return 0x100000 + 0x40 * i; };
    std::vector<MicroOp> script(60, loadOp(hot, false));
    for (Addr i = 0; i < 64; ++i)
        script.push_back(loadOp(line(i), false));
    auto sys = scriptedSystem(script, cfg);
    std::vector<Addr> missed;
    L1DCache &l1 = sys->l1(0);
    l1.setMissHandler(
        [&missed](Addr a, Cycle, bool) { missed.push_back(a); });

    // The hot line misses once; its fill releases every load to it.
    sys->run(20);
    ASSERT_EQ(missed, std::vector<Addr>{hot});
    l1.fill(hot, sys->now());
    sys->run(100);
    ASSERT_EQ(sys->cpu(0).loadsRetired(), 60u);
    ASSERT_EQ(missed.size(), 5u);
    for (Addr i = 0; i < 4; ++i)
        EXPECT_EQ(missed[1 + i], line(i));

    // Every cycle the two ports go to the two oldest ready loads,
    // which find no MSHR and stay ready.
    CoreConfig core;
    std::uint64_t blocked = l1.blockedCount();
    sys->run(50);
    EXPECT_EQ(l1.blockedCount() - blocked, 50u * core.lsuPorts);

    // Freeing two MSHRs lets exactly the next two loads in program
    // order through.
    l1.fill(line(0), sys->now());
    l1.fill(line(1), sys->now());
    sys->run(20);
    ASSERT_EQ(missed.size(), 7u);
    EXPECT_EQ(missed[5], line(4));
    EXPECT_EQ(missed[6], line(5));
}

TEST(Cpu, NextWorkStaysDueWhileDependenceBlockedLoadsWait)
{
    // The ROB fills with [miss, load, 98 computes]; the miss never
    // returns, so retirement and dispatch stall.  When the second
    // load depends on the miss it waits, and the core must stay due;
    // when it is an independent miss it issues, and the core may
    // sleep until a completion wakes it.
    for (bool dep : {true, false}) {
        std::vector<MicroOp> script = withComputes(
            {loadOp(0x200000, false), loadOp(0x300000, dep)}, 98);
        auto sys = scriptedSystem(script, oneCore());
        sys->l1(0).setMissHandler([](Addr, Cycle, bool) {});
        sys->run(200);
        Cycle now = sys->now();
        EXPECT_EQ(sys->cpu(0).nextWork(now), dep ? now : kCycleMax)
            << "dep=" << dep;
        EXPECT_EQ(sys->cpu(0).instrsRetired(), 0u);
    }
}

/** A 1-core baseline machine whose ROB has @p rob entries. */
SystemConfig
robCore(unsigned rob)
{
    SystemConfig cfg = oneCore();
    cfg.core.robEntries = rob;
    return cfg;
}

MicroOp
storeOp(Addr addr)
{
    MicroOp op;
    op.kind = MicroOp::Kind::Store;
    op.addr = addr;
    return op;
}

/** ROB sizes off the power-of-two grid, down to a single entry. */
class RobSize : public testing::TestWithParam<unsigned>
{};

TEST_P(RobSize, ComputeRetiresAtTheNarrowestWidth)
{
    // Dispatch and retire move min(ROB, width) ops a cycle, and the
    // slot array wraps every few cycles.
    unsigned rob = GetParam();
    CoreConfig core;
    auto sys = scriptedSystem({MicroOp{}}, robCore(rob));
    IntervalStats s = sys->runAndMeasure(5'000, 30'000);
    EXPECT_EQ(s.instrs.at(0),
              30'000u * std::min(rob, core.retireWidth));
}

TEST_P(RobSize, DependentHitChainRetiresOnePerHitLatency)
{
    // Each load waits for the one before it.  With room for two, the
    // successor is already dispatched and issues the cycle its
    // producer completes; a one-entry ROB dispatches it only when the
    // producer retires, one cycle later.
    unsigned rob = GetParam();
    L1Config l1;
    Cycle period = l1.hitLatency + (rob == 1 ? 1 : 0);
    auto sys = scriptedSystem({loadOp(0x1000, true)}, robCore(rob));
    IntervalStats s = sys->runAndMeasure(5'000, 30'000);
    EXPECT_EQ(s.instrs.at(0), 30'000u / period);
    // At least 50 trips round the 128 slots of a 100-entry ROB.
    EXPECT_GT(sys->cpu(0).loadsRetired(), 50u * 128u);
}

TEST_P(RobSize, StoresStalledAtTheHeadAndDependentLoads)
{
    // Stores stream through 256 lines, so the gathering buffers fill
    // and retirement stalls with a store at the head; dependent L1
    // hits and compute ops ride behind them.  The counts are those of
    // the growable-ring ROB this slot array replaced, for the same
    // machine and script.
    struct Want
    {
        unsigned rob;
        std::uint64_t retired, loads, stores, stalls;
    };
    const Want wants[] = {
        {100, 18500, 9250, 4625, 35174},
        {5, 18497, 9248, 4625, 28606},
        {1, 18442, 9221, 4611, 2917},
    };
    unsigned rob = GetParam();
    const Want *want = nullptr;
    for (const Want &w : wants) {
        if (w.rob == rob)
            want = &w;
    }
    ASSERT_NE(want, nullptr);

    std::vector<MicroOp> script;
    for (Addr i = 0; i < 256; ++i) {
        script.push_back(storeOp(0x400000 + 0x40 * i));
        script.push_back(loadOp(0x1000, false));
        script.push_back(loadOp(0x1040, true));
        script.push_back(MicroOp{});
    }
    auto sys = scriptedSystem(script, robCore(rob));
    sys->run(40'000);
    const Cpu &cpu = sys->cpu(0);
    EXPECT_GT(cpu.storeStallCycles(), 0u);
    EXPECT_GT(cpu.instrsRetired(), 100u * 128u);
    EXPECT_EQ(cpu.instrsRetired(), want->retired);
    EXPECT_EQ(cpu.loadsRetired(), want->loads);
    EXPECT_EQ(cpu.storesRetired(), want->stores);
    EXPECT_EQ(cpu.storeStallCycles(), want->stalls);
}

INSTANTIATE_TEST_SUITE_P(Cpu, RobSize, testing::Values(100u, 5u, 1u),
                         [](const testing::TestParamInfo<unsigned> &i) {
                             return "rob" + std::to_string(i.param);
                         });

TEST(CpuDeathTest, CompletingARetiredSeqPanics)
{
    // A load that misses and never returns sits Issued at the head.
    // Sequence numbers that share its slot (robEntries 1: every seq;
    // robEntries 5: every eighth) belong to retired entries, and a
    // completion for one must not land on the live load.
    for (unsigned rob : {1u, 5u}) {
        SystemConfig cfg = robCore(rob);
        cfg.core.lsuRejectProb = 0.0;
        std::vector<MicroOp> script = withComputes({}, 8);
        script.push_back(loadOp(0x200000, false));
        auto sys = scriptedSystem(script, cfg);
        sys->l1(0).setMissHandler([](Addr, Cycle, bool) {});
        sys->run(100);
        Cpu &cpu = sys->cpu(0);
        ASSERT_EQ(cpu.instrsRetired(), 8u) << "rob=" << rob;
        // The load is seq 9; seq 1 shares its slot in both ROBs.
        EXPECT_DEATH(Cpu::HitSink{&cpu}(sys->now(), 1),
                     "completion for unknown seq 1")
            << "rob=" << rob;
        EXPECT_DEATH(Cpu::HitSink{&cpu}(sys->now(), 9 + rob),
                     "completion for unknown seq")
            << "rob=" << rob;
    }
}

} // namespace
} // namespace vpc
