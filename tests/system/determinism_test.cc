/**
 * @file
 * Determinism of the simulation kernel beyond the skip differential:
 * the profiler only observes (a profiled run's model statistics,
 * state dump and kernel counters equal an unprofiled run's), it
 * attributes every fired event to a named component, fused event
 * lanes change no model statistic, and two runs of the same
 * configuration are bit-identical.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "system/stats_report.hh"
#include "workload/spec2000.hh"

namespace vpc
{
namespace
{

constexpr Cycle kWarmup = 10'000;
constexpr Cycle kMeasure = 40'000;

struct RunDump
{
    std::string stats;
    std::string state;
    Cycle end;
    KernelStats kernel;
};

/** Build, run, and dump one system. */
RunDump
runOnce(const SystemConfig &cfg,
        std::vector<std::unique_ptr<Workload>> workloads)
{
    CmpSystem sys(cfg, std::move(workloads));
    sys.run(kWarmup + kMeasure);
    RunDump d;
    std::ostringstream os;
    dumpStats(sys, os, sys.now());
    d.stats = os.str();
    d.state = sys.dumpState();
    d.end = sys.now();
    d.kernel = sys.kernelStats();
    return d;
}

std::vector<std::unique_ptr<Workload>>
specMix(const std::vector<std::string> &names)
{
    std::vector<std::unique_ptr<Workload>> wl;
    for (unsigned t = 0; t < names.size(); ++t)
        wl.push_back(makeSpec2000(names[t], (1ull << 40) * t, t + 1));
    return wl;
}

TEST(Determinism, ProfilerIsObserveOnly)
{
    // --profile must never change a model statistic: the profiler
    // only reads the host clock and bumps host-side counters.  Run
    // the same mix unprofiled and profiled; all model output and
    // every kernel counter must stay bit-identical.
    const std::vector<std::string> mix = {"art", "vpr", "mesa",
                                          "crafty"};
    SystemConfig cfg = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    RunDump plain = runOnce(cfg, specMix(mix));
    cfg.profile = true;
    RunDump prof = runOnce(cfg, specMix(mix));
    EXPECT_EQ(prof.end, plain.end);
    EXPECT_EQ(prof.stats, plain.stats);
    EXPECT_EQ(prof.state, plain.state);
    EXPECT_EQ(prof.kernel.eventsFired.value(),
              plain.kernel.eventsFired.value());
    EXPECT_EQ(prof.kernel.ticksExecuted.value(),
              plain.kernel.ticksExecuted.value());
    EXPECT_EQ(prof.kernel.cyclesExecuted.value(),
              plain.kernel.cyclesExecuted.value());
    EXPECT_EQ(prof.kernel.cyclesSkipped.value(),
              plain.kernel.cyclesSkipped.value());
    EXPECT_EQ(prof.kernel.wheelCascades.value(),
              plain.kernel.wheelCascades.value());
}

TEST(Determinism, ProfilerAccountsAllEventTime)
{
    // Attribution completeness: every executed event, counted fused
    // drains included, is owned by a named component, so the
    // unattributed account stays empty and event counts reconcile
    // with the kernel's eventsFired.
    SystemConfig cfg = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    cfg.profile = true;
    CmpSystem sys(cfg, specMix({"art", "vpr", "mesa", "crafty"}));
    sys.run(kWarmup + kMeasure);
    ASSERT_TRUE(sys.profiling());
    Profiler prof = sys.mergedProfile();
    // Account 0 is "(unattributed)"; nothing may land there.
    EXPECT_EQ(prof.entries().front().eventCount, 0u);
    EXPECT_EQ(prof.attributedEventNs(), prof.totalEventNs());
    std::uint64_t events = 0, ticks = 0;
    for (const Profiler::Entry &e : prof.entries()) {
        events += e.eventCount;
        ticks += e.tickCount;
    }
    EXPECT_EQ(events, sys.kernelStats().eventsFired.value());
    EXPECT_EQ(ticks, sys.kernelStats().ticksExecuted.value());
}

TEST(Determinism, FusedLanesAreModelInvisible)
{
    // The fused L1-hit, crossbar-transit and response lanes replay
    // the timing wheel's order exactly: fused and unfused runs give
    // the same statistics and state dump.  Only eventsFired may
    // differ (the L1 hit lane is uncounted).
    SystemConfig cfg = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    const std::vector<std::string> mix = {"art", "vpr", "mesa",
                                          "crafty"};
    cfg.kernelFuse = true;
    RunDump fused = runOnce(cfg, specMix(mix));
    cfg.kernelFuse = false;
    RunDump wheel = runOnce(cfg, specMix(mix));
    EXPECT_EQ(fused.end, wheel.end);
    EXPECT_EQ(fused.stats, wheel.stats);
    EXPECT_EQ(fused.state, wheel.state);
    EXPECT_EQ(fused.kernel.ticksExecuted.value(),
              wheel.kernel.ticksExecuted.value());
    EXPECT_LT(fused.kernel.eventsFired.value(),
              wheel.kernel.eventsFired.value());
}

TEST(Determinism, RepeatedRunsAreStable)
{
    // The same configuration twice in one process: no state may leak
    // between systems (static caches, allocator addresses, hash
    // iteration order) into a model statistic or kernel counter.
    SystemConfig cfg = makeBaselineConfig(4, ArbiterPolicy::Vpc);
    RunDump a = runOnce(cfg, specMix({"art", "mcf", "swim", "mesa"}));
    RunDump b = runOnce(cfg, specMix({"art", "mcf", "swim", "mesa"}));
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.kernel.eventsFired.value(), b.kernel.eventsFired.value());
    EXPECT_EQ(a.kernel.ticksExecuted.value(),
              b.kernel.ticksExecuted.value());
    EXPECT_EQ(a.kernel.wheelCascades.value(),
              b.kernel.wheelCascades.value());
}

} // namespace
} // namespace vpc
