/**
 * @file
 * Exactness gate: the model's output on six fixed runs, pinned bit
 * for bit.
 *
 * The determinism and skip-differential tests compare two runs of the
 * same code, so a hot-path rewrite that changes the model the same
 * way on both sides passes them.  This test compares against
 * constants instead: the interval statistics (IPC, instruction and
 * L2 counts, resource utilizations, gathering counts) and the kernel
 * counters (events, ticks, executed and skipped cycles, wheel
 * cascades) of 4-core memory-bound and compute-bound SPEC mixes under
 * the FCFS and VPC arbiters, plus the memory-bound mix under the VPC
 * arbiter with each of the other two L2 capacity policies (global LRU
 * and whole-cache occupancy), so every victim-selection rule is
 * pinned system-wide.  Those two runs shrink the L2 to kSmallL2Bytes:
 * at the baseline 16 MB no set fills within the measured window, so
 * every policy would produce the default record and pin nothing.
 * Doubles are compared through their hex-float spelling, which is
 * exact.
 *
 * A change that is meant to move the model updates these constants
 * and says why; a performance change never does.  A failure prints
 * the new record in full, ready to paste.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "system/cmp_system.hh"
#include "system/experiment.hh"
#include "system/options.hh"
#include "workload/spec2000.hh"

namespace vpc
{
namespace
{

constexpr Cycle kWarmup = 5'000;
constexpr Cycle kMeasure = 15'000;
/** 64 KB over 2 banks of 32 ways: 16 sets per bank, full in warmup. */
constexpr std::uint64_t kSmallL2Bytes = 64 * 1024;

const std::vector<std::string> kMemoryMix = {"mcf", "lucas", "equake",
                                             "swim"};
const std::vector<std::string> kComputeMix = {"sixtrack", "bzip2",
                                              "mgrid", "ammp"};

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

template <typename T, typename F>
std::string
list(const std::vector<T> &v, F fmt)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + fmt(v[i]);
    return out + "]";
}

/**
 * @return the run's interval and kernel statistics, spelled exactly.
 * A @p capacity other than the baseline's Vpc also shrinks the L2 to
 * kSmallL2Bytes so that the policy's victim rule decides evictions.
 */
std::string
record(const std::vector<std::string> &mix, ArbiterPolicy policy,
       CapacityPolicy capacity = CapacityPolicy::Vpc)
{
    SystemConfig cfg = makeBaselineConfig(4, policy);
    if (capacity != CapacityPolicy::Vpc) {
        cfg.capacityPolicy = capacity;
        cfg.l2.sizeBytes = kSmallL2Bytes;
        cfg.validate();
    }
    cfg.kernelFuse = true; // the hit lane is uncounted: events differ
    std::vector<std::unique_ptr<Workload>> wl;
    for (unsigned t = 0; t < mix.size(); ++t)
        wl.push_back(makeSpec2000(mix[t], threadBaseAddr(t), t + 1));
    CmpSystem sys(cfg, std::move(wl));
    IntervalStats s = sys.runAndMeasure(kWarmup, kMeasure);
    const KernelStats &k = sys.kernelStats();

    auto u = [](std::uint64_t v) { return std::to_string(v); };
    std::string out;
    out += "cycles=" + u(s.cycles);
    out += " ipc=" + list(s.ipc, hexDouble);
    out += " instrs=" + list(s.instrs, u);
    out += " l2Reads=" + list(s.l2Reads, u);
    out += " l2Writes=" + list(s.l2Writes, u);
    out += " l2Misses=" + list(s.l2Misses, u);
    out += " util=" + hexDouble(s.tagUtil) + "," + hexDouble(s.dataUtil) +
           "," + hexDouble(s.busUtil);
    out += " sgbStores=" + list(s.sgbStores, u);
    out += " sgbGathered=" + list(s.sgbGathered, u);
    out += " events=" + u(k.eventsFired.value());
    out += " ticks=" + u(k.ticksExecuted.value());
    out += " executed=" + u(k.cyclesExecuted.value());
    out += " skipped=" + u(k.cyclesSkipped.value());
    out += " cascades=" + u(k.wheelCascades.value());
    return out;
}

TEST(GoldenRecord, MemoryMixFcfs)
{
    EXPECT_EQ(record(kMemoryMix, ArbiterPolicy::Fcfs),
              "cycles=15000 ipc=[0x1.39c0ebedfa44p-3,0x1.682cc86e51a5ap-2,"
              "0x1.6a6d7fee86136p-2,0x1.e809d495182aap-2] instrs=[2298,"
              "5276,5309,7149] l2Reads=[465,417,541,505] l2Writes=[40,84,"
              "29,56] l2Misses=[482,490,568,558] util=0x1.bff74309b1a14p-1,"
              "0x1.249747682cc87p-1,0x1.080e33103f5ap-1 sgbStores=[247,344,"
              "86,116] sgbGathered=[207,260,53,60] events=19863 "
              "ticks=69016 executed=19905 skipped=95 cascades=1322");
}

TEST(GoldenRecord, MemoryMixVpc)
{
    EXPECT_EQ(record(kMemoryMix, ArbiterPolicy::Vpc),
              "cycles=15000 ipc=[0x1.36e2eb1c432cap-3,0x1.729ea6d7fee86p-2,"
              "0x1.7b6d1712fa66fp-2,0x1.ee51a59d6c456p-2] instrs=[2277,"
              "5429,5558,7241] l2Reads=[465,429,564,509] l2Writes=[40,84,"
              "33,56] l2Misses=[480,504,594,564] util=0x1.c90b9af72015ep-1,"
              "0x1.2abc249747683p-1,0x1.0e33103f59f9cp-1 sgbStores=[243,"
              "351,92,117] sgbGathered=[205,267,55,61] events=20180 "
              "ticks=69164 executed=19943 skipped=57 cascades=1394");
}

TEST(GoldenRecord, MemoryMixVpcLruCapacity)
{
    EXPECT_EQ(record(kMemoryMix, ArbiterPolicy::Vpc, CapacityPolicy::Lru),
              "cycles=15000 ipc=[0x1.1a36e2eb1c433p-3,0x1.52e0300f4aaf1p-2,"
              "0x1.624dd2f1a9fbep-2,0x1.d7dbf487fcb92p-2] instrs=[2067,4964,"
              "5190,6912] l2Reads=[431,398,528,494] l2Writes=[36,82,29,56] "
              "l2Misses=[464,479,556,550] util=0x1.b2dbd194237fbp-1,"
              "0x1.27bb2fec56d5dp-1,0x1.fc2d543db68b9p-2 sgbStores=[219,325,"
              "85,115] sgbGathered=[185,243,52,59] events=19426 ticks=69112 "
              "executed=19944 skipped=56 cascades=1439");
}

TEST(GoldenRecord, MemoryMixVpcGlobalOccupancy)
{
    EXPECT_EQ(record(kMemoryMix, ArbiterPolicy::Vpc,
                     CapacityPolicy::GlobalOccupancy),
              "cycles=15000 ipc=[0x1.1a36e2eb1c433p-3,0x1.564a0045e7b27p-2,"
              "0x1.633103f59f9b8p-2,0x1.d30323e8842a1p-2] instrs=[2067,5014,"
              "5203,6841] l2Reads=[429,402,534,487] l2Writes=[36,82,29,55] "
              "l2Misses=[462,482,563,541] util=0x1.b3f3705def57dp-1,"
              "0x1.28afdadce932fp-1,0x1.fe5c91d14e3bdp-2 sgbStores=[219,328,"
              "85,114] sgbGathered=[185,246,52,59] events=19465 ticks=69233 "
              "executed=19942 skipped=58 cascades=1424");
}

TEST(GoldenRecord, ComputeMixFcfs)
{
    EXPECT_EQ(record(kComputeMix, ArbiterPolicy::Fcfs),
              "cycles=15000 ipc=[0x1.cb68b897d3379p+1,0x1.e793dd97f62b7p+0,"
              "0x1.3f814c0c8fa21p+1,0x1.a770e9bebcb06p+0] instrs=[53837,"
              "28569,37442,24811] l2Reads=[54,131,101,155] l2Writes=[55,"
              "103,93,126] l2Misses=[107,234,192,276] "
              "util=0x1.7fcb923a29c78p-2,0x1.bfd44f3078264p-3,"
              "0x1.e098ead65b7a3p-4 sgbStores=[2328,2537,2829,2465] "
              "sgbGathered=[2269,2434,2736,2339] events=19574 ticks=51234 "
              "executed=19649 skipped=351 cascades=361");
}

TEST(GoldenRecord, ComputeMixVpc)
{
    EXPECT_EQ(record(kComputeMix, ArbiterPolicy::Vpc),
              "cycles=15000 ipc=[0x1.cc10ee1d37d79p+1,0x1.ebd3c36113405p+0,"
              "0x1.43fe5c91d14e4p+1,0x1.a6a7ef9db22d1p+0] instrs=[53914,"
              "28818,37968,24765] l2Reads=[54,132,102,158] l2Writes=[55,"
              "104,95,130] l2Misses=[107,236,195,283] "
              "util=0x1.8492e8ed05991p-2,0x1.c4be99bc8d72dp-3,"
              "0x1.e60f04c756b2ep-4 sgbStores=[2336,2566,2870,2474] "
              "sgbGathered=[2277,2462,2775,2344] events=19760 ticks=51565 "
              "executed=19675 skipped=325 cascades=346");
}

} // namespace
} // namespace vpc
