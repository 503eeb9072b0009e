/**
 * @file
 * Unit tests for SystemConfig validation (Table 1 defaults).
 */

#include <gtest/gtest.h>

#include "sim/config.hh"

namespace vpc
{
namespace
{

TEST(SystemConfig, Table1Defaults)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.numProcessors, 4u);
    EXPECT_EQ(cfg.l2.banks, 2u);
    EXPECT_EQ(cfg.l2.sizeBytes, 16ull * 1024 * 1024);
    EXPECT_EQ(cfg.l2.ways, 32u);
    EXPECT_EQ(cfg.l2.tagLatency, 4u);
    EXPECT_EQ(cfg.l2.dataLatency, 8u);
    EXPECT_EQ(cfg.l1.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.l1.ways, 4u);
    EXPECT_EQ(cfg.core.robEntries, 100u);
    EXPECT_EQ(cfg.l2.sgbEntriesPerThread, 8u);
    EXPECT_EQ(cfg.l2.sgbHighWater, 6u);
    EXPECT_EQ(cfg.l2.stateMachinesPerThread, 8u);
}

TEST(SystemConfig, SetsPerBank)
{
    SystemConfig cfg;
    // 8MB per bank / (32 ways * 64B) = 4096 sets.
    EXPECT_EQ(cfg.l2.setsPerBank(), 4096u);
    EXPECT_EQ(cfg.l2.setsPerBank(4), 2048u);
}

TEST(SystemConfig, DefaultSharesAreEqual)
{
    SystemConfig cfg;
    cfg.validate();
    ASSERT_EQ(cfg.shares.size(), 4u);
    for (const QosShare &s : cfg.shares) {
        EXPECT_DOUBLE_EQ(s.phi, 0.25);
        EXPECT_DOUBLE_EQ(s.beta, 0.25);
    }
}

TEST(SystemConfig, OverAllocationFatal)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.shares = {QosShare{0.7, 0.5}, QosShare{0.7, 0.5}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "over-allocated");
}

TEST(SystemConfig, ShareCountMismatchFatal)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.shares = {QosShare{0.5, 0.5}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "shares");
}

TEST(SystemConfig, PartialAllocationIsLegal)
{
    // Figure 1b: 50% + 3 x 10% leaves 20% unallocated.
    SystemConfig cfg;
    cfg.shares = {QosShare{0.5, 0.5}, QosShare{0.1, 0.1},
                  QosShare{0.1, 0.1}, QosShare{0.1, 0.1}};
    cfg.validate();
    EXPECT_DOUBLE_EQ(cfg.shares[0].phi, 0.5);
}

TEST(SystemConfig, PhiZeroUnderVpcArbiterFatal)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.arbiterPolicy = ArbiterPolicy::Vpc;
    cfg.shares = {QosShare{1.0, 0.5}, QosShare{0.0, 0.5}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "phi = 0");
}

TEST(SystemConfig, PhiZeroAllowedWithEscapeHatch)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.arbiterPolicy = ArbiterPolicy::Vpc;
    cfg.allowUnallocatedShares = true;
    cfg.shares = {QosShare{1.0, 0.5}, QosShare{0.0, 0.5}};
    cfg.validate();
}

TEST(SystemConfig, PhiZeroFineUnderNonVpcArbiter)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.arbiterPolicy = ArbiterPolicy::Fcfs;
    cfg.capacityPolicy = CapacityPolicy::Lru;
    cfg.shares = {QosShare{1.0, 0.5}, QosShare{0.0, 0.5}};
    cfg.validate();
}

TEST(SystemConfig, BetaQuotaRoundingToZeroWaysFatal)
{
    // floor(0.02 * 32) = 0 ways: the thread's virtual private cache
    // would hold nothing.
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.capacityPolicy = CapacityPolicy::Vpc;
    cfg.shares = {QosShare{0.5, 0.5}, QosShare{0.5, 0.02}};
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "rounds to zero");
}

TEST(SystemConfig, BetaQuotaZeroAllowedWithEscapeHatch)
{
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.capacityPolicy = CapacityPolicy::Vpc;
    cfg.allowUnallocatedShares = true;
    cfg.shares = {QosShare{0.5, 0.5}, QosShare{0.5, 0.02}};
    cfg.validate();
}

TEST(SystemConfig, L2SizeMustFactorExactly)
{
    SystemConfig cfg;
    cfg.l2.sizeBytes = 16ull * 1024 * 1024 + 2048;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "not divisible");
}

TEST(SystemConfig, L2SetsPerBankMustBePowerOf2)
{
    SystemConfig cfg;
    // 12MB / (2 banks * 32 ways * 64B) = 3072 sets: divisible but
    // not a power of 2.
    cfg.l2.sizeBytes = 12ull * 1024 * 1024;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "sets per bank");
}

TEST(SystemConfig, L2ZeroWaysFatal)
{
    SystemConfig cfg;
    cfg.l2.ways = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "at least one way");
}

TEST(SystemConfig, L1GeometryMustGivePowerOf2Sets)
{
    SystemConfig cfg;
    cfg.l1.sizeBytes = 48 * 1024; // 192 sets
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "power of 2");
    SystemConfig cfg2;
    cfg2.l1.sizeBytes = 16 * 1024 + 64; // remainder
    EXPECT_EXIT(cfg2.validate(), testing::ExitedWithCode(1),
                "power of 2");
}

TEST(SystemConfig, NonPowerOf2LineSizeFatal)
{
    SystemConfig cfg;
    cfg.l2.lineBytes = 48;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "powers of 2");
}

TEST(SystemConfig, CheckRejectsWhatModelsWouldFatalOn)
{
    // Every value below makes a model constructor exit the process
    // (or the core's ready-load mask overflow).  check() must report
    // each one instead, so the service can reject the job cleanly.
    struct Bad
    {
        const char *what;
        void (*set)(SystemConfig &);
    };
    const Bad cases[] = {
        {"sgb entries 0",
         [](SystemConfig &c) { c.l2.sgbEntriesPerThread = 0; }},
        {"sgb high water 0",
         [](SystemConfig &c) { c.l2.sgbHighWater = 0; }},
        {"sgb high water > entries",
         [](SystemConfig &c) { c.l2.sgbHighWater = 9; }},
        {"tag latency 0", [](SystemConfig &c) { c.l2.tagLatency = 0; }},
        {"data latency 0", [](SystemConfig &c) { c.l2.dataLatency = 0; }},
        {"tag write accesses 0",
         [](SystemConfig &c) { c.l2.tagWriteAccesses = 0; }},
        {"data write accesses 0",
         [](SystemConfig &c) { c.l2.dataWriteAccesses = 0; }},
        {"bus beat 0", [](SystemConfig &c) { c.l2.busBeatCycles = 0; }},
        {"bus width 0", [](SystemConfig &c) { c.l2.busBytes = 0; }},
        {"bus wider than a line",
         [](SystemConfig &c) { c.l2.busBytes = 128; }},
        {"ranks 0", [](SystemConfig &c) { c.mem.ranksPerChannel = 0; }},
        {"banks 0", [](SystemConfig &c) { c.mem.banksPerRank = 0; }},
        {"ranks x banks wraps to 0",
         [](SystemConfig &c) {
             c.mem.ranksPerChannel = 1u << 16;
             c.mem.banksPerRank = 1u << 16;
         }},
        {"burst 0", [](SystemConfig &c) { c.mem.tBurst = 0; }},
        {"prefetch streams 0",
         [](SystemConfig &c) {
             c.l1.prefetch.enable = true;
             c.l1.prefetch.streams = 0;
         }},
        {"per-thread prefetch streams 0",
         [](SystemConfig &c) {
             c.l1PrefetchPerThread.assign(c.numProcessors,
                                          PrefetchConfig{});
             c.l1PrefetchPerThread[1].enable = true;
             c.l1PrefetchPerThread[1].streams = 0;
         }},
        {"65 processors",
         [](SystemConfig &c) {
             c.numProcessors = 65;
             c.shares.clear();
         }},
        {"L2 ways 128",
         [](SystemConfig &c) {
             c.l2.ways = 128;
             c.l2.sizeBytes = 32ull * 1024 * 1024;
         }},
        {"fault rate 2", [](SystemConfig &c) { c.verify.faultRate = 2; }},
        {"dispatch width 0",
         [](SystemConfig &c) { c.core.dispatchWidth = 0; }},
        {"retire width 0", [](SystemConfig &c) { c.core.retireWidth = 0; }},
        {"store commit width 0",
         [](SystemConfig &c) { c.core.storeCommitWidth = 0; }},
        {"lsu ports 0", [](SystemConfig &c) { c.core.lsuPorts = 0; }},
        {"rob 0", [](SystemConfig &c) { c.core.robEntries = 0; }},
        {"rob 4097", [](SystemConfig &c) { c.core.robEntries = 4097; }},
        {"rob 4e9",
         [](SystemConfig &c) { c.core.robEntries = 4'000'000'000u; }},
        {"store queue 0",
         [](SystemConfig &c) { c.core.storeQueueEntries = 0; }},
        {"load queue 0",
         [](SystemConfig &c) { c.core.loadQueueEntries = 0; }},
        {"load queue 65",
         [](SystemConfig &c) { c.core.loadQueueEntries = 65; }},
    };
    for (const Bad &b : cases) {
        SystemConfig cfg;
        b.set(cfg);
        cfg.normalize();
        EXPECT_NE(cfg.check(), "") << b.what;
    }

    // The edges that stay legal.
    SystemConfig edge;
    edge.numProcessors = SystemConfig::kMaxProcessors;
    edge.capacityPolicy = CapacityPolicy::Lru; // 1/64 of 32 ways
    edge.core.loadQueueEntries = 64;
    edge.core.robEntries = CoreConfig::kMaxRobEntries;
    edge.l2.sgbHighWater = edge.l2.sgbEntriesPerThread;
    edge.l2.busBytes = edge.l2.lineBytes;
    edge.normalize();
    EXPECT_EQ(edge.check(), "");
}

TEST(Types, LineAlignAndLog2)
{
    EXPECT_EQ(lineAlign(0x12345, 64), 0x12340u);
    EXPECT_EQ(lineAlign(0x40, 64), 0x40u);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(4096), 12u);
}

} // namespace
} // namespace vpc
