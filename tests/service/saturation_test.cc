/**
 * @file
 * Service saturation smoke: flood the spool with a thousand tiny jobs
 * and hold the daemon to its exactly-once contract under backlog
 * pressure — every submitted digest reaches done/ exactly once,
 * duplicate submissions collapse instead of re-executing, nothing is
 * lost, quarantined or left claimed, and spot-checked results replay
 * bit-identical to daemon-less execution.
 *
 * The jobs are deliberately minimal (one processor, a few hundred
 * cycles) so the test exercises the claim/execute/settle machinery and
 * the spool's file churn, not the simulator.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/daemon.hh"
#include "service/spool.hh"
#include "sim/format.hh"
#include "system/experiment.hh"
#include "system/options.hh"
#include "temp_path.hh"

#include <filesystem>

namespace vpc
{
namespace
{

/** A near-trivial one-processor job; @p seed varies the identity. */
RunJob
tinyJob(std::uint64_t seed)
{
    RunJob job;
    job.config = makeBaselineConfig(1, ArbiterPolicy::RowFcfs);
    job.workloads = {WorkloadKey{seed % 2 == 0 ? "loads" : "stores",
                                 threadBaseAddr(0), seed}};
    job.warmup = 100;
    job.measure = 400;
    return job;
}

TEST(ServiceSaturation, ThousandTinyJobsCompleteExactlyOnce)
{
    const std::size_t kJobs = 1'000;
    std::string dir = testTempPath("vpc_saturation");

    ServiceClient client(dir);
    std::vector<std::uint64_t> digests;
    digests.reserve(kJobs);
    for (std::uint64_t s = 1; s <= kJobs; ++s)
        digests.push_back(client.submit(tinyJob(s)));

    // Resubmitting a slice of the backlog must be digest-stable and
    // must not create extra work.
    for (std::uint64_t s = 1; s <= 100; ++s)
        EXPECT_EQ(client.submit(tinyJob(s)), digests[s - 1]);

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 2;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());

    auto until = std::chrono::steady_clock::now() +
                 std::chrono::minutes(4);
    while (std::chrono::steady_clock::now() < until) {
        daemon.runOnce();
        if (daemon.spool().list(JobState::Pending).empty() &&
            daemon.spool().list(JobState::Running).empty())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Exactly once: every digest terminal in done/, no failures, no
    // retries, no leftovers in pending/ or running/.
    EXPECT_TRUE(daemon.spool().list(JobState::Pending).empty());
    EXPECT_TRUE(daemon.spool().list(JobState::Running).empty());
    EXPECT_TRUE(daemon.spool().list(JobState::Failed).empty());
    EXPECT_EQ(daemon.spool().list(JobState::Done).size(), kJobs);
    EXPECT_EQ(daemon.stats().claimed, kJobs);
    EXPECT_EQ(daemon.stats().completed, kJobs);
    EXPECT_EQ(daemon.stats().failures, 0u);
    EXPECT_EQ(daemon.stats().retried, 0u);
    EXPECT_EQ(daemon.stats().quarantined, 0u);
    for (std::uint64_t d : digests)
        EXPECT_EQ(client.spool().state(d), JobState::Done);

    // Spot-check served records against daemon-less execution.
    for (std::uint64_t s : {std::uint64_t(1), std::uint64_t(500),
                            std::uint64_t(kJobs)}) {
        RunResult served;
        ASSERT_TRUE(client.fetch(digests[s - 1], served));
        RunCache local("");
        RunResult direct = runAndMeasureCached(tinyJob(s), &local);
        EXPECT_EQ(served.record.endCycle, direct.record.endCycle);
        EXPECT_EQ(served.record.stats.ipc, direct.record.stats.ipc);
        EXPECT_EQ(served.record.stats.instrs,
                  direct.record.stats.instrs);
        EXPECT_EQ(served.record.kernel.eventsFired.value(),
                  direct.record.kernel.eventsFired.value());
    }
}

} // namespace
} // namespace vpc
