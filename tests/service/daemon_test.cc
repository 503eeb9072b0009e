/**
 * @file
 * In-process daemon tests: the full submit -> claim -> execute ->
 * settle path, including the robustness contract — results bitwise
 * identical to daemon-less execution, poison jobs bounded by retry
 * and quarantined, deadlines enforced, undecodable records rejected,
 * exhausted journal history honored on restart, and deterministic
 * service-fault injection leaving the spool consistent.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "service/client.hh"
#include "service/daemon.hh"
#include "service/job_codec.hh"
#include "service/journal.hh"
#include "service/spool.hh"
#include "sim/format.hh"
#include "system/experiment.hh"
#include "system/options.hh"
#include "temp_path.hh"

namespace vpc
{
namespace
{

std::string
testDir(const std::string &name)
{
    return testTempPath("vpc_daemon_" + name);
}

/** A cheap two-thread job; @p seed varies the content identity. */
RunJob
smallJob(std::uint64_t seed = 1)
{
    RunJob job;
    job.config = makeBaselineConfig(2, ArbiterPolicy::Fcfs);
    job.workloads = {WorkloadKey{"loads", threadBaseAddr(0), seed},
                     WorkloadKey{"stores", threadBaseAddr(1), seed + 1}};
    job.warmup = 500;
    job.measure = 2'000;
    return job;
}

void
expectSameRecord(const RunRecord &a, const RunRecord &b)
{
    EXPECT_EQ(a.endCycle, b.endCycle);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.ipc, b.stats.ipc); // exact: bit-identical runs
    EXPECT_EQ(a.stats.instrs, b.stats.instrs);
    EXPECT_EQ(a.stats.l2Misses, b.stats.l2Misses);
    EXPECT_EQ(a.kernel.cyclesExecuted.value(),
              b.kernel.cyclesExecuted.value());
    EXPECT_EQ(a.kernel.eventsFired.value(), b.kernel.eventsFired.value());
}

/** Drive runOnce() until the spool drains or @p max_ms elapses. */
void
drain(SweepDaemon &daemon, std::uint64_t max_ms = 30'000)
{
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(max_ms);
    while (std::chrono::steady_clock::now() < until) {
        daemon.runOnce();
        if (daemon.spool().list(JobState::Pending).empty() &&
            daemon.spool().list(JobState::Running).empty())
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "spool did not drain within " << max_ms << " ms";
}

TEST(SweepDaemon, CompletesJobsBitIdenticalToLocalExecution)
{
    std::string dir = testDir("bitident");
    ServiceClient client(dir);
    std::uint64_t digest = client.submit(smallJob());
    EXPECT_EQ(client.spool().state(digest), JobState::Pending);

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 2;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    drain(daemon);

    EXPECT_EQ(client.spool().state(digest), JobState::Done);
    RunResult served;
    ASSERT_TRUE(client.fetch(digest, served));

    // Daemon-less execution of the same job, separate cache.
    RunCache local("");
    RunResult direct = runAndMeasureCached(smallJob(), &local);
    expectSameRecord(served.record, direct.record);

    EXPECT_EQ(daemon.stats().completed, 1u);
    EXPECT_EQ(daemon.stats().claimed, 1u);
    EXPECT_EQ(daemon.stats().failures, 0u);
}

TEST(SweepDaemon, DuplicateSubmitsCollapseToOneExecution)
{
    std::string dir = testDir("dedupe");
    ServiceClient client(dir);
    std::uint64_t d1 = client.submit(smallJob());
    std::uint64_t d2 = client.submit(smallJob()); // same content
    std::uint64_t d3 = client.submit(smallJob(7)); // different content
    EXPECT_EQ(d1, d2);
    EXPECT_NE(d1, d3);

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    drain(daemon);

    // Two unique jobs executed, not three.
    EXPECT_EQ(daemon.stats().claimed, 2u);
    EXPECT_EQ(daemon.stats().completed, 2u);

    // Submitting a finished job again is a no-op answered by done/.
    EXPECT_EQ(client.spool().submit(d1, "ignored"), JobState::Done);
}

TEST(SweepDaemon, PoisonJobIsRetriedThenQuarantined)
{
    std::string dir = testDir("poison");
    ServiceClient client(dir);
    RunJob bad = smallJob();
    bad.workloads[0].spec = "no-such-benchmark";
    std::uint64_t digest = client.submit(bad);

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.maxAttempts = 3;
    cfg.backoffMs = 1; // keep the retry loop fast
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    drain(daemon);

    EXPECT_EQ(client.spool().state(digest), JobState::Failed);
    EXPECT_EQ(daemon.stats().failures, 3u);
    EXPECT_EQ(daemon.stats().retried, 2u);
    EXPECT_EQ(daemon.stats().quarantined, 1u);
    std::string reason = client.failReason(digest);
    EXPECT_NE(reason.find("quarantined after 3 attempt(s)"),
              std::string::npos)
        << reason;
}

TEST(SweepDaemon, DeadlineCancelsARunawayJob)
{
    std::string dir = testDir("deadline");
    ServiceClient client(dir);
    RunJob runaway = smallJob();
    runaway.measure = 200'000'000; // far beyond the deadline
    std::uint64_t digest = client.submit(runaway);

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.deadlineMs = 50;
    cfg.maxAttempts = 1; // first deadline hit quarantines
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    drain(daemon);

    EXPECT_EQ(client.spool().state(digest), JobState::Failed);
    EXPECT_EQ(daemon.stats().timeouts, 1u);
    EXPECT_EQ(daemon.stats().quarantined, 1u);
}

TEST(SweepDaemon, UndecodableRecordIsRejectedNotRetried)
{
    std::string dir = testDir("undecodable");
    JobSpool spool(dir);
    spool.submit(0xbad, "this is not a job record");

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    daemon.runOnce();

    EXPECT_EQ(daemon.spool().state(0xbad), JobState::Failed);
    EXPECT_EQ(daemon.stats().rejected, 1u);
    EXPECT_EQ(daemon.stats().quarantined, 1u);
    EXPECT_EQ(daemon.stats().completed, 0u);
    EXPECT_NE(daemon.spool().failReason(0xbad).find("undecodable"),
              std::string::npos);
}

TEST(SweepDaemon, JournalExhaustionQuarantinesOnClaim)
{
    // A daemon that crashed between a job's last failure and its
    // quarantine transition leaves a pending job with maxAttempts
    // "start" lines in the journal; the restarted daemon must
    // quarantine it on claim instead of running it a fourth time.
    std::string dir = testDir("exhausted");
    ServiceClient client(dir);
    std::uint64_t digest = client.submit(smallJob());
    {
        JobSpool spool(dir); // shares the journal location
        JobJournal journal(dir + "/journal.log");
        (void)spool;
        journal.append(digest, "start");
        journal.append(digest, "start");
        journal.append(digest, "start");
    }

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.maxAttempts = 3;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    daemon.runOnce();

    EXPECT_EQ(client.spool().state(digest), JobState::Failed);
    EXPECT_EQ(daemon.stats().quarantined, 1u);
    EXPECT_EQ(daemon.stats().completed, 0u);
    EXPECT_NE(client.failReason(digest).find("journal replay"),
              std::string::npos);
}

TEST(SweepDaemon, StartRecoversOrphanedRunningJobs)
{
    std::string dir = testDir("orphanstart");
    ServiceClient client(dir);
    std::uint64_t digest = client.submit(smallJob());
    {
        // A previous daemon claimed the job and then "crashed".
        JobSpool spool(dir);
        std::string text;
        ASSERT_TRUE(spool.claimJob(digest, text));
    }

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    EXPECT_EQ(daemon.stats().orphansRecovered, 1u);
    drain(daemon);
    EXPECT_EQ(client.spool().state(digest), JobState::Done);
    EXPECT_EQ(daemon.stats().completed, 1u);
}

TEST(SweepDaemon, SecondDaemonIsFencedOut)
{
    std::string dir = testDir("fence");
    DaemonConfig cfg;
    cfg.spoolDir = dir;
    SweepDaemon first(cfg);
    ASSERT_TRUE(first.start());
    // Same process, but the spool is already owned — the pid file
    // belongs to us, so a second in-process daemon is NOT fenced
    // (fencing is per-process); exercise the real fence via ownerPid.
    EXPECT_EQ(first.spool().ownerPid(),
              static_cast<std::uint64_t>(::getpid()));
}

TEST(SweepDaemon, GracefulStopRepublishesUnclaimedWork)
{
    std::string dir = testDir("stop");
    ServiceClient client(dir);
    // More jobs than lanes so some are still pending at stop time.
    for (std::uint64_t s = 1; s <= 6; ++s)
        client.submit(smallJob(s * 10));

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 1;
    cfg.pollMs = 1;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());

    std::atomic<bool> stop{false};
    std::thread runner([&] { daemon.run(stop); });
    // Let it make some progress (watch the spool, not the stats —
    // the stats struct belongs to the runner thread), then stop.
    while (daemon.spool().list(JobState::Done).empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stop.store(true);
    runner.join();

    // Invariant after a graceful stop: nothing claimed, nothing lost —
    // every job is either done or back in pending/.
    EXPECT_TRUE(daemon.spool().list(JobState::Running).empty());
    EXPECT_EQ(daemon.spool().list(JobState::Done).size() +
                  daemon.spool().list(JobState::Pending).size(),
              6u);
    EXPECT_GE(daemon.stats().completed, 1u);
    // And the spool is released for a successor.
    EXPECT_EQ(daemon.spool().ownerPid(), 0u);
}

TEST(SweepDaemon, ClientRunJobDegradesToLocalWithoutADaemon)
{
    std::string dir = testDir("degrade");
    ServiceClient client(dir);
    EXPECT_FALSE(client.daemonAlive());

    ServedBy served = ServedBy::Daemon;
    RunResult r = client.runJob(smallJob(), &served);
    EXPECT_EQ(served, ServedBy::Local);

    RunCache local("");
    RunResult direct = runAndMeasureCached(smallJob(), &local);
    expectSameRecord(r.record, direct.record);
}

TEST(SweepDaemon, ClientRunJobRoundTripsThroughALiveDaemon)
{
    std::string dir = testDir("roundtrip");
    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.pollMs = 1;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());

    std::atomic<bool> stop{false};
    std::thread runner([&] { daemon.run(stop); });

    ServiceClient client(dir, "", 5);
    EXPECT_TRUE(client.daemonAlive());
    ServedBy served = ServedBy::Local;
    RunResult r = client.runJob(smallJob(), &served);
    // The daemon binds its socket transport by default, so a live
    // round trip is served over the socket (pushed completion).
    EXPECT_EQ(served, ServedBy::Socket);

    // A quarantined job surfaces as a client-side error.
    RunJob bad = smallJob();
    bad.workloads[0].spec = "no-such-benchmark";
    EXPECT_THROW(client.runJob(bad), std::runtime_error);

    stop.store(true);
    runner.join();

    RunCache local("");
    RunResult direct = runAndMeasureCached(smallJob(), &local);
    expectSameRecord(r.record, direct.record);
    EXPECT_GE(daemon.stats().completed, 1u);
    EXPECT_EQ(daemon.stats().quarantined, 1u);
}

TEST(SweepDaemon, InjectedFaultsLeaveTheSpoolConsistent)
{
    std::string dir = testDir("faults");
    ServiceClient client(dir);
    std::vector<std::uint64_t> digests;
    for (std::uint64_t s = 1; s <= 5; ++s)
        digests.push_back(client.submit(smallJob(s * 100)));

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 2;
    cfg.deadlineMs = 200; // stall faults need a deadline to resolve
    cfg.maxAttempts = 10; // generous: faults should not quarantine
    cfg.backoffMs = 1;
    cfg.injectFaults = true;
    cfg.faultRate = 0.8;
    cfg.faultSeed = 7;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    drain(daemon, 60'000);

    // Whatever faults hit, every job must end terminal and accounted.
    EXPECT_GE(daemon.stats().faultsInjected, 1u);
    std::size_t done = 0, failed = 0;
    for (std::uint64_t d : digests) {
        JobState st = client.spool().state(d);
        EXPECT_TRUE(st == JobState::Done || st == JobState::Failed)
            << jobStateName(st);
        (st == JobState::Done ? done : failed)++;
    }
    EXPECT_EQ(done + failed, digests.size());
    EXPECT_EQ(daemon.stats().completed, done);
    EXPECT_EQ(daemon.stats().quarantined, failed);

    // Completed jobs replay bit-identical to daemon-less execution
    // even though their attempts were stalled/failed/abandoned.
    for (std::uint64_t s = 1; s <= 5; ++s) {
        std::uint64_t d = digests[s - 1];
        if (client.spool().state(d) != JobState::Done)
            continue;
        RunResult served;
        ASSERT_TRUE(client.fetch(d, served));
        RunCache local("");
        RunResult direct = runAndMeasureCached(smallJob(s * 100), &local);
        expectSameRecord(served.record, direct.record);
    }

    // The journal replays despite injected truncations: no crash, and
    // surviving history still parses.
    JobJournal journal(dir + "/journal.log");
    (void)journal.replay();
}

} // namespace
} // namespace vpc
