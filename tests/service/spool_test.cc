/**
 * @file
 * Job spool tests: the directory-per-state machine must make every
 * lifecycle transition atomic and idempotent — duplicate submits are
 * no-ops, claims tolerate lost races, orphans are recoverable, and
 * the daemon.pid fence admits exactly one live owner.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "service/spool.hh"
#include "sim/format.hh"
#include "temp_path.hh"

namespace vpc
{
namespace
{

namespace fs = std::filesystem;

std::string
testDir(const std::string &name)
{
    return testTempPath("vpc_spool_" + name);
}

TEST(JobSpool, SubmitClaimDoneLifecycle)
{
    JobSpool spool(testDir("lifecycle"));
    EXPECT_EQ(spool.state(0xabc), JobState::Absent);

    EXPECT_EQ(spool.submit(0xabc, "payload\n"), JobState::Pending);
    EXPECT_EQ(spool.state(0xabc), JobState::Pending);

    std::uint64_t digest = 0;
    std::string text;
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_EQ(digest, 0xabcu);
    EXPECT_EQ(text, "payload\n");
    EXPECT_EQ(spool.state(0xabc), JobState::Running);

    EXPECT_TRUE(spool.markDone(0xabc));
    EXPECT_EQ(spool.state(0xabc), JobState::Done);

    // Nothing left to claim; terminal transitions don't re-fire.
    EXPECT_FALSE(spool.claim(digest, text));
    EXPECT_FALSE(spool.markDone(0xabc));
}

TEST(JobSpool, DuplicateSubmitIsANoOp)
{
    JobSpool spool(testDir("dup"));
    EXPECT_EQ(spool.submit(1, "first\n"), JobState::Pending);
    // Re-submitting (even with different bytes) does not overwrite.
    EXPECT_EQ(spool.submit(1, "second\n"), JobState::Pending);

    std::uint64_t digest = 0;
    std::string text;
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_EQ(text, "first\n");

    // A submit against a running/done/failed job reports that state.
    EXPECT_EQ(spool.submit(1, "third\n"), JobState::Running);
    spool.markDone(1);
    EXPECT_EQ(spool.submit(1, "fourth\n"), JobState::Done);
    EXPECT_EQ(spool.state(1), JobState::Done);
}

TEST(JobSpool, ClaimOrderIsOldestFirst)
{
    JobSpool spool(testDir("order"));
    spool.submit(10, "a\n");
    spool.submit(11, "b\n");
    spool.submit(12, "c\n");

    // Identical mtimes are broken by name, so the order is stable
    // even when all three land within one clock tick.
    std::uint64_t digest = 0;
    std::string text;
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_EQ(digest, 10u);
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_EQ(digest, 11u);
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_EQ(digest, 12u);
    EXPECT_FALSE(spool.claim(digest, text));
}

TEST(JobSpool, ClaimJobTargetsOneDigest)
{
    JobSpool spool(testDir("claimjob"));
    spool.submit(20, "x\n");
    spool.submit(21, "y\n");

    std::string text;
    ASSERT_TRUE(spool.claimJob(21, text));
    EXPECT_EQ(text, "y\n");
    EXPECT_EQ(spool.state(21), JobState::Running);
    EXPECT_EQ(spool.state(20), JobState::Pending);

    // Already running: a second targeted claim fails.
    EXPECT_FALSE(spool.claimJob(21, text));
    // Absent digest: fails.
    EXPECT_FALSE(spool.claimJob(99, text));
}

TEST(JobSpool, RequeueAndRetry)
{
    JobSpool spool(testDir("requeue"));
    spool.submit(5, "job\n");

    std::uint64_t digest = 0;
    std::string text;
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_TRUE(spool.requeue(5));
    EXPECT_EQ(spool.state(5), JobState::Pending);

    // The payload survives the round trip.
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_EQ(text, "job\n");
}

TEST(JobSpool, FailReasonTravelsWithQuarantine)
{
    JobSpool spool(testDir("reason"));
    spool.submit(7, "poison\n");

    std::uint64_t digest = 0;
    std::string text;
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_TRUE(spool.markFailed(7, "exhausted 3 attempts"));
    EXPECT_EQ(spool.state(7), JobState::Failed);
    EXPECT_EQ(spool.failReason(7), "exhausted 3 attempts");

    // rejectPending quarantines without ever running.
    spool.submit(8, "undecodable\n");
    EXPECT_TRUE(spool.rejectPending(8, "bad record"));
    EXPECT_EQ(spool.state(8), JobState::Failed);
    EXPECT_EQ(spool.failReason(8), "bad record");

    // No reason file for jobs that never failed.
    EXPECT_EQ(spool.failReason(12345), "");
}

TEST(JobSpool, RecoverOrphansRequeuesEverythingRunning)
{
    std::string dir = testDir("orphans");
    {
        JobSpool spool(dir);
        spool.submit(1, "a\n");
        spool.submit(2, "b\n");
        spool.submit(3, "c\n");
        std::uint64_t digest = 0;
        std::string text;
        ASSERT_TRUE(spool.claim(digest, text));
        ASSERT_TRUE(spool.claim(digest, text));
        // Crash here: two jobs stranded in running/, one pending.
    }
    JobSpool spool(dir);
    EXPECT_EQ(spool.recoverOrphans(), 2u);
    EXPECT_EQ(spool.state(1), JobState::Pending);
    EXPECT_EQ(spool.state(2), JobState::Pending);
    EXPECT_EQ(spool.state(3), JobState::Pending);
    EXPECT_TRUE(spool.list(JobState::Running).empty());
    EXPECT_EQ(spool.list(JobState::Pending).size(), 3u);
}

TEST(JobSpool, ListReportsDigestsPerState)
{
    JobSpool spool(testDir("list"));
    spool.submit(0xdeadbeef, "a\n");
    spool.submit(0xcafe, "b\n");
    std::string text;
    ASSERT_TRUE(spool.claimJob(0xcafe, text));

    auto pending = spool.list(JobState::Pending);
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0], 0xdeadbeefu);
    auto running = spool.list(JobState::Running);
    ASSERT_EQ(running.size(), 1u);
    EXPECT_EQ(running[0], 0xcafeu);
    EXPECT_TRUE(spool.list(JobState::Done).empty());
}

TEST(JobSpool, PidFenceAdmitsOneLiveOwner)
{
    std::string dir = testDir("fence");
    JobSpool a(dir);
    EXPECT_EQ(a.ownerPid(), 0u);
    ASSERT_TRUE(a.acquire());
    EXPECT_EQ(a.ownerPid(), static_cast<std::uint64_t>(::getpid()));

    // Re-acquiring from the same process is idempotent (same owner).
    EXPECT_TRUE(a.acquire());

    a.release();
    EXPECT_EQ(a.ownerPid(), 0u);
}

TEST(JobSpool, FencedOutByAnotherLiveProcess)
{
    std::string dir = testDir("fence_live");
    JobSpool spool(dir);
    {
        // Forge a pid file naming a live process that is not us.  Pid
        // 1 always exists; kill-0 reports EPERM, which counts as
        // alive.
        std::ofstream f(dir + "/daemon.pid");
        f << 1 << "\n";
    }
    EXPECT_EQ(spool.ownerPid(), 1u);
    EXPECT_FALSE(spool.acquire());
    // release() refuses to remove someone else's fence.
    spool.release();
    EXPECT_EQ(spool.ownerPid(), 1u);
    std::remove((dir + "/daemon.pid").c_str());
}

TEST(JobSpool, DeadOwnersFileIsReplaced)
{
    std::string dir = testDir("deadowner");
    JobSpool spool(dir);
    {
        // Forge a pid file naming a pid that cannot be running (far
        // beyond kernel.pid_max).
        std::ofstream f(dir + "/daemon.pid");
        f << 4194304999ull << "\n";
    }
    EXPECT_EQ(spool.ownerPid(), 0u); // dead owner reads as none
    EXPECT_TRUE(spool.acquire());    // and is silently replaced
    EXPECT_EQ(spool.ownerPid(), static_cast<std::uint64_t>(::getpid()));
    spool.release();
}

TEST(JobSpool, JobNameIsFixedWidthHex)
{
    EXPECT_EQ(JobSpool::jobName(0), "job-0000000000000000");
    EXPECT_EQ(JobSpool::jobName(0xabcdef0123456789ull),
              "job-abcdef0123456789");
}

TEST(JobSpool, UnreadableClaimCandidateIsQuarantined)
{
    std::string dir = testDir("unreadable");
    JobSpool spool(dir);
    spool.submit(42, "ok\n");
    // A pending entry that is a directory cannot be slurped; the
    // claim loop must quarantine it and still serve the good job.
    fs::create_directory(dir + "/pending/" + JobSpool::jobName(43));

    std::uint64_t digest = 0;
    std::string text;
    ASSERT_TRUE(spool.claim(digest, text));
    EXPECT_EQ(digest, 42u);
    EXPECT_FALSE(spool.claim(digest, text));
}

TEST(ProcessAlive, ProbesSelfAndNonsense)
{
    EXPECT_TRUE(processAlive(static_cast<std::uint64_t>(::getpid())));
    EXPECT_FALSE(processAlive(4194304999ull));
    EXPECT_FALSE(processAlive(0));
}

} // namespace
} // namespace vpc
