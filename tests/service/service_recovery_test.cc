/**
 * @file
 * Cross-process robustness: SIGKILL the daemon with jobs in every
 * lifecycle state and prove a successor finishes everything with
 * results bitwise identical to daemon-less execution; hammer one
 * spool + run cache with many concurrent client processes and prove
 * exactly-once compute per unique key with no corrupted or leftover
 * files.  The fork-based tests are skipped under ThreadSanitizer
 * (fork + instrumented threads is unsupported there); the in-process
 * thread variant at the bottom carries the concurrency coverage in
 * TSan builds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/client.hh"
#include "service/daemon.hh"
#include "service/spool.hh"
#include "sim/format.hh"
#include "system/experiment.hh"
#include "system/options.hh"
#include "temp_path.hh"

#if defined(__SANITIZE_THREAD__)
#define VPC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VPC_TSAN 1
#endif
#endif
#ifndef VPC_TSAN
#define VPC_TSAN 0
#endif

namespace vpc
{
namespace
{

namespace fs = std::filesystem;

std::string
testDir(const std::string &name)
{
    return testTempPath("vpc_recovery_" + name);
}

/** A cheap two-thread job; @p seed varies the content identity. */
RunJob
smallJob(std::uint64_t seed, Cycle measure = 2'000)
{
    RunJob job;
    job.config = makeBaselineConfig(2, ArbiterPolicy::Fcfs);
    job.workloads = {WorkloadKey{"loads", threadBaseAddr(0), seed},
                     WorkloadKey{"stores", threadBaseAddr(1), seed + 1}};
    job.warmup = 500;
    job.measure = measure;
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

/** @return every *.tmp.* file anywhere under @p root. */
std::vector<std::string>
leftoverTemps(const std::string &root)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(root, ec);
         it != fs::recursive_directory_iterator(); ++it) {
        std::string name = it->path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            out.push_back(it->path().string());
    }
    return out;
}

TEST(ServiceRecovery, SigkilledDaemonIsRecoveredBySuccessor)
{
#if VPC_TSAN
    GTEST_SKIP() << "fork-based test: not supported under TSan";
#endif
    std::string dir = testDir("sigkill");
    ServiceClient client(dir);
    // Enough moderately sized jobs that done/, running/ and pending/
    // are all populated at once partway through the first daemon's
    // life.
    constexpr std::uint64_t kJobs = 12;
    std::vector<std::uint64_t> digests;
    for (std::uint64_t s = 0; s < kJobs; ++s)
        digests.push_back(client.submit(smallJob(s * 10 + 1, 20'000)));

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Daemon child: serve until killed.  _exit on any failure so
        // gtest machinery never runs twice.
        DaemonConfig cfg;
        cfg.spoolDir = dir;
        cfg.workers = 1;
        cfg.pollMs = 1;
        // Claim one job per pass: the default batched claim can move
        // every pending job into running/ and settle the whole batch
        // at once, leaving only a sub-millisecond window in which
        // done/, running/ and pending/ are simultaneously non-empty.
        // One-at-a-time claims keep that tri-state window open for
        // nearly the whole drain, so the snapshot poll below is
        // deterministic in practice.
        cfg.claimCap = 1;
        SweepDaemon daemon(cfg);
        if (!daemon.start())
            ::_exit(2);
        std::atomic<bool> never{false};
        daemon.run(never);
        ::_exit(0); // unreachable: run() only returns on stop
    }

    // Wait for the mid-flight snapshot: at least one job in each
    // lifecycle state, then SIGKILL with no warning.
    JobSpool &spool = client.spool();
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::seconds(60);
    bool snapshot = false;
    while (std::chrono::steady_clock::now() < until) {
        if (!spool.list(JobState::Done).empty() &&
            !spool.list(JobState::Running).empty() &&
            !spool.list(JobState::Pending).empty()) {
            snapshot = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(snapshot)
        << "daemon finished before a full-state snapshot was seen";
    EXPECT_TRUE(WIFSIGNALED(status));

    // The dead daemon's pid file must not fence out the successor.
    EXPECT_EQ(spool.ownerPid(), 0u);

    std::size_t orphans = spool.list(JobState::Running).size();
    EXPECT_GE(orphans, 1u);

    // Successor daemon, same spool, same cache: recover and finish.
    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 2;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    EXPECT_EQ(daemon.stats().orphansRecovered, orphans);
    auto drain_until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(120);
    while ((!spool.list(JobState::Pending).empty() ||
            !spool.list(JobState::Running).empty()) &&
           std::chrono::steady_clock::now() < drain_until)
        daemon.runOnce();

    // Every job completed; none failed, none lost, none duplicated
    // (content-addressed spool files make a duplicate impossible to
    // even represent).
    EXPECT_EQ(spool.list(JobState::Done).size(), kJobs);
    EXPECT_TRUE(spool.list(JobState::Failed).empty());

    // Jobs the victim already finished stay finished — the successor
    // only works the pending/running remainder, so it claimed fewer
    // jobs than were submitted (at least one was in done/ at kill
    // time) but at least the orphans it recovered.
    EXPECT_LT(daemon.stats().claimed, kJobs);
    EXPECT_GE(daemon.stats().claimed, orphans);

    // And the results are bitwise identical to daemon-less runs.
    for (std::uint64_t s = 0; s < kJobs; ++s) {
        RunResult served;
        ASSERT_TRUE(client.fetch(digests[s], served));
        RunCache local("");
        RunResult direct =
            runAndMeasureCached(smallJob(s * 10 + 1, 20'000), &local);
        expectSameRecord(served.record, direct.record);
    }

    EXPECT_TRUE(leftoverTemps(dir).empty());
}

TEST(ServiceStress, ManyClientProcessesOneCacheExactlyOnce)
{
#if VPC_TSAN
    GTEST_SKIP() << "fork-based test: not supported under TSan";
#endif
    std::string dir = testDir("stress");
    constexpr int kClients = 8;
    constexpr std::uint64_t kUnique = 4;

    // Fork the clients before the daemon so no threads exist yet in
    // this process at fork time.  Children submit and poll the spool
    // directly (not runJob) so none of them ever computes locally —
    // the daemon is the only computer, making compute counts exact.
    std::vector<pid_t> kids;
    for (int c = 0; c < kClients; ++c) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid != 0) {
            kids.push_back(pid);
            continue;
        }
        ServiceClient client(dir);
        bool ok = true;
        for (std::uint64_t i = 0; i < kUnique; ++i) {
            // Each client walks the job set from a different offset
            // so submissions interleave across processes.
            std::uint64_t s =
                (i + static_cast<std::uint64_t>(c)) % kUnique;
            std::uint64_t digest = client.submit(smallJob(s * 7 + 1));
            auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(60);
            JobState st;
            do {
                st = client.spool().state(digest);
                if (st == JobState::Done || st == JobState::Failed)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            } while (std::chrono::steady_clock::now() < deadline);
            RunResult r;
            if (st != JobState::Done || !client.fetch(digest, r) ||
                r.record.endCycle == 0)
                ok = false;
        }
        ::_exit(ok ? 0 : 1);
    }

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 2;
    cfg.pollMs = 1;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    std::atomic<bool> stop{false};
    std::thread runner([&] { daemon.run(stop); });

    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "client " << pid << " failed";
    }
    stop.store(true);
    runner.join();

    // 8 clients x 4 submissions collapsed to one *compute* per unique
    // key.  (A client can legally re-publish a job in the instant the
    // daemon claims the first copy — the re-claim is served from
    // cache, so completed - cacheHits is the exact compute count.)
    EXPECT_EQ(daemon.stats().completed - daemon.stats().cacheHits,
              kUnique);
    EXPECT_GE(daemon.stats().claimed, kUnique);
    EXPECT_EQ(daemon.stats().failures, 0u);

    // All terminal, nothing stranded, nothing half-written.
    JobSpool spool(dir);
    EXPECT_EQ(spool.list(JobState::Done).size(), kUnique);
    EXPECT_TRUE(spool.list(JobState::Pending).empty());
    EXPECT_TRUE(spool.list(JobState::Running).empty());
    EXPECT_TRUE(spool.list(JobState::Failed).empty());
    EXPECT_TRUE(leftoverTemps(dir).empty());

    // Spot-check fidelity against daemon-less execution.
    ServiceClient checker(dir);
    for (std::uint64_t s = 0; s < kUnique; ++s) {
        RunResult served;
        ASSERT_TRUE(checker.fetch(runDigest(smallJob(s * 7 + 1)),
                                  served));
        RunCache local("");
        RunResult direct = runAndMeasureCached(smallJob(s * 7 + 1),
                                               &local);
        expectSameRecord(served.record, direct.record);
    }
}

TEST(ServiceStress, ManyClientThreadsOneCacheExactlyOnce)
{
    // The TSan-safe variant: same exactly-once contract, concurrency
    // from threads instead of processes.  Each thread owns a private
    // ServiceClient (spool handles and cache handles are not shared),
    // rendezvousing only through the filesystem — exactly like the
    // process version.
    std::string dir = testDir("thread_stress");
    constexpr int kClients = 8;
    constexpr std::uint64_t kUnique = 4;

    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 2;
    cfg.pollMs = 1;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    std::atomic<bool> stop{false};
    std::thread runner([&] { daemon.run(stop); });

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            ServiceClient client(dir);
            for (std::uint64_t i = 0; i < kUnique; ++i) {
                std::uint64_t s =
                    (i + static_cast<std::uint64_t>(c)) % kUnique;
                std::uint64_t digest =
                    client.submit(smallJob(s * 7 + 1));
                auto deadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(60);
                JobState st;
                do {
                    st = client.spool().state(digest);
                    if (st == JobState::Done || st == JobState::Failed)
                        break;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                } while (std::chrono::steady_clock::now() < deadline);
                RunResult r;
                if (st != JobState::Done ||
                    !client.fetch(digest, r) || r.record.endCycle == 0)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    stop.store(true);
    runner.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(daemon.stats().completed - daemon.stats().cacheHits,
              kUnique);
    EXPECT_GE(daemon.stats().claimed, kUnique);
    EXPECT_EQ(daemon.stats().failures, 0u);

    JobSpool spool(dir);
    EXPECT_EQ(spool.list(JobState::Done).size(), kUnique);
    EXPECT_TRUE(spool.list(JobState::Pending).empty());
    EXPECT_TRUE(spool.list(JobState::Running).empty());
    EXPECT_TRUE(leftoverTemps(dir).empty());
}

} // namespace
} // namespace vpc
