/**
 * @file
 * Socket-transport tests: framed submit/ack/completion round trips
 * against a live in-process daemon, terminal-state acks for duplicate
 * submits, watch-after-settle pushes, the poll(2) backend, protocol
 * error handling, heartbeat liveness — and the reconnect drill: a
 * SIGKILLed daemon mid-stream, the client detecting the dead peer and
 * degrading to spool/local, a successor draining the spool, results
 * byte-identical throughout.  Fork-based tests are skipped under
 * ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/client.hh"
#include "service/daemon.hh"
#include "service/job_codec.hh"
#include "service/spool.hh"
#include "service/transport.hh"
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
    return testTempPath("vpc_transport_" + name);
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
    EXPECT_EQ(a.stats.ipc, b.stats.ipc);
    EXPECT_EQ(a.stats.instrs, b.stats.instrs);
    EXPECT_EQ(a.stats.l2Misses, b.stats.l2Misses);
    EXPECT_EQ(a.kernel.cyclesExecuted.value(),
              b.kernel.cyclesExecuted.value());
    EXPECT_EQ(a.kernel.eventsFired.value(),
              b.kernel.eventsFired.value());
}

/** An in-process daemon serving @p dir on a background thread. */
struct LiveDaemon
{
    explicit LiveDaemon(const std::string &dir,
                        std::uint64_t heartbeat_ms = 2000)
    {
        cfg.spoolDir = dir;
        cfg.workers = 1;
        cfg.pollMs = 1;
        cfg.heartbeatMs = heartbeat_ms;
        daemon = std::make_unique<SweepDaemon>(cfg);
        if (!daemon->start())
            return;
        runner = std::thread([this] { daemon->run(stop); });
    }

    ~LiveDaemon()
    {
        stopNow();
    }

    void
    stopNow()
    {
        if (runner.joinable()) {
            stop.store(true);
            runner.join();
        }
    }

    DaemonConfig cfg;
    std::unique_ptr<SweepDaemon> daemon;
    std::atomic<bool> stop{false};
    std::thread runner;
};

TEST(Transport, BatchSubmitAcksAndPushesCompletions)
{
    std::string dir = testDir("batch");
    LiveDaemon live(dir);
    ASSERT_TRUE(live.daemon->transport());

    TransportConfig tc;
    tc.socketPath = defaultSocketPath(dir);
    TransportClient client(tc);
    ASSERT_TRUE(client.connect());
    EXPECT_NE(client.daemonPid(), 0u);

    constexpr std::uint64_t kJobs = 3;
    std::vector<std::string> encoded;
    std::vector<std::uint64_t> digests;
    for (std::uint64_t s = 0; s < kJobs; ++s) {
        RunJob job = smallJob(s * 10 + 1);
        encoded.push_back(encodeJob(job));
        digests.push_back(runDigest(job));
    }

    std::vector<TransportClient::Ack> acks;
    ASSERT_TRUE(client.submitBatch(encoded, acks));
    ASSERT_EQ(acks.size(), kJobs);
    for (std::uint64_t i = 0; i < kJobs; ++i) {
        EXPECT_EQ(acks[i].digest, digests[i]) << "index-aligned acks";
        EXPECT_NE(acks[i].state, JobState::Absent);
    }

    // Every submitted digest gets a pushed completion, no polling.
    std::vector<bool> done(kJobs, false);
    for (std::uint64_t got = 0; got < kJobs;) {
        TransportClient::Completion comp;
        ASSERT_TRUE(client.nextCompletion(comp, 60'000));
        ASSERT_EQ(comp.state, JobState::Done) << comp.reason;
        for (std::uint64_t i = 0; i < kJobs; ++i)
            if (digests[i] == comp.digest && !done[i]) {
                done[i] = true;
                ++got;
            }
    }

    // Results are bit-identical to daemon-less execution.
    live.stopNow();
    RunCache store(dir + "/cache");
    for (std::uint64_t s = 0; s < kJobs; ++s) {
        RunRecord rec;
        ASSERT_TRUE(store.probe(digests[s], rec));
        RunCache scratch("");
        RunResult direct =
            runAndMeasureCached(smallJob(s * 10 + 1), &scratch);
        expectSameRecord(rec, direct.record);
    }
}

TEST(Transport, DuplicateSubmitIsAckedWithTerminalState)
{
    std::string dir = testDir("dup");
    LiveDaemon live(dir);

    TransportConfig tc;
    tc.socketPath = defaultSocketPath(dir);
    TransportClient client(tc);
    ASSERT_TRUE(client.connect());

    RunJob job = smallJob(77);
    std::vector<TransportClient::Ack> acks;
    ASSERT_TRUE(client.submitBatch({encodeJob(job)}, acks));
    TransportClient::Completion comp;
    ASSERT_TRUE(client.nextCompletion(comp, 60'000));
    EXPECT_EQ(comp.state, JobState::Done);

    // Resubmitting a settled job acks Done immediately — the daemon
    // neither recomputes nor pushes a second completion for it.
    ASSERT_TRUE(client.submitBatch({encodeJob(job)}, acks));
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0].state, JobState::Done);
    EXPECT_EQ(acks[0].digest, runDigest(job));
}

TEST(Transport, WatchOnSettledDigestCompletesImmediately)
{
    std::string dir = testDir("watch");
    LiveDaemon live(dir);

    TransportConfig tc;
    tc.socketPath = defaultSocketPath(dir);
    TransportClient submitter(tc);
    ASSERT_TRUE(submitter.connect());
    RunJob job = smallJob(5);
    std::vector<TransportClient::Ack> acks;
    ASSERT_TRUE(submitter.submitBatch({encodeJob(job)}, acks));
    TransportClient::Completion comp;
    ASSERT_TRUE(submitter.nextCompletion(comp, 60'000));

    // A second connection (a client from an earlier session) watches
    // the already-settled digest: the Complete frame arrives at once.
    TransportClient watcher(tc);
    ASSERT_TRUE(watcher.connect());
    ASSERT_TRUE(watcher.watch({runDigest(job)}));
    ASSERT_TRUE(watcher.nextCompletion(comp, 5'000));
    EXPECT_EQ(comp.digest, runDigest(job));
    EXPECT_EQ(comp.state, JobState::Done);
}

TEST(Transport, PollBackendServesTheSameRoundTrip)
{
    ::setenv("VPC_TRANSPORT_POLL", "1", 1);
    std::string dir = testDir("pollbackend");
    LiveDaemon live(dir);
    ASSERT_TRUE(live.daemon->transport());

    ServiceClient client(dir);
    ServedBy served = ServedBy::Local;
    RunResult r = client.runJob(smallJob(11), &served);
    EXPECT_EQ(served, ServedBy::Socket);

    RunCache scratch("");
    RunResult direct = runAndMeasureCached(smallJob(11), &scratch);
    expectSameRecord(r.record, direct.record);
    ::unsetenv("VPC_TRANSPORT_POLL");
}

TEST(Transport, SpoolOnlyDaemonServesViaPollingTier)
{
    std::string dir = testDir("spoolonly");
    LiveDaemon live(dir);
    // Rebuild the daemon without a socket.
    live.stopNow();
    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 1;
    cfg.pollMs = 1;
    cfg.socket = false;
    SweepDaemon daemon(cfg);
    ASSERT_TRUE(daemon.start());
    EXPECT_EQ(daemon.transport(), nullptr);
    std::atomic<bool> stop{false};
    std::thread runner([&] { daemon.run(stop); });

    ServiceClient client(dir, "", 5);
    ServedBy served = ServedBy::Local;
    RunResult r = client.runJob(smallJob(21), &served);
    EXPECT_EQ(served, ServedBy::Daemon) << "tier 2: spool polling";

    stop.store(true);
    runner.join();
    RunCache scratch("");
    RunResult direct = runAndMeasureCached(smallJob(21), &scratch);
    expectSameRecord(r.record, direct.record);
}

TEST(Transport, ProtocolErrorClosesTheConnection)
{
    std::string dir = testDir("proto");
    LiveDaemon live(dir);
    ASSERT_TRUE(live.daemon->transport());

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::string path = defaultSocketPath(dir);
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)), 0);

    // An insane frame length (> kMaxFrameBytes) is a protocol error:
    // the server must drop the connection, not allocate the buffer.
    std::uint32_t len = ~0u;
    ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(len)));
    char buf[64];
    ssize_t n;
    do {
        n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n > 0);
    EXPECT_EQ(n, 0) << "server should close on protocol error";
    ::close(fd);
}

TEST(Transport, HeartbeatsKeepIdleConnectionsAlive)
{
    std::string dir = testDir("heartbeat");
    LiveDaemon live(dir, /*heartbeat_ms=*/50);

    TransportConfig tc;
    tc.socketPath = defaultSocketPath(dir);
    tc.heartbeatMs = 50;
    TransportClient client(tc);
    ASSERT_TRUE(client.connect());

    // Idle for many heartbeat intervals.  nextCompletion() answers
    // the daemon's pings and sends the client's own, so neither side
    // declares the other dead.
    TransportClient::Completion comp;
    EXPECT_FALSE(client.nextCompletion(comp, 400)); // nothing settled
    EXPECT_TRUE(client.connected());

    // The connection still works end to end afterwards.
    std::vector<TransportClient::Ack> acks;
    ASSERT_TRUE(client.submitBatch({encodeJob(smallJob(31))}, acks));
    ASSERT_TRUE(client.nextCompletion(comp, 60'000));
    EXPECT_EQ(comp.state, JobState::Done);
}

TEST(Transport, SilentPeerIsClosedByServerHeartbeat)
{
    std::string dir = testDir("silent");
    LiveDaemon live(dir, /*heartbeat_ms=*/50);

    // A raw connection that never speaks: no Hello, no Pong.  The
    // server pings it, gets silence, and closes it after ~3 missed
    // intervals.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::string path = defaultSocketPath(dir);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)), 0);

    char buf[256];
    ssize_t n;
    do {
        n = ::recv(fd, buf, sizeof(buf), 0); // Pings, then EOF
    } while (n > 0);
    EXPECT_EQ(n, 0);
    ::close(fd);
    EXPECT_GE(live.daemon->transport()->stats().deadPeers.load(), 1u);
}

TEST(Transport, HardCapOverflowMidFrameIsDroppedSafely)
{
    // Regression drill for the connection-lifetime contract: a Watch
    // flood for settled digests makes the server queue reply frames
    // far faster than the peer drains them (it reads nothing until
    // the drop), so the write queue crosses the hard cap *inside* the
    // Watch handler's enqueue loop.  The server must condemn the connection without
    // destroying it under the handler's feet (historically a
    // use-after-free) and keep serving other peers.
    std::string dir = testDir("hardcap");
    fs::create_directories(dir);
    TransportConfig tc;
    tc.socketPath = dir + "/t.sock";
    tc.heartbeatMs = 0;
    tc.writeHighWater = 16u << 10;
    tc.writeHardCap = 64u << 10;
    std::string fat_reason(8 << 10, 'r');
    TransportServer server(
        tc,
        [](const std::string &, std::uint64_t &digest) {
            digest = 0;
            return JobState::Absent;
        },
        [&](std::uint64_t, std::string &reason_out) {
            reason_out = fat_reason;
            return JobState::Failed; // settled: replied immediately
        });
    ASSERT_TRUE(server.start());

    auto rawConnect = [&]() {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        // A regression must fail the test, not hang it in recv().
        timeval tv{};
        tv.tv_sec = 10;
        EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                               sizeof(tv)), 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, tc.socketPath.c_str(),
                    tc.socketPath.size() + 1);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)), 0);
        return fd;
    };
    auto put32 = [](std::string &s, std::uint32_t v) {
        s.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };

    // One Watch frame, 2048 digests: ~16 MiB of queued replies
    // against a 64 KiB cap.
    int fd = rawConnect();
    constexpr std::uint32_t kDigests = 2048;
    std::string frame;
    put32(frame, 1 + 4 + kDigests * 8);
    frame.push_back(5); // FrameType::Watch
    put32(frame, kDigests);
    for (std::uint64_t d = 1; d <= kDigests; ++d)
        frame.append(reinterpret_cast<const char *>(&d), sizeof(d));
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));

    // Read nothing until the server drops the connection.  Reading
    // earlier lets the opportunistic flush keep the queue under the
    // cap, and then no drop ever happens.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().dropped.load() < 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_GE(server.stats().dropped.load(), 1u)
        << "server should drop the overflowed connection";

    // Drain whatever the server managed to push: it must end in EOF,
    // never a wedged or crashed server.
    char buf[64 * 1024];
    ssize_t n;
    do {
        n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n > 0);
    EXPECT_EQ(n, 0) << "dropped connection should read as EOF";
    ::close(fd);

    // The event loop survived: a fresh peer completes the handshake.
    int fd2 = rawConnect();
    std::string hello;
    put32(hello, 1 + 4);
    hello.push_back(1); // FrameType::Hello
    put32(hello, kTransportProtoVersion);
    ASSERT_EQ(::send(fd2, hello.data(), hello.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(hello.size()));
    std::string ack;
    while (ack.size() < 17) { // u32 len + type + u32 ver + u64 pid
        n = ::recv(fd2, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "server must still answer Hello";
        ack.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(static_cast<std::uint8_t>(ack[4]), 2u); // HelloAck
    ::close(fd2);
}

TEST(TransportReconnect, SigkilledDaemonMidStreamDegradesThenDrains)
{
#if VPC_TSAN
    GTEST_SKIP() << "fork-based test: not supported under TSan";
#endif
    std::string dir = testDir("sigkill");
    // Spool the daemon's workload before forking (no threads yet).
    constexpr std::uint64_t kJobs = 8;
    std::vector<std::string> encoded;
    std::vector<std::uint64_t> digests;
    for (std::uint64_t s = 0; s < kJobs; ++s) {
        RunJob job = smallJob(s * 10 + 1, 20'000);
        encoded.push_back(encodeJob(job));
        digests.push_back(runDigest(job));
    }

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        DaemonConfig cfg;
        cfg.spoolDir = dir;
        cfg.workers = 1;
        cfg.pollMs = 1;
        SweepDaemon daemon(cfg);
        if (!daemon.start())
            ::_exit(2);
        std::atomic<bool> never{false};
        daemon.run(never);
        ::_exit(0);
    }

    // Connect and stream the batch in.
    TransportConfig tc;
    tc.socketPath = defaultSocketPath(dir);
    TransportClient client(tc);
    bool connected = false;
    for (int i = 0; i < 300 && !connected; ++i) {
        connected = client.connect();
        if (!connected)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(connected);
    std::vector<TransportClient::Ack> acks;
    ASSERT_TRUE(client.submitBatch(encoded, acks));
    ASSERT_EQ(acks.size(), kJobs);

    // Take at least one pushed completion mid-stream, then SIGKILL.
    TransportClient::Completion comp;
    ASSERT_TRUE(client.nextCompletion(comp, 60'000));
    EXPECT_EQ(comp.state, JobState::Done);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status));

    // The client notices the dead peer (EOF, not a timeout).
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::seconds(30);
    while (!client.dead() &&
           std::chrono::steady_clock::now() < until)
        client.nextCompletion(comp, 100);
    EXPECT_TRUE(client.dead());

    // Tier degradation: with no live daemon the ServiceClient serves
    // the remaining jobs locally, bit-identically.
    ServiceClient fallback(dir);
    EXPECT_FALSE(fallback.daemonAlive());
    ServedBy served = ServedBy::Socket;
    RunJob probe_job = smallJob(1 * 10 + 1, 20'000);
    RunResult local = fallback.runJob(probe_job, &served);
    // (Served from cache if the victim finished it, else computed —
    // both are the Local tier.)
    EXPECT_EQ(served, ServedBy::Local);
    {
        RunCache scratch("");
        RunResult direct = runAndMeasureCached(probe_job, &scratch);
        expectSameRecord(local.record, direct.record);
    }

    // A successor daemon recovers the orphans and drains the spool.
    DaemonConfig cfg;
    cfg.spoolDir = dir;
    cfg.workers = 2;
    SweepDaemon successor(cfg);
    ASSERT_TRUE(successor.start());
    JobSpool spool(dir);
    auto drain_until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(120);
    while ((!spool.list(JobState::Pending).empty() ||
            !spool.list(JobState::Running).empty()) &&
           std::chrono::steady_clock::now() < drain_until)
        successor.runOnce();
    EXPECT_EQ(spool.list(JobState::Done).size(), kJobs);
    EXPECT_TRUE(spool.list(JobState::Failed).empty());

    // Byte-identical results on every path for every job.
    RunCache store(dir + "/cache");
    for (std::uint64_t s = 0; s < kJobs; ++s) {
        RunRecord rec;
        ASSERT_TRUE(store.probe(digests[s], rec));
        RunCache scratch("");
        RunResult direct = runAndMeasureCached(
            smallJob(s * 10 + 1, 20'000), &scratch);
        expectSameRecord(rec, direct.record);
    }
}

} // namespace
} // namespace vpc
