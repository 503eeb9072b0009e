/**
 * @file
 * The service workload: service_flood.
 *
 * An in-process SweepDaemon (socket transport, 2 workers) is fed by one
 * client thread over one connection with tiny 1-core jobs.  A tiny job
 * spends most of its time in CmpSystem set-up, so codec, spool,
 * journal, transport, daemon scheduling, run-cache store/fetch and the
 * system build dominate; the simulator's hot loop barely runs.
 *
 * Two phases:
 *  - saturation: a window of jobs always in flight (closed loop on the
 *    window), settled jobs per second;
 *  - open loop: one job due every 1/kOpenLoopRate seconds regardless
 *    of completions, latency timed from each job's due time to its
 *    record being fetched.
 * Every fourth submission (chosen by the seeded generator) repeats the
 * digest of a job submitted well before, so the dedup/read path runs
 * beside the execute/write path.
 *
 * Checks: every fetched record equals a daemon-less
 * runAndMeasureCached(job, nullptr); every executed digest settles
 * with exactly one journal attempt; no job fails, times out or is
 * refused.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <unistd.h>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/job_codec.hh"
#include "service/journal.hh"
#include "service/transport.hh"
#include "system/experiment.hh"
#include "system/options.hh"

namespace perfbench
{

namespace
{

constexpr unsigned kWorkers = 2;
constexpr int kSetups = 9;           //!< daemon start-ups timed
constexpr std::size_t kWindow = 64;  //!< saturation jobs in flight
constexpr std::size_t kBatch = 16;   //!< saturation jobs per frame
constexpr double kOpenLoopRate = 200.0; //!< jobs per second
constexpr double kSloMs = 15.0;      //!< below the 20 ms spool poll
/**
 * The generator has fallen behind when its last job goes out later than
 * this share of the open-loop phase, i.e. it offered less than 95% of
 * the scheduled rate.  Short stalls it catches up from only add to the
 * latency, which is timed from each job's due time.
 */
constexpr double kMaxShortfall = 0.05;
constexpr std::uint64_t kWaitMs = 30'000; //!< completion timeout
/** Jobs a traced run replays through the spanned job runner. */
constexpr std::size_t kTracedRefs = 1000;
/** A repeat names a job at least this many submissions back. */
constexpr std::size_t kRepeatLag = 256;

/** @return tiny 1-core job number @p i of the run seeded @p seed. */
vpc::RunJob
tinyJob(std::uint64_t seed, std::uint64_t i)
{
    vpc::RunJob job;
    job.config = vpc::makeBaselineConfig(1, vpc::ArbiterPolicy::RowFcfs);
    job.workloads = {vpc::WorkloadKey{i % 2 == 0 ? "loads" : "stores",
                                      vpc::threadBaseAddr(0),
                                      deriveSeed(seed, i)}};
    job.warmup = 1'000;
    job.measure = 4'000;
    return job;
}

/** An in-process daemon serving one spool on a background thread. */
class LiveDaemon
{
  public:
    explicit LiveDaemon(const std::string &dir)
    {
        vpc::DaemonConfig cfg;
        cfg.spoolDir = dir;
        cfg.workers = kWorkers;
        daemon_ = std::make_unique<vpc::SweepDaemon>(cfg);
        if (!daemon_->start())
            return;
        runner_ = std::thread([this] { daemon_->run(stop_); });
    }

    ~LiveDaemon() { stop(); }

    LiveDaemon(const LiveDaemon &) = delete;
    LiveDaemon &operator=(const LiveDaemon &) = delete;

    /** @return true when the daemon runs with a listening socket. */
    bool
    serving() const
    {
        return runner_.joinable() && daemon_->transport() &&
               daemon_->transport()->listening();
    }

    /** Stop serving and wait for the daemon thread to end. */
    void
    stop()
    {
        stop_.store(true);
        if (runner_.joinable())
            runner_.join();
    }

    const vpc::SweepDaemon &daemon() const { return *daemon_; }

  private:
    std::unique_ptr<vpc::SweepDaemon> daemon_;
    std::atomic<bool> stop_{false};
    std::thread runner_; // declared last: uses the members above
};

/** One submission waiting for its completion. */
struct Waiter
{
    std::uint64_t jobIndex = 0;
    Clock::time_point due;     //!< open loop: when it was due
    std::size_t window = 0;    //!< open loop: the window it is due in
    Clock::time_point acked;   //!< when the submit was acknowledged
    Tracer::SpanId jobSpan = 0;
    Tracer::SpanId completeSpan = 0;
};

/** State shared by both phases of one run. */
class Flood
{
  public:
    Flood(const Options &opt, const std::string &dir,
          vpc::TransportClient &client)
        : opt_(opt), client_(client), fetcher_(dir, "", 50, false),
          rng_(deriveSeed(opt.seed, 0x5eed))
    {
    }

    /**
     * Saturation phase over @p budget seconds.  @return the median over
     * its whole seconds of jobs settled per second, and fill
     * @p kcycles_per_s with the median of simulated kcycles settled per
     * second (jobs executed, not repeats).
     */
    double saturate(double budget, Tracer *tr, double &kcycles_per_s);

    /**
     * Open-loop phase over @p budget seconds.  Jobs are grouped into
     * windows of kWindowJobs by due time, so each window's p99 has ten
     * samples beyond it.
     */
    void openLoop(double budget, Tracer *tr);

    static constexpr std::size_t kWindowJobs = 1000;

    // Results, read by runServiceWorkload().
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t settled = 0, repeats = 0;
    /** Open loop, per window: due -> fetched latency, CPU per job. */
    std::vector<std::vector<double>> latencyMs;
    std::vector<double> cpuMsPerJob;
    std::vector<double> lateMs;       //!< open loop generator lateness
    /** Lateness of the last open-loop job over the phase length. */
    double shortfall = 0;
    std::vector<double> submitAckMs, ackToCompleteMs, fetchMs;
    std::uint64_t sloMisses = 0, openJobs = 0;
    /** Every distinct job submitted, by index, and its fetched record. */
    std::vector<vpc::RunJob> jobs;
    std::vector<std::string> fetched;

  private:
    /**
     * @return the job to submit next: a fresh one, or a repeat of an
     *         earlier job's digest
     */
    std::uint64_t nextJobIndex();

    /** Encode and submit @p idx; @return its ack (state Absent on error). */
    vpc::TransportClient::Ack submitOne(std::uint64_t idx, Tracer *tr,
                                        Tracer::SpanId parent);

    /** Fetch and check the record of @p w's job. */
    void settle(const Waiter &w, Tracer *tr, bool open_loop);

    /** Wait up to @p ms for one completion and settle its waiters. */
    bool pumpCompletion(std::uint64_t ms, Tracer *tr, bool open_loop);

    void fail(const char *what, std::uint64_t idx);

    const Options &opt_;
    vpc::TransportClient &client_;
    vpc::ServiceClient fetcher_;
    std::mt19937_64 rng_;
    std::unordered_map<std::uint64_t, std::vector<Waiter>> inflight_;
    std::size_t inflightCount_ = 0;
    /** Saturation settles: seconds into the phase, cycles executed. */
    std::vector<std::pair<double, std::uint64_t>> satSettles_;
    bool saturating_ = false;
    Clock::time_point phaseStart_;
};

std::uint64_t
Flood::nextJobIndex()
{
    bool repeat = jobs.size() > kRepeatLag && rng_() % 4 == 0;
    if (repeat) {
        ++repeats;
        return rng_() % (jobs.size() - kRepeatLag);
    }
    jobs.push_back(tinyJob(opt_.seed, jobs.size()));
    fetched.emplace_back();
    return jobs.size() - 1;
}

void
Flood::fail(const char *what, std::uint64_t idx)
{
    ++failed;
    if (failed <= 5)
        std::printf("FAILED: job %llu %s\n",
                    static_cast<unsigned long long>(idx), what);
}

vpc::TransportClient::Ack
Flood::submitOne(std::uint64_t idx, Tracer *tr, Tracer::SpanId parent)
{
    std::string text;
    {
        ScopedSpan s(tr, "codec.encode", idx + 1, parent);
        text = vpc::encodeJob(jobs[idx]);
    }
    std::vector<vpc::TransportClient::Ack> acks;
    Clock::time_point t0 = Clock::now();
    bool ok;
    {
        ScopedSpan s(tr, "submit_ack", idx + 1, parent);
        ok = client_.submitBatch({text}, acks);
    }
    submitAckMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    if (!ok || acks.size() != 1)
        return {};
    return acks[0];
}

void
Flood::settle(const Waiter &w, Tracer *tr, bool open_loop)
{
    vpc::RunResult res;
    Clock::time_point t0 = Clock::now();
    bool ok;
    {
        ScopedSpan s(tr, "fetch", w.jobIndex + 1, w.jobSpan);
        ok = fetcher_.fetch(vpc::runDigest(jobs[w.jobIndex]), res);
    }
    Clock::time_point t1 = Clock::now();
    fetchMs.push_back(secondsBetween(t0, t1) * 1e3);
    if (tr && w.jobSpan)
        tr->end(w.jobSpan);
    ++settled;
    if (!ok) {
        fail("has no record after completing", w.jobIndex);
        if (open_loop)
            ++sloMisses;
        return;
    }
    std::string rec = canonicalRecord(res.record);
    std::string &first = fetched[w.jobIndex];
    std::uint64_t cycles = 0;
    if (first.empty()) {
        cycles = res.record.endCycle;
        first = std::move(rec);
    } else if (rec != first) {
        fail("fetched two different records", w.jobIndex);
    }
    if (saturating_)
        satSettles_.emplace_back(secondsBetween(phaseStart_, t1), cycles);
    if (open_loop) {
        double ms = secondsBetween(w.due, t1) * 1e3;
        latencyMs[w.window].push_back(ms);
        if (ms > kSloMs)
            ++sloMisses;
    }
}

bool
Flood::pumpCompletion(std::uint64_t ms, Tracer *tr, bool open_loop)
{
    vpc::TransportClient::Completion c;
    bool got;
    {
        ScopedSpan s(tr, "completion.wait", 0);
        got = client_.nextCompletion(c, ms);
    }
    if (!got)
        return false;
    auto it = inflight_.find(c.digest);
    if (it == inflight_.end())
        return true; // a second push for a digest already settled
    std::vector<Waiter> waiters = std::move(it->second);
    inflight_.erase(it);
    inflightCount_ -= waiters.size();
    Clock::time_point now = Clock::now();
    for (const Waiter &w : waiters) {
        if (tr && w.completeSpan)
            tr->end(w.completeSpan);
        if (c.state != vpc::JobState::Done) {
            fail(c.state == vpc::JobState::Failed ? "was quarantined"
                                                  : "did not complete",
                 w.jobIndex);
            ++settled;
            if (open_loop)
                ++sloMisses;
            if (tr && w.jobSpan)
                tr->end(w.jobSpan);
            continue;
        }
        if (open_loop)
            ackToCompleteMs.push_back(secondsBetween(w.acked, now) * 1e3);
        settle(w, tr, open_loop);
    }
    return true;
}

double
Flood::saturate(double budget, Tracer *tr, double &kcycles_per_s)
{
    saturating_ = true;
    satSettles_.clear();
    Clock::time_point t0 = Clock::now();
    phaseStart_ = t0;
    while (true) {
        bool open = secondsBetween(t0, Clock::now()) < budget;
        if (!open && inflightCount_ == 0)
            break;
        if (open && inflightCount_ + kBatch <= kWindow) {
            std::vector<std::uint64_t> idx;
            std::vector<std::string> texts;
            ScopedSpan batch(tr, "submit_batch", jobs.size() + 1);
            for (std::size_t b = 0; b < kBatch; ++b) {
                idx.push_back(nextJobIndex());
                ScopedSpan s(tr, "codec.encode", idx.back() + 1, batch.id());
                texts.push_back(vpc::encodeJob(jobs[idx.back()]));
            }
            std::vector<vpc::TransportClient::Ack> acks;
            bool ok;
            {
                ScopedSpan s(tr, "submit_ack", idx.front() + 1, batch.id());
                ok = client_.submitBatch(texts, acks);
            }
            attempted += idx.size();
            for (std::size_t b = 0; b < idx.size(); ++b) {
                Waiter w{idx[b], Clock::now(), 0, Clock::now(), 0, 0};
                if (!ok || b >= acks.size() ||
                    acks[b].state == vpc::JobState::Absent ||
                    acks[b].state == vpc::JobState::Failed) {
                    fail("was refused", idx[b]);
                    ++settled;
                } else if (acks[b].state == vpc::JobState::Done) {
                    settle(w, tr, false);
                } else {
                    inflight_[acks[b].digest].push_back(w);
                    ++inflightCount_;
                }
            }
            continue;
        }
        if (!pumpCompletion(kWaitMs, tr, false)) {
            for (const auto &[d, ws] : inflight_)
                for (const Waiter &w : ws)
                    fail("timed out", w.jobIndex);
            settled += inflightCount_;
            inflight_.clear();
            inflightCount_ = 0;
            break;
        }
    }
    saturating_ = false;
    // Per window of about a second of the submission interval; the
    // drain after it is not saturated and is left out.
    std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(budget));
    double len = budget / static_cast<double>(windows);
    std::vector<double> jobs(windows, 0.0), kcycles(windows, 0.0);
    for (const auto &[t, cycles] : satSettles_) {
        auto k = static_cast<std::size_t>(t / len);
        if (k < windows) {
            jobs[k] += 1.0 / len;
            kcycles[k] += static_cast<double>(cycles) / 1e3 / len;
        }
    }
    kcycles_per_s = median(kcycles);
    return median(jobs);
}

void
Flood::openLoop(double budget, Tracer *tr)
{
    auto n = static_cast<std::size_t>(budget * kOpenLoopRate);
    auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kOpenLoopRate));
    Clock::time_point t0 = Clock::now();
    std::size_t i = 0;
    latencyMs.assign(std::max<std::size_t>(1, n / kWindowJobs), {});
    std::vector<double> cpuMarks; //!< CPU seconds at each window start
    while (i < n || inflightCount_ > 0) {
        if (i < n) {
            Clock::time_point due = t0 + period * static_cast<long>(i);
            Clock::time_point now = Clock::now();
            if (now >= due) {
                std::size_t window =
                    std::min(i / kWindowJobs, latencyMs.size() - 1);
                if (cpuMarks.size() == window)
                    cpuMarks.push_back(cpuSeconds());
                lateMs.push_back(secondsBetween(due, now) * 1e3);
                std::uint64_t idx = nextJobIndex();
                Tracer::SpanId js =
                    tr ? tr->begin("job", idx + 1, Tracer::kNoParent,
                                   toNs(due))
                       : 0;
                vpc::TransportClient::Ack ack = submitOne(idx, tr, js);
                ++attempted;
                ++openJobs;
                ++i;
                Waiter w{idx, due, window, Clock::now(), js, 0};
                if (ack.state == vpc::JobState::Done) {
                    settle(w, tr, true);
                } else if (ack.state == vpc::JobState::Pending ||
                           ack.state == vpc::JobState::Running) {
                    if (tr)
                        w.completeSpan = tr->begin("complete", idx + 1, js);
                    inflight_[ack.digest].push_back(w);
                    ++inflightCount_;
                } else {
                    fail("was refused", idx);
                    ++settled;
                    ++sloMisses;
                    if (tr)
                        tr->end(js);
                }
                continue;
            }
            // Serve completions until the job is due.  nextCompletion()
            // truncates its deadline to whole milliseconds and only reads
            // the socket while one is left, so ask for one more than the
            // rounded-up wait: it returns within about a millisecond of
            // the due time, and the overshoot is counted as lateness.
            auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                due - now).count();
            pumpCompletion(static_cast<std::uint64_t>(left / 1000 + 2), tr,
                           true);
            continue;
        }
        if (!pumpCompletion(kWaitMs, tr, true)) {
            for (const auto &[d, ws] : inflight_)
                for (const Waiter &w : ws) {
                    fail("timed out", w.jobIndex);
                    ++sloMisses;
                }
            settled += inflightCount_;
            inflight_.clear();
            inflightCount_ = 0;
        }
    }
    if (!lateMs.empty())
        shortfall = lateMs.back() / (budget * 1e3);
    cpuMarks.push_back(cpuSeconds());
    for (std::size_t w = 0; w + 1 < cpuMarks.size(); ++w) {
        double jobs = static_cast<double>(latencyMs[w].size());
        if (jobs > 0)
            cpuMsPerJob.push_back((cpuMarks[w + 1] - cpuMarks[w]) * 1e3 /
                                  jobs);
    }
}

/** @return digests executed more or less than once, per the journal. */
std::uint64_t
journalViolations(const std::string &dir, const std::vector<vpc::RunJob> &jobs)
{
    vpc::JobSpool spool(dir);
    vpc::JobJournal journal(dir + "/journal.log");
    auto attempts = journal.replayAttempts();
    std::uint64_t bad = spool.list(vpc::JobState::Pending).size() +
                        spool.list(vpc::JobState::Running).size() +
                        spool.list(vpc::JobState::Failed).size();
    for (const vpc::RunJob &job : jobs) {
        std::uint64_t d = vpc::runDigest(job);
        if (spool.state(d) != vpc::JobState::Done || attempts[d] != 1)
            ++bad;
    }
    return bad;
}

/**
 * Compute jobs @p first onwards daemon-less on a few threads and count
 * the fetched records that differ.
 */
std::uint64_t
referenceMismatches(const Flood &f, std::size_t first)
{
    std::atomic<std::size_t> next{first};
    std::atomic<std::uint64_t> bad{0};
    auto work = [&] {
        for (std::size_t j; (j = next.fetch_add(1)) < f.jobs.size();) {
            vpc::RunResult r = vpc::runAndMeasureCached(f.jobs[j], nullptr);
            if (canonicalRecord(r.record) != f.fetched[j])
                bad.fetch_add(1);
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 3; ++t)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    return bad.load();
}

} // namespace

Outcome
runServiceWorkload(const Options &opt)
{
    Outcome out;
    namespace fs = std::filesystem;
    // Relative paths keep the socket path short wherever the checkout is.
    std::string base = opt.workDir + "/svc-" + std::to_string(::getpid());
    fs::remove_all(base);

    // Set-up: daemon start() until the client's handshake completes,
    // timed kSetups times in fresh spools; the last one serves the run.
    std::vector<double> setups;
    std::unique_ptr<LiveDaemon> live;
    std::unique_ptr<vpc::TransportClient> client;
    std::string dir;
    for (int i = 0; i < kSetups; ++i) {
        if (client)
            client->close();
        client.reset();
        live.reset();
        dir = base + "/spool" + std::to_string(i);
        Clock::time_point t0 = Clock::now();
        live = std::make_unique<LiveDaemon>(dir);
        vpc::TransportConfig tc;
        tc.socketPath = vpc::defaultSocketPath(dir);
        client = std::make_unique<vpc::TransportClient>(tc);
        bool connected = live->serving() && client->connect(5'000);
        setups.push_back(secondsBetween(t0, Clock::now()));
        if (!connected) {
            std::printf("FAILED: daemon in %s is not serving its socket\n",
                        dir.c_str());
            out.attempted = out.failed = 1;
            out.correct = false;
            return out;
        }
    }

    Flood flood(opt, dir, *client);
    Tracer tr;
    Tracer *ptr = opt.trace ? &tr : nullptr;
    // The daemon's throughput climbs for its first few seconds of
    // saturation (from ~15% to full rate over ~3 s on a 4-vCPU host),
    // so the run starts with an untimed saturation warm-up; its jobs
    // are checked like all others.
    double satRate = 0, satKcycles = 0, tracedRate = 0, tracedKcycles = 0;
    std::uint64_t from = 0;
    flood.saturate(opt.seconds * 0.15, nullptr, satKcycles);
    if (opt.trace) {
        satRate = flood.saturate(opt.seconds * 0.15, nullptr, satKcycles);
        from = vpc::Profiler::nowNs();
        tracedRate = flood.saturate(opt.seconds * 0.15, ptr, tracedKcycles);
        flood.openLoop(opt.seconds * 0.55, ptr);
    } else {
        satRate = flood.saturate(opt.seconds * 0.25, nullptr, satKcycles);
        flood.openLoop(opt.seconds * 0.6, nullptr);
    }

    std::uint64_t journalBad;
    {
        ScopedSpan s(ptr, "daemon.stop_and_journal_check", 0);
        client->close();
        live->stop();
        journalBad = journalViolations(dir, flood.jobs);
    }
    const vpc::SweepDaemon &d = live->daemon();
    if (journalBad) {
        std::printf("EXACTLY-ONCE VIOLATION: %llu job(s) not settled with "
                    "exactly one journal attempt\n",
                    static_cast<unsigned long long>(journalBad));
        flood.failed += journalBad;
    }

    // Traced runs replay the first jobs through the spanned job runner,
    // which must reproduce the daemon's records, for the per-layer
    // numbers; every other job is checked against runAndMeasureCached.
    std::uint64_t refBad = 0;
    std::vector<SimJobRun> traced;
    std::size_t tracedRefs =
        opt.trace ? std::min<std::size_t>(flood.jobs.size(), kTracedRefs) : 0;
    for (std::size_t j = 0; j < tracedRefs; ++j) {
        SimJobRun r = runSimJob(flood.jobs[j], ptr, j + 1);
        if (canonicalRecord(r.record) != flood.fetched[j])
            ++refBad;
        traced.push_back(std::move(r));
    }
    std::uint64_t to = vpc::Profiler::nowNs();
    refBad += referenceMismatches(flood, tracedRefs);
    if (refBad) {
        std::printf("MISMATCH: %llu record(s) differ from daemon-less "
                    "runAndMeasureCached\n",
                    static_cast<unsigned long long>(refBad));
        flood.failed += refBad;
    }
    std::printf("service_flood: %zu distinct jobs, %llu repeats, all "
                "records checked against daemon-less execution\n",
                flood.jobs.size(),
                static_cast<unsigned long long>(flood.repeats));

    out.attempted = flood.attempted;
    out.failed = flood.failed;
    double lateP99 = quantile(flood.lateMs, 0.99);
    if (flood.shortfall > kMaxShortfall) {
        std::printf("INVALID: the open-loop generator fell behind: its last "
                    "job went out %.0f%% of the phase late, so it offered "
                    "less than the scheduled load\n",
                    100.0 * flood.shortfall);
        out.correct = false;
    }
    double attempted = static_cast<double>(std::max<std::uint64_t>(
        1, out.attempted));
    // Open-loop percentiles per window (each with more than ten samples
    // beyond its p99), reported as the median over the windows.
    std::vector<double> windowP50, windowP90, windowP99;
    std::size_t samples = 0;
    std::printf("service_flood: open-loop window p99s (ms):");
    for (const std::vector<double> &w : flood.latencyMs) {
        samples += w.size();
        if (!w.empty()) {
            windowP50.push_back(quantile(w, 0.50));
            windowP90.push_back(quantile(w, 0.90));
            windowP99.push_back(quantile(w, 0.99));
            std::printf(" %.2f", windowP99.back());
        }
    }
    std::printf("\n");
    out.endToEnd = {
        {"sim_kcycles_per_s", satKcycles, "kcycles/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"failed_frac", static_cast<double>(out.failed) / attempted,
         "fraction"},
        {"svc_jobs_per_s", satRate, "1/s"},
        {"svc_latency_ms_p50", median(windowP50), "ms"},
        {"svc_latency_ms_p90", median(windowP90), "ms"},
        {"svc_latency_ms_p99", median(windowP99), "ms"},
        {"svc_slo_miss_frac",
         static_cast<double>(flood.sloMisses) /
             static_cast<double>(std::max<std::uint64_t>(1, flood.openJobs)),
         "fraction"},
        {"svc_cpu_ms_per_job", median(flood.cpuMsPerJob), "ms"},
    };
    std::printf("service_flood: open loop %llu jobs at %.0f/s, latency "
                "samples %zu, SLO %.0f ms, generator late p99 %.3f ms\n",
                static_cast<unsigned long long>(flood.openJobs),
                kOpenLoopRate, samples, kSloMs, lateP99);

    if (opt.trace) {
        std::vector<Metric> &pl = out.perLayer;
        LayerCounts counts;
        vpc::KernelStats kernel;
        std::uint64_t stepped = 0, coreNs = 0, l2Ns = 0, memNs = 0;
        double buildMs = 0;
        std::vector<std::vector<std::uint64_t>> retired;
        for (const SimJobRun &r : traced) {
            counts.add(r.counts);
            addKernelStats(kernel, r.record.kernel);
            stepped += r.steppedNs;
            coreNs += r.coreNs;
            l2Ns += r.l2Ns;
            memNs += r.memNs;
            buildMs += r.buildSeconds * 1e3;
            retired.push_back(r.retiredPerThread);
        }
        appendSimLayerMetrics(pl, counts, kernel, coreNs, l2Ns, memNs,
                              (static_cast<double>(stepped) -
                               static_cast<double>(coreNs + l2Ns + memNs)) /
                                  1e6);
        pl.push_back({"system.build_ms",
                      buildMs / std::max<double>(1.0, traced.size()), "ms"});
        std::vector<Metric> extra;
        std::vector<vpc::RunJob> replayed(
            flood.jobs.begin(),
            flood.jobs.begin() + static_cast<std::ptrdiff_t>(tracedRefs));
        appendWorkloadReplay(extra, replayed, retired, nullptr);
        std::vector<vpc::RunJob> sample(
            flood.jobs.begin(),
            flood.jobs.begin() +
                static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                    flood.jobs.size(), 256)));
        if (!appendCodecTimes(extra, sample, nullptr)) {
            ++out.failed;
            std::printf("MISMATCH: a job did not survive encode/decode\n");
        }
        pl.insert(pl.end(), extra.begin(), extra.end());

        const vpc::DaemonStats &ds = d.stats();
        const vpc::TransportStats &ts = d.transport()->stats();
        auto n = [](std::uint64_t v) { return static_cast<double>(v); };
        pl.push_back({"system.fetch_ms",
                      quantile(flood.fetchMs, 0.5), "ms"});
        pl.push_back({"service.submit_ack_ms_p50",
                      quantile(flood.submitAckMs, 0.50), "ms"});
        pl.push_back({"service.submit_ack_ms_p99",
                      quantile(flood.submitAckMs, 0.99), "ms"});
        pl.push_back({"service.ack_to_complete_ms_p50",
                      quantile(flood.ackToCompleteMs, 0.50), "ms"});
        pl.push_back({"service.ack_to_complete_ms_p99",
                      quantile(flood.ackToCompleteMs, 0.99), "ms"});
        pl.push_back({"service.dedup_ratio",
                      n(flood.repeats) / attempted, "ratio"});
        pl.push_back({"service.completed", n(ds.completed), "count"});
        pl.push_back({"service.cache_hits", n(ds.cacheHits), "count"});
        pl.push_back({"service.failures", n(ds.failures), "count"});
        pl.push_back({"service.retried", n(ds.retried), "count"});
        pl.push_back({"service.frames_in", n(ts.framesIn.load()), "count"});
        pl.push_back({"service.frames_out", n(ts.framesOut.load()),
                      "count"});
        pl.push_back({"service.completions_pushed",
                      n(ts.completionsPushed.load()), "count"});
        pl.push_back({"service.backpressured", n(ts.backpressured.load()),
                      "count"});
        pl.push_back({"service.generator_late_ms_p99", lateP99, "ms"});
        double overhead = satRate > 0 ? tracedRate / satRate - 1.0 : 0.0;
        pl.push_back({"trace.overhead", overhead, "fraction"});
        std::printf("tracing overhead: svc_jobs_per_s %.1f untraced, %.1f "
                    "traced (%+.1f%%)\n", satRate, tracedRate,
                    100.0 * overhead);
        reportTrace(tr, from, to, opt.workDir + "/trace-service_flood.json",
                    pl);
    }
    live.reset();
    fs::remove_all(base);
    return out;
}

} // namespace perfbench
