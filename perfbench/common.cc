/**
 * @file
 * Shared benchmark machinery (see bench.hh).
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>

#include "bench.hh"
#include "service/job_codec.hh"
#include "system/cmp_system.hh"
#include "system/options.hh"

namespace perfbench
{

using vpc::Profiler;

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least p of the sample
    // at or below it.
    double rank = std::ceil(p * static_cast<double>(v.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 over the pair, so nearby seeds and salts diverge.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt +
                      0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
probeHost()
{
    // mmap, not the allocator: the probe must fault in fresh pages
    // whatever the process's malloc policy.
    Clock::time_point t0 = Clock::now();
    void *buf = ::mmap(nullptr, kProbeBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (buf == MAP_FAILED)
        throw std::runtime_error("perfbench: probe mmap failed");
    volatile char *p = static_cast<char *>(buf);
    for (std::size_t off = 0; off < kProbeBytes; off += 4096)
        p[off] = static_cast<char>(off);
    ::munmap(buf, kProbeBytes);
    return secondsBetween(t0, Clock::now());
}

// ---------------------------------------------------------------- Tracer

Tracer::SpanId
Tracer::begin(const char *name, std::uint64_t job, SpanId parent,
              std::uint64_t start_ns)
{
    std::uint64_t start = start_ns ? start_ns : Profiler::nowNs();
    spans_.push_back(Span{name, job, parent, start, start, true});
    return static_cast<SpanId>(spans_.size());
}

void
Tracer::end(SpanId id)
{
    spans_.at(id - 1).endNs = Profiler::nowNs();
}

void
Tracer::account(const char *name, std::uint64_t job,
                SpanId parent, std::uint64_t ns)
{
    std::uint64_t start = spans_.at(parent - 1).startNs;
    spans_.push_back(Span{name, job, parent, start, start + ns, false});
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimes() const
{
    // A span's children run inside it one after another (one thread),
    // so the part they cover is the sum of their durations.
    std::vector<double> childNs(spans_.size() + 1, 0.0);
    for (const Span &s : spans_)
        if (s.parent != kNoParent)
            childNs[s.parent] += static_cast<double>(s.endNs - s.startNs);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double own = static_cast<double>(s.endNs - s.startNs) -
                     childNs[i + 1];
        self[s.name] += std::max(0.0, own);
    }
    std::vector<std::pair<std::string, double>> out(self.begin(),
                                                    self.end());
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return out;
}

double
Tracer::coverage(std::uint64_t from, std::uint64_t to) const
{
    if (to <= from)
        return 0.0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const Span &s : spans_) {
        if (s.parent != kNoParent || !s.placed)
            continue;
        std::uint64_t a = std::max(s.startNs, from);
        std::uint64_t b = std::min(s.endNs, to);
        if (a < b)
            iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, reach = from;
    for (const auto &[a, b] : iv) {
        std::uint64_t lo = std::max(a, reach);
        if (b > lo)
            covered += b - lo;
        reach = std::max(reach, b);
    }
    return static_cast<double>(covered) / static_cast<double>(to - from);
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %u, "
                     "\"job\": %llu, \"placed\": %s}}\n",
                     i == 0 ? "" : ",", s.name,
                     static_cast<unsigned long long>(s.job),
                     static_cast<double>(s.startNs - t0) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     i + 1, s.parent,
                     static_cast<unsigned long long>(s.job),
                     s.placed ? "true" : "false");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

void
reportTrace(const Tracer &tr, std::uint64_t from_ns, std::uint64_t to_ns,
            const std::string &path, std::vector<Metric> &per_layer)
{
    double wallNs = static_cast<double>(to_ns - from_ns);
    std::fprintf(stderr, "trace: self time by span (traced wall %.1f ms)\n",
                 wallNs / 1e6);
    for (const auto &[name, ns] : tr.selfTimes())
        std::fprintf(stderr, "trace:   %-22s %10.2f ms  %5.1f%%\n",
                     name.c_str(), ns / 1e6, 100.0 * ns / wallNs);
    double cov = tr.coverage(from_ns, to_ns);
    std::fprintf(stderr, "trace: spans cover %.2f%% of traced wall time; "
                         "%zu spans written to %s\n",
                 100.0 * cov, tr.size(),
                 tr.write(path) ? path.c_str() : "(write failed)");
    per_layer.push_back({"trace.coverage", cov, "fraction"});
}

// ------------------------------------------------------------ sim jobs

void
LayerCounts::add(const LayerCounts &o)
{
    coreRetired += o.coreRetired;
    coreLoads += o.coreLoads;
    coreStores += o.coreStores;
    coreStoreStalls += o.coreStoreStalls;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    l1Blocked += o.l1Blocked;
    l2Reads += o.l2Reads;
    l2Writes += o.l2Writes;
    l2Misses += o.l2Misses;
    sgbStores += o.sgbStores;
    sgbGathered += o.sgbGathered;
    jobs += o.jobs;
    tagUtil += o.tagUtil;
    dataUtil += o.dataUtil;
    busUtil += o.busUtil;
    for (int r = 0; r < 3; ++r) {
        arbDelaySum[r] += o.arbDelaySum[r];
        arbDelayCount[r] += o.arbDelayCount[r];
        arbDelayMax[r] = std::max(arbDelayMax[r], o.arbDelayMax[r]);
    }
    memReads += o.memReads;
    memWrites += o.memWrites;
    memLatencySum += o.memLatencySum;
    memLatencyCount += o.memLatencyCount;
}

void
addKernelStats(vpc::KernelStats &into, const vpc::KernelStats &from)
{
    into.cyclesExecuted.inc(from.cyclesExecuted.value());
    into.cyclesSkipped.inc(from.cyclesSkipped.value());
    into.ticksExecuted.inc(from.ticksExecuted.value());
    into.eventsFired.inc(from.eventsFired.value());
}

namespace
{

LayerCounts
readCounts(vpc::CmpSystem &sys, const vpc::IntervalStats &st)
{
    LayerCounts c;
    unsigned n = sys.config().numProcessors;
    for (vpc::ThreadId t = 0; t < n; ++t) {
        vpc::Cpu &cpu = sys.cpu(t);
        c.coreRetired += cpu.instrsRetired();
        c.coreLoads += cpu.loadsRetired();
        c.coreStores += cpu.storesRetired();
        c.coreStoreStalls += cpu.storeStallCycles();
        vpc::L1DCache &l1 = sys.l1(t);
        c.l1Hits += l1.hitCount();
        c.l1Misses += l1.missCount();
        c.l1Blocked += l1.blockedCount();
        c.l2Reads += sys.l2().readCount(t);
        c.l2Writes += sys.l2().writeCount(t);
        c.l2Misses += sys.l2().missCount(t);
        c.sgbStores += sys.l2().storesTotal(t);
        c.sgbGathered += sys.l2().storesGathered(t);
        const vpc::SampleStat &lat = sys.mem().readLatency(t);
        c.memReads += sys.mem().readCount(t);
        c.memWrites += sys.mem().writeCount(t);
        c.memLatencySum += lat.mean() * static_cast<double>(lat.count());
        c.memLatencyCount += lat.count();
    }
    for (unsigned b = 0; b < sys.l2().numBanks(); ++b) {
        vpc::L2Bank &bank = sys.l2().bank(b);
        const vpc::SharedResource *res[3] = {
            &bank.tagArray(), &bank.dataArray(), &bank.dataBus()};
        for (int r = 0; r < 3; ++r) {
            const vpc::SampleStat &d = res[r]->arbiter().queueDelay();
            c.arbDelaySum[r] += d.mean() * static_cast<double>(d.count());
            c.arbDelayCount[r] += d.count();
            c.arbDelayMax[r] = std::max(c.arbDelayMax[r], d.max());
        }
    }
    c.jobs = 1;
    c.tagUtil = st.tagUtil;
    c.dataUtil = st.dataUtil;
    c.busUtil = st.busUtil;
    return c;
}

/**
 * File the profiler accounts of @p p, less those of @p base when given,
 * as unplaced children of span @p parent, and add them to @p out.
 */
void
fileAccounts(Tracer &tr, std::uint64_t job_id, Tracer::SpanId parent,
             const Profiler &p, const Profiler *base, SimJobRun &out)
{
    std::uint64_t ns[4] = {0, 0, 0, 0}; // cpu, l2, mem, unattributed
    auto fold = [&ns](const Profiler &prof, bool subtract) {
        for (const Profiler::Entry &e : prof.entries()) {
            std::uint64_t v = e.tickNs + e.eventNs;
            int slot = e.name.rfind("cpu", 0) == 0 ? 0
                : e.name == "l2"                  ? 1
                : e.name == "mem"                 ? 2
                                                  : 3;
            ns[slot] = subtract ? ns[slot] - v : ns[slot] + v;
        }
    };
    fold(p, false);
    if (base)
        fold(*base, true);
    static const char *const kNames[4] = {"cpu", "l2", "mem",
                                          "unattributed"};
    for (int i = 0; i < 4; ++i)
        tr.account(kNames[i], job_id, parent, ns[i]);
    out.coreNs += ns[0];
    out.l2Ns += ns[1];
    out.memNs += ns[2];
}

} // namespace

SimJobRun
runSimJob(const vpc::RunJob &job, Tracer *tr, std::uint64_t job_id)
{
    SimJobRun out;
    ScopedSpan jobSpan(tr, "job", job_id);
    vpc::SystemConfig cfg = job.config;
    cfg.profile = tr != nullptr;

    Clock::time_point t0 = Clock::now();
    std::unique_ptr<vpc::CmpSystem> sys;
    {
        ScopedSpan s(tr, "build", job_id, jobSpan.id());
        std::vector<std::unique_ptr<vpc::Workload>> wl;
        for (const vpc::WorkloadKey &k : job.workloads) {
            std::string err;
            auto w = vpc::makeWorkloadFromSpec(k.spec, k.base, k.seed, err);
            if (!w)
                throw std::runtime_error("perfbench job: " + err);
            wl.push_back(std::move(w));
        }
        sys = std::make_unique<vpc::CmpSystem>(cfg, std::move(wl));
    }
    Clock::time_point t1 = Clock::now();

    // The sequence of CmpSystem::runAndMeasure, with each step spanned.
    Tracer::SpanId warmId = tr ? tr->begin("warmup", job_id, jobSpan.id())
                               : 0;
    sys->run(job.warmup);
    if (tr)
        tr->end(warmId);
    vpc::SystemSnapshot before;
    Profiler warmProfile;
    {
        ScopedSpan s(tr, "snapshot", job_id, jobSpan.id());
        before = sys->snapshot();
        if (tr) {
            warmProfile = sys->mergedProfile();
            fileAccounts(*tr, job_id, warmId, warmProfile, nullptr, out);
        }
    }
    Tracer::SpanId measId = tr ? tr->begin("measure", job_id, jobSpan.id())
                               : 0;
    sys->run(job.measure);
    if (tr)
        tr->end(measId);
    {
        ScopedSpan s(tr, "snapshot", job_id, jobSpan.id());
        out.record.stats = vpc::CmpSystem::interval(before, sys->snapshot());
    }
    out.record.endCycle = sys->now();
    out.record.kernel = sys->kernelStats();
    Clock::time_point t2 = Clock::now();
    for (vpc::ThreadId t = 0; t < cfg.numProcessors; ++t)
        out.retiredPerThread.push_back(sys->cpu(t).instrsRetired());
    out.buildSeconds = secondsBetween(t0, t1);
    out.runSeconds = secondsBetween(t1, t2);
    out.counts = readCounts(*sys, out.record.stats);

    if (tr) {
        Profiler measured = sys->mergedProfile();
        fileAccounts(*tr, job_id, measId, measured, &warmProfile, out);
        for (Tracer::SpanId id : {warmId, measId}) {
            const Tracer::Span &s = tr->span(id);
            out.steppedNs += s.endNs - s.startNs;
        }
    }
    return out;
}

std::string
canonicalRecord(const vpc::RunRecord &r)
{
    std::string s;
    auto u = [&s](std::uint64_t v) {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%llx ",
                      static_cast<unsigned long long>(v));
        s += buf;
    };
    auto d = [&u](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u(bits);
    };
    auto vec = [&u](const std::vector<std::uint64_t> &v) {
        u(v.size());
        for (std::uint64_t x : v)
            u(x);
    };
    const vpc::IntervalStats &st = r.stats;
    u(r.endCycle);
    u(st.cycles);
    u(st.ipc.size());
    for (double x : st.ipc)
        d(x);
    vec(st.instrs);
    vec(st.l2Reads);
    vec(st.l2Writes);
    vec(st.l2Misses);
    vec(st.sgbStores);
    vec(st.sgbGathered);
    d(st.tagUtil);
    d(st.dataUtil);
    d(st.busUtil);
    const vpc::KernelStats &k = r.kernel;
    u(k.cyclesExecuted.value());
    u(k.cyclesSkipped.value());
    u(k.ticksExecuted.value());
    u(k.eventsFired.value());
    u(k.wheelCascades.value());
    if (!s.empty())
        s.pop_back();
    return s;
}

void
appendSimLayerMetrics(std::vector<Metric> &out, const LayerCounts &c,
                      const vpc::KernelStats &k, std::uint64_t core_ns,
                      std::uint64_t l2_ns, std::uint64_t mem_ns,
                      double kernel_ms)
{
    auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    double executed = n(k.cyclesExecuted.value());
    out.push_back({"sim.events_fired", n(k.eventsFired.value()), "count"});
    out.push_back({"sim.ticks_executed", n(k.ticksExecuted.value()),
                   "count"});
    out.push_back({"sim.cycles_executed", executed, "count"});
    out.push_back({"sim.cycles_skipped", n(k.cyclesSkipped.value()),
                   "count"});
    out.push_back({"sim.events_per_cycle",
                   ratio(n(k.eventsFired.value()), executed), "ratio"});
    out.push_back({"sim.kernel_ms", kernel_ms, "ms"});
    out.push_back({"core.retired", n(c.coreRetired), "count"});
    out.push_back({"core.loads", n(c.coreLoads), "count"});
    out.push_back({"core.stores", n(c.coreStores), "count"});
    out.push_back({"core.store_stalls", n(c.coreStoreStalls), "count"});
    out.push_back({"core.ms", n(core_ns) / 1e6, "ms"});
    out.push_back({"cache.l1.hits", n(c.l1Hits), "count"});
    out.push_back({"cache.l1.misses", n(c.l1Misses), "count"});
    out.push_back({"cache.l1.hit_ratio",
                   ratio(n(c.l1Hits), n(c.l1Hits + c.l1Misses)), "ratio"});
    out.push_back({"cache.l1.blocked", n(c.l1Blocked), "count"});
    out.push_back({"cache.l2.reads", n(c.l2Reads), "count"});
    out.push_back({"cache.l2.writes", n(c.l2Writes), "count"});
    out.push_back({"cache.l2.misses", n(c.l2Misses), "count"});
    out.push_back({"cache.l2.miss_ratio",
                   ratio(n(c.l2Misses), n(c.l2Reads + c.l2Writes)),
                   "ratio"});
    out.push_back({"cache.l2.sgb_gather_ratio",
                   ratio(n(c.sgbGathered), n(c.sgbStores)), "ratio"});
    out.push_back({"cache.l2.ms", n(l2_ns) / 1e6, "ms"});
    const char *res[3] = {"tag", "data", "bus"};
    const double util[3] = {c.tagUtil, c.dataUtil, c.busUtil};
    for (int r = 0; r < 3; ++r)
        out.push_back({std::string("cache.l2.") + res[r] + "_util",
                       ratio(util[r], n(c.jobs)), "fraction"});
    for (int r = 0; r < 3; ++r) {
        std::string p = std::string("arbiter.") + res[r];
        out.push_back({p + ".queue_delay_mean",
                       ratio(c.arbDelaySum[r], n(c.arbDelayCount[r])),
                       "cycles"});
        out.push_back({p + ".queue_delay_max", c.arbDelayMax[r],
                       "cycles"});
    }
    out.push_back({"mem.reads", n(c.memReads), "count"});
    out.push_back({"mem.writes", n(c.memWrites), "count"});
    out.push_back({"mem.read_latency_mean",
                   ratio(c.memLatencySum, n(c.memLatencyCount)),
                   "cycles"});
    out.push_back({"mem.ms", n(mem_ns) / 1e6, "ms"});
}

void
appendWorkloadReplay(std::vector<Metric> &out,
                     const std::vector<vpc::RunJob> &jobs,
                     const std::vector<std::vector<std::uint64_t>> &ops,
                     Tracer *tr)
{
    constexpr std::size_t kBlock = 128; // the core's fetch block
    std::vector<vpc::MicroOp> buf(kBlock);
    std::uint64_t total = 0, sink = 0;
    double ns = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        ScopedSpan span(tr, "workload.replay", j + 1);
        for (std::size_t t = 0; t < jobs[j].workloads.size(); ++t) {
            const vpc::WorkloadKey &k = jobs[j].workloads[t];
            std::string err;
            auto w = vpc::makeWorkloadFromSpec(k.spec, k.base, k.seed, err);
            if (!w)
                throw std::runtime_error("perfbench replay: " + err);
            std::uint64_t blocks = (ops.at(j).at(t) + kBlock - 1) / kBlock;
            std::uint64_t t0 = Profiler::nowNs();
            for (std::uint64_t b = 0; b < blocks; ++b) {
                w->nextBlock(std::span<vpc::MicroOp>(buf));
                sink += buf[kBlock - 1].addr;
            }
            ns += static_cast<double>(Profiler::nowNs() - t0);
            total += blocks * kBlock;
        }
    }
    // Consume the generated addresses so the replay loop is kept.
    if (sink == 1)
        std::fprintf(stderr, "replay: degenerate stream\n");
    out.push_back({"workload.ops", static_cast<double>(total), "count"});
    out.push_back({"workload.ns_per_op",
                   total == 0 ? 0.0 : ns / static_cast<double>(total),
                   "ns"});
}

bool
appendCodecTimes(std::vector<Metric> &out,
                 const std::vector<vpc::RunJob> &jobs, Tracer *tr)
{
    bool ok = true;
    double encNs = 0, decNs = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::string text;
        {
            ScopedSpan s(tr, "codec.encode", j + 1);
            std::uint64_t t0 = Profiler::nowNs();
            text = vpc::encodeJob(jobs[j]);
            encNs += static_cast<double>(Profiler::nowNs() - t0);
        }
        vpc::RunJob back;
        {
            ScopedSpan s(tr, "codec.decode", j + 1);
            std::uint64_t t0 = Profiler::nowNs();
            ok = vpc::decodeJob(text, back) && ok;
            decNs += static_cast<double>(Profiler::nowNs() - t0);
        }
        ok = ok && vpc::runDigest(back) == vpc::runDigest(jobs[j]);
    }
    double n = std::max<double>(1.0, static_cast<double>(jobs.size()));
    out.push_back({"service.encode_us", encNs / n / 1e3, "us"});
    out.push_back({"service.decode_us", decNs / n / 1e3, "us"});
    return ok;
}

} // namespace perfbench
