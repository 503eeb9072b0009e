/**
 * @file
 * The simulator workloads: mix4_memory and mix4_compute.
 *
 * Both run the Table 1 4-core machine (2 L2 banks) one job at a time,
 * each job on a freshly built CmpSystem, so modelled caches start
 * empty and no RunCache is involved.  A pass is every thread rotation
 * of the workload's four benchmarks under the FCFS and the VPC
 * arbiters; a run repeats whole passes until its time is used up.
 *
 *  - mix4_memory runs memory-bound stand-ins (64-128 MiB working
 *    sets): the L2 read/miss path and memory at saturation.
 *  - mix4_compute runs L1-resident stand-ins (128-512 KiB working
 *    sets): core, L1 and workload generation, with the L2 write path
 *    (write-through stores, store gathering) beside the reads.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hh"
#include "system/experiment.hh"
#include "system/options.hh"

namespace perfbench
{

namespace
{

constexpr vpc::Cycle kWarmup = 50'000;
constexpr vpc::Cycle kMeasure = 150'000;

/** @return one pass's jobs; thread seeds derive from @p seed. */
std::vector<vpc::RunJob>
makePass(const std::string &workload, std::uint64_t seed)
{
    static const std::map<std::string, std::vector<std::string>> kMixes = {
        {"mix4_memory", {"mcf", "lucas", "equake", "swim"}},
        {"mix4_compute", {"sixtrack", "bzip2", "mgrid", "ammp"}},
    };
    const std::vector<std::string> &mix = kMixes.at(workload);
    std::vector<vpc::RunJob> jobs;
    for (unsigned rot = 0; rot < mix.size(); ++rot) {
        for (vpc::ArbiterPolicy policy :
             {vpc::ArbiterPolicy::Fcfs, vpc::ArbiterPolicy::Vpc}) {
            vpc::RunJob job;
            job.config = vpc::makeBaselineConfig(4, policy);
            for (unsigned t = 0; t < 4; ++t) {
                const std::string &spec = mix[(t + rot) % mix.size()];
                // Both arbiters see the same streams in a rotation.
                job.workloads.push_back(vpc::WorkloadKey{
                    spec, vpc::threadBaseAddr(t),
                    deriveSeed(seed, rot * 16 + t)});
            }
            job.warmup = kWarmup;
            job.measure = kMeasure;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/**
 * Everything one loop over whole passes measured.  Host times are kept
 * per pass and reported as medians over the passes, so a burst of host
 * noise moves one sample, not the result.
 */
struct Loop
{
    std::size_t jobs = 0;
    std::size_t passes = 0;
    double wallSeconds = 0;
    // Per pass, raw host figures and the host-speed factor (probe time
    // over nominal; above 1 on a slowed host).
    std::vector<double> passKcyclesPerSec; //!< cycles / run time
    std::vector<double> passJobsPerSec;    //!< jobs / pass wall time
    std::vector<double> passCpuMsPerJob;
    std::vector<double> passSetup;   //!< summed build seconds
    std::vector<double> passMaxJobMs; //!< slowest job of the pass
    std::vector<double> passFactor;
    std::vector<double> jobMs;       //!< build + run, every job
    std::vector<double> jobFactor;   //!< its pass's factor
    std::vector<std::string> first;  //!< canonical record per slot
    std::uint64_t mismatches = 0;    //!< repeats that differed
    // Traced loops only:
    LayerCounts counts;
    vpc::KernelStats kernel;
    std::uint64_t steppedNs = 0, coreNs = 0, l2Ns = 0, memNs = 0;
    std::vector<std::vector<std::uint64_t>> retired; //!< first pass
};

/** Run whole passes of @p jobs until @p budget seconds have passed. */
Loop
runLoop(const std::vector<vpc::RunJob> &jobs, double budget, Tracer *tr)
{
    Loop l;
    l.first.resize(jobs.size());
    Clock::time_point t0 = Clock::now();
    do {
        double setup = 0, run = 0, maxMs = 0, probe = 0;
        std::uint64_t cycles = 0;
        double cpu0 = cpuSeconds();
        Clock::time_point p0 = Clock::now();
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            probe += probeHost();
            SimJobRun r = runSimJob(jobs[j], tr, l.jobs + 1);
            ++l.jobs;
            setup += r.buildSeconds;
            run += r.runSeconds;
            cycles += r.record.endCycle;
            double ms = (r.buildSeconds + r.runSeconds) * 1e3;
            l.jobMs.push_back(ms);
            maxMs = std::max(maxMs, ms);
            std::string rec = canonicalRecord(r.record);
            if (l.passes == 0) {
                l.first[j] = std::move(rec);
                l.retired.push_back(r.retiredPerThread);
            } else if (rec != l.first[j]) {
                ++l.mismatches;
                std::printf("MISMATCH: job %zu of pass %zu differs from "
                            "its first run\n", j, l.passes);
            }
            if (tr) {
                l.counts.add(r.counts);
                addKernelStats(l.kernel, r.record.kernel);
                l.steppedNs += r.steppedNs;
                l.coreNs += r.coreNs;
                l.l2Ns += r.l2Ns;
                l.memNs += r.memNs;
            }
        }
        // The probes are single-threaded CPU work: take them out of
        // the pass's wall and CPU time.
        double wall = secondsBetween(p0, Clock::now()) - probe;
        double n = static_cast<double>(jobs.size());
        double factor = probe / n / kNominalProbeSeconds;
        l.passKcyclesPerSec.push_back(static_cast<double>(cycles) / run / 1e3);
        l.passJobsPerSec.push_back(n / wall);
        l.passCpuMsPerJob.push_back((cpuSeconds() - cpu0 - probe) * 1e3 / n);
        l.passSetup.push_back(setup);
        l.passMaxJobMs.push_back(maxMs);
        l.passFactor.push_back(factor);
        l.jobFactor.insert(l.jobFactor.end(), jobs.size(), factor);
        ++l.passes;
    } while (secondsBetween(t0, Clock::now()) < budget);
    l.wallSeconds = secondsBetween(t0, Clock::now());
    return l;
}

/**
 * @return @p v[i] scaled to nominal host speed: multiplied by
 *         @p factor[i] for rates (@p rate), divided for times
 */
std::vector<double>
atNominal(const std::vector<double> &v, const std::vector<double> &factor,
          bool rate)
{
    std::vector<double> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = rate ? v[i] * factor[i] : v[i] / factor[i];
    return out;
}

/** @return reference lines ("<slot> <record>"), or empty on error. */
std::vector<std::string>
readReference(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        lines.push_back(line);
    }
    return lines;
}

} // namespace

Outcome
runSimWorkload(const Options &opt)
{
    Outcome out;
    // Give every job's system fresh pages, as a new process would get.
    // By default glibc's mmap threshold adapts to what was freed and
    // its heap top is trimmed only when it happens to be free, so
    // whether a job reuses the previous job's memory flips from process
    // to process.  That made a pass's build time bimodal (5 vs 25 ms)
    // and locked each process into one placement of the simulator's
    // arrays, which moved simulation speed by up to 30% between runs of
    // one seed.  A fixed threshold below the arrays' sizes maps each
    // array afresh, so a run averages over placements.
    mallopt(M_MMAP_THRESHOLD, 128 << 10);
    std::vector<vpc::RunJob> jobs = makePass(opt.workload, opt.seed);
    std::printf("%s: %zu jobs per pass (4 rotations x FCFS/VPC), "
                "%llu + %llu cycles each, seed %llu\n",
                opt.workload.c_str(), jobs.size(),
                static_cast<unsigned long long>(kWarmup),
                static_cast<unsigned long long>(kMeasure),
                static_cast<unsigned long long>(opt.seed));

    double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    Loop timed = runLoop(jobs, budget, nullptr);
    out.attempted = timed.jobs;
    out.failed = timed.mismatches;

    // Output check 1: the default seed must reproduce the committed
    // reference (or write it, when asked).
    if (!opt.writeReference.empty()) {
        std::ofstream f(opt.writeReference);
        f << "# " << opt.workload << " reference records, seed "
          << opt.seed << ": slot endCycle IntervalStats KernelStats\n";
        for (std::size_t j = 0; j < jobs.size(); ++j)
            f << j << " " << timed.first[j] << "\n";
        if (!f)
            throw std::runtime_error("cannot write " + opt.writeReference);
        std::printf("wrote %zu reference records to %s\n", jobs.size(),
                    opt.writeReference.c_str());
    } else if (opt.seed == kDefaultSeed || opt.forceReference) {
        std::vector<std::string> ref = readReference(opt.reference);
        std::uint64_t bad = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            std::string want = j < ref.size() ? ref[j] : "";
            if (want != std::to_string(j) + " " + timed.first[j]) {
                ++bad;
                std::printf("MISMATCH: job %zu differs from the reference "
                            "in %s\n", j, opt.reference.c_str());
            }
        }
        // A mismatch in a pass slot fails every run of that slot.
        std::uint64_t slotRuns = bad * timed.passes;
        out.failed += slotRuns;
        std::printf("reference check (%s): %zu/%zu jobs match\n",
                    opt.reference.c_str(),
                    static_cast<std::size_t>(jobs.size() - bad),
                    jobs.size());
    } else {
        std::printf("reference check: skipped (seed %llu; references "
                    "are for seed %llu)\n",
                    static_cast<unsigned long long>(opt.seed),
                    static_cast<unsigned long long>(kDefaultSeed));
    }

    double failedFrac = timed.jobs ? static_cast<double>(out.failed) /
                                         static_cast<double>(timed.jobs)
                                   : 1.0;
    const std::vector<double> &f = timed.passFactor;
    std::vector<double> jobMs = atNominal(timed.jobMs, timed.jobFactor, false);
    out.endToEnd = {
        {"sim_kcycles_per_s",
         median(atNominal(timed.passKcyclesPerSec, f, true)), "kcycles/s"},
        {"setup_s", median(atNominal(timed.passSetup, f, false)), "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
        {"failed_frac", failedFrac, "fraction"},
        // A job here is one serial simulation: its latency is its build
        // plus run time, and "p99" is the slowest job of a pass (8 jobs),
        // as a median over the passes.
        {"svc_jobs_per_s", median(atNominal(timed.passJobsPerSec, f, true)),
         "1/s"},
        {"svc_latency_ms_p50", median(jobMs), "ms"},
        {"svc_latency_ms_p90", quantile(jobMs, 0.90), "ms"},
        {"svc_latency_ms_p99", median(atNominal(timed.passMaxJobMs, f, false)),
         "ms"},
        {"svc_cpu_ms_per_job",
         median(atNominal(timed.passCpuMsPerJob, f, false)), "ms"},
    };
    std::printf("host speed: probe %.3f ms per job, %.3f nominal (factor "
                "%.3f); raw host figures: sim_kcycles_per_s %.1f, setup_s "
                "%.5f, svc_jobs_per_s %.3f, svc_latency_ms_p50 %.2f, "
                "svc_cpu_ms_per_job %.2f\n",
                median(f) * kNominalProbeSeconds * 1e3,
                kNominalProbeSeconds * 1e3, median(f),
                median(timed.passKcyclesPerSec), median(timed.passSetup),
                median(timed.passJobsPerSec), median(timed.jobMs),
                median(timed.passCpuMsPerJob));
    std::printf("%s: %zu jobs in %zu passes, %.2f s wall, latency "
                "samples %zu\n", opt.workload.c_str(), timed.jobs,
                timed.passes, timed.wallSeconds, timed.jobMs.size());

    if (!opt.trace)
        return out;

    // Traced run: the same pass sequence with spans and the profiler
    // on.  It must reproduce the untraced records bit for bit.
    Tracer tr;
    std::uint64_t from = vpc::Profiler::nowNs();
    Loop traced = runLoop(jobs, budget, &tr);
    std::uint64_t diff = traced.mismatches;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (traced.first[j] != timed.first[j]) {
            ++diff;
            std::printf("MISMATCH: traced job %zu differs from the "
                        "untraced run\n", j);
        }
    }
    out.attempted += traced.jobs;
    out.failed += diff;
    appendWorkloadReplay(out.perLayer, jobs, traced.retired, &tr);
    std::vector<vpc::RunJob> codecJobs;
    for (int rep = 0; rep < 32; ++rep)
        codecJobs.insert(codecJobs.end(), jobs.begin(), jobs.end());
    if (!appendCodecTimes(out.perLayer, codecJobs, &tr)) {
        ++out.failed;
        std::printf("MISMATCH: a job did not survive encode/decode\n");
    }
    std::uint64_t to = vpc::Profiler::nowNs();

    double kernelMs = (static_cast<double>(traced.steppedNs) -
                       static_cast<double>(traced.coreNs + traced.l2Ns +
                                           traced.memNs)) / 1e6;
    appendSimLayerMetrics(out.perLayer, traced.counts, traced.kernel,
                          traced.coreNs, traced.l2Ns, traced.memNs,
                          kernelMs);
    double buildMs = 0;
    for (double s : traced.passSetup)
        buildMs += s * 1e3;
    out.perLayer.push_back({"system.build_ms", buildMs / traced.jobs, "ms"});
    double untracedRate =
        median(atNominal(timed.passKcyclesPerSec, timed.passFactor, true));
    double tracedRate =
        median(atNominal(traced.passKcyclesPerSec, traced.passFactor, true));
    double overhead = tracedRate / untracedRate - 1.0;
    out.perLayer.push_back({"trace.overhead", overhead, "fraction"});
    std::printf("tracing overhead: sim_kcycles_per_s %.1f untraced, %.1f "
                "traced (%+.1f%%)\n", untracedRate, tracedRate,
                100.0 * overhead);
    reportTrace(tr, from, to,
                opt.workDir + "/trace-" + opt.workload + ".json",
                out.perLayer);
    return out;
}

} // namespace perfbench
