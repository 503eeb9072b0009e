/**
 * @file
 * Shared pieces of the performance benchmark program: options, metric
 * output, span tracing, and the simulation job runner that both the
 * simulator workloads and the service workload's reference runs use.
 *
 * The benchmark times calls into the simulator's and the service's public
 * functions from outside.  It never turns on the verify layer, and it
 * never routes a simulation workload through RunCache: a warm cache
 * would measure nothing.
 */

#ifndef VPC_PERFBENCH_BENCH_HH
#define VPC_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/profiler.hh"
#include "system/run_cache.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** The seed the committed references were recorded with. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Command-line options (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 20.0;
    bool trace = false;
    /** Default-seed reference file of the workload ("" = none). */
    std::string reference;
    /** Compare against the reference at any seed (a negative check). */
    bool forceReference = false;
    /** Write the first pass's records here instead of checking. */
    std::string writeReference;
    /** Scratch directory for spools and trace files. */
    std::string workDir = ".bench_build/work";
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when a check failed or the run was invalid. */
    bool correct = true;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
};

/** @return @p t on the Profiler::nowNs() time line. */
inline std::uint64_t
toNs(Clock::time_point t)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch()).count());
}

/** @return seconds between two time points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** @return the nearest-rank @p p quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double p);

/** @return the median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** @return a well-mixed 64-bit value derived from @p seed and @p salt. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** @return process user + system CPU seconds so far. */
double cpuSeconds();

/** @return peak resident set size of the process, MiB. */
double peakRssMb();

/**
 * Host-speed probe: fault in and write a fresh kProbeBytes buffer.  On
 * the 4-vCPU host the machine's memory speed drifts by up to 1.5x over
 * minutes; simulation speed and the probe drift together (their
 * product stayed within about 7% while either alone moved 35%), and
 * the probe runs none of the program's code.  The simulator workloads
 * scale host times by probe time / kNominalProbeSeconds, the probe's
 * typical time there, so a pass on a slowed host counts as it would
 * have at nominal speed.  Raw figures are printed beside the scaled
 * ones.
 */
constexpr std::size_t kProbeBytes = 4u << 20;
constexpr double kNominalProbeSeconds = 2.5e-3;

/** @return seconds the host took for one probe. */
double probeHost();

/**
 * In-memory span recorder.  Spans nest through their parent id; spans
 * of one job carry the job's identifier.  Profiler accounts are added
 * as unplaced children of the span whose time they split.
 */
class Tracer
{
  public:
    using SpanId = std::uint32_t;
    static constexpr SpanId kNoParent = 0;

    struct Span
    {
        const char *name = ""; //!< a string literal
        std::uint64_t job = 0;
        SpanId parent = kNoParent;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        bool placed = true; //!< false: a profiler account's total
    };

    /**
     * Open a span at @p start_ns (0 = now).
     * @return its id (never kNoParent)
     */
    SpanId begin(const char *name, std::uint64_t job,
                 SpanId parent = kNoParent, std::uint64_t start_ns = 0);

    /** Close span @p id now. */
    void end(SpanId id);

    /** Add an unplaced child of @p parent lasting @p ns. */
    void account(const char *name, std::uint64_t job,
                 SpanId parent, std::uint64_t ns);

    /** @return total self time per span name, in ns. */
    std::vector<std::pair<std::string, double>> selfTimes() const;

    /**
     * @return the share of [@p from, @p to] that placed root spans
     *         cover (their union, clipped to the interval)
     */
    double coverage(std::uint64_t from, std::uint64_t to) const;

    /** Write the spans as a Chrome trace-event file. */
    bool write(const std::string &path) const;

    const Span &span(SpanId id) const { return spans_.at(id - 1); }
    std::size_t size() const { return spans_.size(); }

  private:
    /** A deque: growing it never copies the spans already taken. */
    std::deque<Span> spans_;
};

/** RAII span: opens at construction, closes at destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tr, const char *name, std::uint64_t job,
               Tracer::SpanId parent = Tracer::kNoParent)
        : tr_(tr), id_(tr ? tr->begin(name, job, parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tr_)
            tr_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    Tracer::SpanId id() const { return id_; }

  private:
    Tracer *tr_;
    Tracer::SpanId id_;
};

/**
 * Model counters of one simulation job, read through the components'
 * public accessors after the run.  Counts cover the warm-up and the
 * measured interval (the host did both); utilizations cover the
 * measured interval, as IntervalStats does.
 */
struct LayerCounts
{
    std::uint64_t coreRetired = 0, coreLoads = 0, coreStores = 0;
    std::uint64_t coreStoreStalls = 0;
    std::uint64_t l1Hits = 0, l1Misses = 0, l1Blocked = 0;
    std::uint64_t l2Reads = 0, l2Writes = 0, l2Misses = 0;
    std::uint64_t sgbStores = 0, sgbGathered = 0;
    std::uint64_t jobs = 0; //!< jobs summed into this
    double tagUtil = 0, dataUtil = 0, busUtil = 0; //!< summed per job
    /** Arbiter queue delay, [tag, data, bus]: sample sum, count, max. */
    double arbDelaySum[3] = {0, 0, 0};
    std::uint64_t arbDelayCount[3] = {0, 0, 0};
    double arbDelayMax[3] = {0, 0, 0};
    std::uint64_t memReads = 0, memWrites = 0;
    double memLatencySum = 0;
    std::uint64_t memLatencyCount = 0;

    void add(const LayerCounts &o);
};

/** One executed simulation job. */
struct SimJobRun
{
    vpc::RunRecord record;
    LayerCounts counts;
    double buildSeconds = 0; //!< workload construction + CmpSystem
    double runSeconds = 0;   //!< warm-up + measure + snapshots
    /** Instructions each thread retired (warm-up + measure). */
    std::vector<std::uint64_t> retiredPerThread;
    /** Traced runs only: host ns inside CmpSystem::run, and the
     *  profiler accounts that split it. */
    std::uint64_t steppedNs = 0;
    std::uint64_t coreNs = 0, l2Ns = 0, memNs = 0;
};

/**
 * Execute @p job exactly as runAndMeasureCached(job, nullptr) does,
 * with the build and the run timed separately.  With @p tr, records
 * job -> build -> warmup -> snapshot -> measure -> snapshot spans and
 * turns the job's profiler on, filing its accounts under the run
 * spans.
 *
 * @throws std::runtime_error when a workload spec is unknown
 */
SimJobRun runSimJob(const vpc::RunJob &job, Tracer *tr,
                    std::uint64_t job_id);

/** @return every field of @p r that must repeat, as one text line. */
std::string canonicalRecord(const vpc::RunRecord &r);

/** Per-layer metrics derived from summed counts and kernel stats. */
void appendSimLayerMetrics(std::vector<Metric> &out,
                           const LayerCounts &c,
                           const vpc::KernelStats &k,
                           std::uint64_t core_ns, std::uint64_t l2_ns,
                           std::uint64_t mem_ns, double kernel_ms);

/** Add @p from's counters into @p into. */
void addKernelStats(vpc::KernelStats &into, const vpc::KernelStats &from);

/**
 * Replay each job's workload streams through Workload::nextBlock
 * outside the system, as many ops per thread as @p ops[job][thread].
 * Adds workload.ops and workload.ns_per_op.
 */
void appendWorkloadReplay(
    std::vector<Metric> &out, const std::vector<vpc::RunJob> &jobs,
    const std::vector<std::vector<std::uint64_t>> &ops, Tracer *tr);

/**
 * Time encodeJob/decodeJob over @p jobs and check that every job
 * survives the round trip.  Adds service.encode_us and
 * service.decode_us.  @return false on a round-trip mismatch.
 */
bool appendCodecTimes(std::vector<Metric> &out,
                      const std::vector<vpc::RunJob> &jobs, Tracer *tr);

/** Print the self-time table of @p tr and add trace.coverage. */
void reportTrace(const Tracer &tr, std::uint64_t from_ns,
                 std::uint64_t to_ns, const std::string &path,
                 std::vector<Metric> &per_layer);

/** Run one of the simulation workloads (sim_workloads.cc). */
Outcome runSimWorkload(const Options &opt);

/** Run the service workload (service_workload.cc). */
Outcome runServiceWorkload(const Options &opt);

} // namespace perfbench

#endif // VPC_PERFBENCH_BENCH_HH
