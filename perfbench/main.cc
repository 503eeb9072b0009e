/**
 * @file
 * perfbench: the simulator and service performance benchmark program.
 *
 *   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *             [--reference=FILE] [--force-reference]
 *             [--write-reference=FILE] [--work-dir=DIR]
 *
 * Workloads: mix4_memory, mix4_compute (sim_workloads.cc) and
 * service_flood (service_workload.cc).  Prints a host stamp, the
 * checks' verdicts, and one "metric <name> <value> <unit>" line per
 * metric, then "result <correct> <attempted> <failed>".  perfbench/run.py
 * builds this program and turns those lines into the benchmark's JSON.
 * Exits 1 when any check fails.
 */


#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hh"
#include "bench_common.hh"

using namespace perfbench;

namespace
{

/** Per-layer metrics only the service workload exercises. */
const char *const kServiceOnly[][2] = {
    {"system.fetch_ms", "ms"},
    {"service.submit_ack_ms_p50", "ms"},
    {"service.submit_ack_ms_p99", "ms"},
    {"service.ack_to_complete_ms_p50", "ms"},
    {"service.ack_to_complete_ms_p99", "ms"},
    {"service.dedup_ratio", "ratio"},
    {"service.completed", "count"},
    {"service.cache_hits", "count"},
    {"service.failures", "count"},
    {"service.retried", "count"},
    {"service.frames_in", "count"},
    {"service.frames_out", "count"},
    {"service.completions_pushed", "count"},
    {"service.backpressured", "count"},
    {"service.generator_late_ms_p99", "ms"},
};

double
loadAverage()
{
    std::ifstream f("/proc/loadavg");
    double l = -1.0;
    f >> l;
    return l;
}

bool
flag(const char *arg, const char *name, std::string &value)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (flag(argv[i], "--workload", v)) {
            opt.workload = v;
        } else if (flag(argv[i], "--seed", v)) {
            opt.seed = std::stoull(v);
        } else if (flag(argv[i], "--seconds", v)) {
            opt.seconds = std::stod(v);
        } else if (flag(argv[i], "--trace", v)) {
            opt.trace = v == "1";
        } else if (flag(argv[i], "--reference", v)) {
            opt.reference = v;
        } else if (std::strcmp(argv[i], "--force-reference") == 0) {
            opt.forceReference = true;
        } else if (flag(argv[i], "--write-reference", v)) {
            opt.writeReference = v;
        } else if (flag(argv[i], "--work-dir", v)) {
            opt.workDir = v;
        } else {
            std::fprintf(stderr, "perfbench: unknown argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    bool service = opt.workload == "service_flood";
    if (!service && opt.workload != "mix4_memory" &&
        opt.workload != "mix4_compute") {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    if (opt.seconds <= 0) {
        std::fprintf(stderr, "perfbench: --seconds must be positive\n");
        return 2;
    }
    std::filesystem::create_directories(opt.workDir);


    const vpc::BenchReporter::MachineInfo &m =
        vpc::BenchReporter::machineInfo();
    Outcome out;
    try {
        out = service ? runServiceWorkload(opt) : runSimWorkload(opt);
    } catch (const std::exception &e) {
        std::printf("FAILED: %s\n", e.what());
        return 1;
    }
    if (opt.trace && !service) {
        for (const auto &[name, unit] : kServiceOnly)
            out.perLayer.push_back({name, 0.0, unit}); // bypassed layer
    }

    std::printf("host: nproc=%u cpu=\"%s\" loadavg_before=%.2f "
                "loadavg_after=%.2f compiler=\"%s\" simd=%s fuse=%s\n",
                m.nproc, m.cpuModel.c_str(), m.loadavg1m, loadAverage(),
                m.compiler.c_str(), m.simd.c_str(), m.fuse ? "on" : "off");
    for (const Metric &x : out.endToEnd)
        std::printf("metric %s %.17g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    for (const Metric &x : out.perLayer)
        std::printf("metric %s %.17g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    bool correct = out.correct && out.failed == 0 && out.attempted > 0;
    std::printf("result %s %llu %llu\n", correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    return correct ? 0 : 1;
}
