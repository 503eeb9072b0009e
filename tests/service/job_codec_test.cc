/**
 * @file
 * Job codec tests: a spooled job file must round-trip to exactly the
 * job that was submitted — same digest, hence same cached result —
 * and every damaged or inconsistent record must fail decode instead
 * of executing as a different job (or killing the daemon).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "service/job_codec.hh"
#include "sim/format.hh"
#include "system/experiment.hh"
#include "system/options.hh"

namespace vpc
{
namespace
{

RunJob
sampleJob()
{
    RunJob job;
    job.config = makeBaselineConfig(2, ArbiterPolicy::Vpc);
    job.config.shares = {QosShare{0.75, 0.5}, QosShare{0.25, 0.5}};
    job.workloads = {WorkloadKey{"art", threadBaseAddr(0), 1},
                     WorkloadKey{"trace:/tmp/x.trace",
                                 threadBaseAddr(1), 2}};
    job.warmup = 1'000;
    job.measure = 5'000;
    return job;
}

TEST(JobCodec, RoundTripPreservesDigest)
{
    RunJob job = sampleJob();
    std::string text = encodeJob(job);
    RunJob back;
    ASSERT_TRUE(decodeJob(text, back));
    EXPECT_EQ(runDigest(job), runDigest(back));
    EXPECT_EQ(back.workloads.size(), 2u);
    EXPECT_EQ(back.workloads[0].spec, "art");
    EXPECT_EQ(back.workloads[1].spec, "trace:/tmp/x.trace");
    EXPECT_EQ(back.workloads[1].base, threadBaseAddr(1));
    EXPECT_EQ(back.warmup, 1'000u);
    EXPECT_EQ(back.measure, 5'000u);
    EXPECT_EQ(back.config.shares[0].phi, 0.75);
    EXPECT_EQ(back.config.arbiterPolicy, ArbiterPolicy::Vpc);
}

TEST(JobCodec, EncodeIsByteStable)
{
    // encode normalizes through validate(), so encode(decode(x))
    // reproduces x byte for byte — resubmitting a decoded job lands
    // on the same spool file.
    RunJob job = sampleJob();
    std::string text = encodeJob(job);
    RunJob back;
    ASSERT_TRUE(decodeJob(text, back));
    EXPECT_EQ(encodeJob(back), text);
}

TEST(JobCodec, NonDefaultScalarsSurvive)
{
    RunJob job = sampleJob();
    job.config.l2.banks = 4;
    job.config.core.lsuRejectProb = 0.123456789;
    job.config.kernelSkip = false;
    job.config.mem.schedulerPolicy = ArbiterPolicy::RowFcfs;
    job.config.verify.watchdogCycles = 12'345;
    RunJob back;
    ASSERT_TRUE(decodeJob(encodeJob(job), back));
    EXPECT_EQ(back.config.l2.banks, 4u);
    EXPECT_EQ(back.config.core.lsuRejectProb, 0.123456789);
    EXPECT_FALSE(back.config.kernelSkip);
    EXPECT_EQ(back.config.mem.schedulerPolicy, ArbiterPolicy::RowFcfs);
    EXPECT_EQ(back.config.verify.watchdogCycles, 12'345u);
    EXPECT_EQ(runDigest(job), runDigest(back));
}

TEST(JobCodec, RejectsDamage)
{
    std::string text = encodeJob(sampleJob());
    RunJob out;

    // Truncation at any point.
    for (std::size_t cut : {text.size() / 4, text.size() / 2,
                            text.size() - 2}) {
        EXPECT_FALSE(decodeJob(text.substr(0, cut), out));
    }

    // A flipped config value no longer matches the embedded digest.
    std::string tampered = text;
    std::size_t pos = tampered.find("\"cfg\": [");
    ASSERT_NE(pos, std::string::npos);
    pos += 8;
    tampered[pos] = tampered[pos] == '4' ? '8' : '4';
    EXPECT_FALSE(decodeJob(tampered, out));

    // Garbage and empty input.
    EXPECT_FALSE(decodeJob("", out));
    EXPECT_FALSE(decodeJob("not a record", out));
    EXPECT_FALSE(decodeJob("{\"svc_schema\": 999}", out));

    // The previous schema (2): its number, and its extra config
    // scalar (the retired kernel thread count).
    std::string tag = format("\"svc_schema\": {},", kJobCodecSchema);
    pos = text.find(tag);
    ASSERT_NE(pos, std::string::npos);
    std::string old_schema = text;
    old_schema.replace(pos, tag.size(), "\"svc_schema\": 2,");
    EXPECT_FALSE(decodeJob(old_schema, out));
    std::string old_cfg = text;
    old_cfg.insert(old_cfg.find("\"cfg\": [") + 8, "1, ");
    EXPECT_FALSE(decodeJob(old_cfg, out));
}

TEST(JobCodec, RejectsInsaneConfigWithoutDying)
{
    // Craft a record whose fields parse but whose config is
    // internally inconsistent (numProcessors = 0).  decode must
    // return false — not exit the process through validate().
    RunJob job = sampleJob();
    std::string text = encodeJob(job);
    // numProcessors is the first cfg array element ("...\"cfg\": [2, ").
    std::size_t pos = text.find("\"cfg\": [");
    ASSERT_NE(pos, std::string::npos);
    pos += 8;
    ASSERT_EQ(text[pos], '2');
    text[pos] = '0';
    RunJob out;
    EXPECT_FALSE(decodeJob(text, out));
}

/** @return the elements of @p text's "cfg" array, as spelled. */
std::vector<std::string>
cfgElements(const std::string &text, std::size_t &begin,
            std::size_t &end)
{
    begin = text.find("\"cfg\": [") + 8;
    end = text.find(']', begin);
    std::vector<std::string> out;
    std::size_t p = begin;
    while (p < end) {
        std::size_t q = std::min(text.find(',', p), end);
        out.push_back(text.substr(p, q - p));
        p = q + 1;
        while (p < end && text[p] == ' ')
            ++p;
    }
    return out;
}

TEST(JobCodec, RejectsFieldsModelsWouldFatalOn)
{
    // Each bad value used to pass encode and decode and then exit the
    // process from a model constructor when the job ran.  Now the
    // encoder refuses it with a fatal error in the submitting client,
    // and a record carrying it decodes to a clean failure.
    struct Bad
    {
        const char *what;
        unsigned *(*field)(SystemConfig &);
        unsigned other; //!< a legal value, to locate the field
        unsigned bad;
    };
    const Bad cases[] = {
        {"sgb entries",
         [](SystemConfig &c) { return &c.l2.sgbEntriesPerThread; }, 9, 0},
        {"sgb high water",
         [](SystemConfig &c) { return &c.l2.sgbHighWater; }, 5, 9},
        {"l2 tag write accesses",
         [](SystemConfig &c) { return &c.l2.tagWriteAccesses; }, 1, 0},
        {"l2 bus bytes", [](SystemConfig &c) { return &c.l2.busBytes; },
         32, 0},
        {"mem banks per rank",
         [](SystemConfig &c) { return &c.mem.banksPerRank; }, 4, 0},
        {"mem ranks", [](SystemConfig &c) { return &c.mem.ranksPerChannel; },
         1, 0},
        {"prefetch streams",
         [](SystemConfig &c) {
             c.l1.prefetch.enable = true;
             return &c.l1.prefetch.streams;
         },
         3, 0},
        {"lsu ports", [](SystemConfig &c) { return &c.core.lsuPorts; }, 1,
         0},
        {"load queue entries",
         [](SystemConfig &c) { return &c.core.loadQueueEntries; }, 16,
         65},
        {"dispatch width",
         [](SystemConfig &c) { return &c.core.dispatchWidth; }, 4, 0},
        {"rob entries", [](SystemConfig &c) { return &c.core.robEntries; },
         64, 4'000'000'000u},
    };
    for (const Bad &b : cases) {
        RunJob job = sampleJob();
        (void)b.field(job.config); // enables what the field needs
        RunJob other = job;
        *b.field(other.config) = b.other;
        std::string text = encodeJob(job);

        // Locate the field: the one cfg element the two encodings
        // disagree on.
        std::size_t begin = 0, end = 0;
        std::vector<std::string> theirs =
            cfgElements(encodeJob(other), begin, end);
        std::vector<std::string> mine = cfgElements(text, begin, end);
        ASSERT_EQ(mine.size(), theirs.size()) << b.what;
        std::size_t at = mine.size();
        for (std::size_t i = 0; i < mine.size(); ++i) {
            if (mine[i] != theirs[i]) {
                ASSERT_EQ(at, mine.size()) << b.what;
                at = i;
            }
        }
        ASSERT_LT(at, mine.size()) << b.what;
        mine[at] = std::to_string(b.bad);
        std::string cfg;
        for (std::size_t i = 0; i < mine.size(); ++i)
            cfg += (i ? ", " : "") + mine[i];
        std::string bad_text = text;
        bad_text.replace(begin, end - begin, cfg);

        RunJob out;
        EXPECT_FALSE(decodeJob(bad_text, out)) << b.what;

        RunJob bad_job = job;
        *b.field(bad_job.config) = b.bad;
        EXPECT_EXIT(encodeJob(bad_job), testing::ExitedWithCode(1), "")
            << b.what;
    }
}

} // namespace
} // namespace vpc
