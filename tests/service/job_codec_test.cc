/**
 * @file
 * Job codec tests: a spooled job file must round-trip to exactly the
 * job that was submitted — same digest, hence same cached result —
 * and every damaged or inconsistent record must fail decode instead
 * of executing as a different job (or killing the daemon).
 */

#include <gtest/gtest.h>

#include <string>

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

} // namespace
} // namespace vpc
