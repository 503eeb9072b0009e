/**
 * @file
 * Workload determinism and block-fetch equivalence.
 *
 * The run cache's soundness rests on two stream-level contracts:
 *
 *  - determinism: building (or cloning) a workload from the same
 *    (spec, base, seed) replays a bit-identical op stream, so a
 *    content key fully identifies the simulation input;
 *  - block equivalence: nextBlock(out) returns exactly the ops that
 *    out.size() next() calls would have, so the processor's block
 *    buffer cannot perturb any model statistic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "sim/format.hh"
#include "system/options.hh"
#include "workload/spec2000.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"
#include "temp_path.hh"

namespace vpc
{
namespace
{

/** Every concrete family reachable from a spec string. */
const std::vector<std::string> kSpecs = {"art", "mcf", "loads",
                                         "stores", "idle"};

std::unique_ptr<Workload>
make(const std::string &spec, Addr base, std::uint64_t seed)
{
    std::string err;
    auto wl = makeWorkloadFromSpec(spec, base, seed, err);
    EXPECT_NE(wl, nullptr) << err;
    return wl;
}

std::vector<MicroOp>
drainNext(Workload &wl, std::size_t n)
{
    std::vector<MicroOp> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(wl.next());
    return out;
}

/** Drain @p n ops via nextBlock with deliberately uneven chunks. */
std::vector<MicroOp>
drainBlocks(Workload &wl, std::size_t n)
{
    static const std::size_t chunks[] = {1, 3, 128, 64, 7, 256, 2};
    std::vector<MicroOp> out(n);
    std::size_t pos = 0, c = 0;
    while (pos < n) {
        std::size_t len = std::min(chunks[c++ % std::size(chunks)],
                                   n - pos);
        wl.nextBlock(std::span<MicroOp>(out.data() + pos, len));
        pos += len;
    }
    return out;
}

void
expectSameStream(const std::vector<MicroOp> &a,
                 const std::vector<MicroOp> &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].kind == b[i].kind && a[i].addr == b[i].addr &&
                    a[i].dependsOnPrevLoad == b[i].dependsOnPrevLoad)
            << what << ": streams diverge at op " << i;
    }
}

constexpr std::size_t kOps = 10'000;

TEST(WorkloadBlock, NextBlockMatchesRepeatedNext)
{
    for (const std::string &spec : kSpecs) {
        auto serial = make(spec, 5ull << 40, 7);
        auto blocked = make(spec, 5ull << 40, 7);
        expectSameStream(drainNext(*serial, kOps),
                         drainBlocks(*blocked, kOps), spec);
    }
}

TEST(WorkloadBlock, SameKeyReplaysBitIdentically)
{
    for (const std::string &spec : kSpecs) {
        auto a = make(spec, 3ull << 40, 11);
        auto b = make(spec, 3ull << 40, 11);
        expectSameStream(drainNext(*a, kOps), drainNext(*b, kOps),
                         spec);
    }
}

TEST(WorkloadBlock, CloneRestartsAndReseeds)
{
    for (const std::string &spec : kSpecs) {
        auto original = make(spec, 2ull << 40, 5);
        drainNext(*original, 1234); // advance; clone must not care
        auto cloned = original->clone(9);
        auto fresh = make(spec, 2ull << 40,
                          spec == "art" || spec == "mcf" ? 9 : 5);
        expectSameStream(drainNext(*cloned, kOps),
                         drainNext(*fresh, kOps), spec);
    }
}

TEST(WorkloadBlock, SpecRebuildMatchesTargetClone)
{
    // targetIpc() clones the shared-run workload with seed 1; the run
    // cache rebuilds it from (spec, base, 1) instead.  Equal streams
    // here are what make the keyed target IPC exact.
    for (const std::string &spec : kSpecs) {
        auto shared = make(spec, 1ull << 40, 42);
        auto cloned = shared->clone(1);
        auto rebuilt = make(spec, 1ull << 40, 1);
        expectSameStream(drainNext(*cloned, kOps),
                         drainNext(*rebuilt, kOps), spec);
    }
}

TEST(WorkloadBlock, TraceReplayAndBlocksAcrossWrap)
{
    std::string path = testTempPath("vpc_block_trace");
    {
        TraceRecorder rec(makeSpec2000("art", 0, 3), path);
        drainNext(rec, 3'000);
    } // destructor flushes
    TraceWorkload serial(path);
    TraceWorkload blocked(path);
    ASSERT_GT(serial.length(), 0u);
    // Drain past the end so the loop-back seam is block-covered too.
    std::size_t n = serial.length() * 2 + 137;
    expectSameStream(drainNext(serial, n), drainBlocks(blocked, n),
                     "trace");
    std::remove(path.c_str());
}

TEST(WorkloadBlock, DefaultNextBlockLoopsNext)
{
    // A minimal workload that only implements next() must still honor
    // the block contract through the base-class default.
    struct Counting : Workload
    {
        Addr n = 0;
        MicroOp
        next() override
        {
            return MicroOp{MicroOp::Kind::Load, n++ * 64, false};
        }
        std::string name() const override { return "counting"; }
        std::unique_ptr<Workload>
        clone(std::uint64_t) const override
        {
            return std::make_unique<Counting>();
        }
    };
    Counting serial, blocked;
    expectSameStream(drainNext(serial, 1'000),
                     drainBlocks(blocked, 1'000), "counting");
}

} // namespace
} // namespace vpc
