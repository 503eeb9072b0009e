/**
 * @file
 * Unit tests for the VPC Capacity Manager (Section 4.2): hand-picked
 * sets through the reference victim rule, and the way quotas a
 * CapacityPolicy::Vpc CacheArray derives from its shares.
 */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "cache/ref_victim.hh"

namespace vpc
{
namespace
{

CacheLine
line(ThreadId owner, std::uint64_t last_use, bool valid = true)
{
    CacheLine l;
    l.valid = valid;
    l.owner = owner;
    l.lastUse = last_use;
    return l;
}

/** The reference VPC victim with quotas floor(beta * set size). */
unsigned
vpcVictim(const std::vector<double> &betas,
          const std::vector<CacheLine> &set, ThreadId requester)
{
    return ref::vpcVictim(set, requester,
                          ref::quotas(betas, set.size()));
}

TEST(VpcCapacityManager, QuotasFromBetas)
{
    CacheArray array(4, 32, 64, CapacityPolicy::Vpc,
                     {0.25, 0.25, 0.25, 0.25});
    for (ThreadId t = 0; t < 4; ++t)
        EXPECT_EQ(array.quota(t), 8u);
    CacheArray uneven(4, 32, 64, CapacityPolicy::Vpc,
                      {0.5, 0.1, 0.1, 0.1});
    EXPECT_EQ(uneven.quota(0), 16u);
    EXPECT_EQ(uneven.quota(1), 3u);
}

TEST(VpcCapacityManager, InvalidLinesUsedFirst)
{
    std::vector<CacheLine> set = {line(0, 1), line(0, 2),
                                  line(1, 3, false), line(1, 4)};
    EXPECT_EQ(vpcVictim({0.5, 0.5}, set, 0), 2u);
}

TEST(VpcCapacityManager, Condition1TakesFromOverQuotaThread)
{
    // Quotas: 1 way each of 4.  Thread 1 holds 3 ways (over quota);
    // thread 0 requests: the victim must be thread 1's LRU line.
    std::vector<CacheLine> set = {line(0, 10), line(1, 5), line(1, 2),
                                  line(1, 7)};
    // lastUse 2 is thread 1's LRU
    EXPECT_EQ(vpcVictim({0.25, 0.25, 0.25, 0.25}, set, 0), 2u);
}

TEST(VpcCapacityManager, Condition1NeverDropsThreadBelowQuota)
{
    // Thread 1 exactly at quota (2 of 4 with beta=.5): its lines are
    // protected; requester (over quota itself) loses its own LRU.
    std::vector<CacheLine> set = {line(0, 1), line(0, 9), line(1, 2),
                                  line(1, 3)};
    // Thread 0 at quota too -> condition 2: requester's own LRU.
    EXPECT_EQ(vpcVictim({0.5, 0.5}, set, 0), 0u);
}

TEST(VpcCapacityManager, Condition2MatchesPrivateCacheReplacement)
{
    std::vector<CacheLine> set = {line(0, 8), line(0, 4), line(1, 1),
                                  line(1, 2)};
    // All at quota; thread 1 requests -> its own LRU (index 2),
    // exactly what a 2-way private cache would replace.
    EXPECT_EQ(vpcVictim({0.5, 0.5}, set, 1), 2u);
}

TEST(VpcCapacityManager, FairnessPicksGloballyLruAmongOverQuota)
{
    // Both threads over a 1-way quota; the globally LRU over-quota
    // line goes, regardless of owner.
    std::vector<CacheLine> set = {line(0, 5), line(0, 9), line(1, 3),
                                  line(1, 8)};
    EXPECT_EQ(vpcVictim({0.25, 0.25, 0.25, 0.25}, set, 2), 2u);
}

TEST(VpcCapacityManager, RequesterOverQuotaReplacesItself)
{
    // Requester holds 3 of 4 ways with quota 2; other thread within
    // quota.  Condition 1 applies to the requester itself.
    std::vector<CacheLine> set = {line(0, 5), line(0, 1), line(0, 9),
                                  line(1, 3)};
    EXPECT_EQ(vpcVictim({0.5, 0.25, 0.25, 0.0}, set, 0), 1u);
}

TEST(VpcCapacityManager, ZeroShareThreadAlwaysOverQuota)
{
    // A thread with beta=0 occupying any way is over quota, so its
    // lines are always reclaimable.
    std::vector<CacheLine> set = {line(0, 1), line(0, 2), line(0, 3),
                                  line(1, 99)};
    EXPECT_EQ(vpcVictim({1.0, 0.0}, set, 0), 3u);
}

TEST(VpcCapacityManager, UnallocatedWaysDistributedByLru)
{
    // betas sum to 0.5 of 4 ways: 2 ways unallocated.  Whoever uses
    // them is over quota and competes by recency.
    std::vector<CacheLine> set = {line(0, 4), line(0, 6), line(1, 2),
                                  line(1, 8)};
    // Both over quota (2 > 1); globally LRU over-quota line is idx 2.
    EXPECT_EQ(vpcVictim({0.25, 0.25}, set, 0), 2u);
}

TEST(VpcCapacityManager, ShareUpdate)
{
    CacheArray array(4, 8, 64, CapacityPolicy::Vpc, {0.5, 0.5});
    EXPECT_EQ(array.quota(0), 4u);
    array.setShare(0, 0.25);
    EXPECT_EQ(array.quota(0), 2u);
}

TEST(VpcCapacityManager, OverAllocationFatal)
{
    EXPECT_EXIT((CacheArray{4, 8, 64, CapacityPolicy::Vpc, {0.7, 0.7}}),
                testing::ExitedWithCode(1), "over-allocated");
}

TEST(LruReplacement, PrefersInvalidThenLru)
{
    std::vector<CacheLine> set = {line(0, 5), line(1, 2, false),
                                  line(0, 1)};
    EXPECT_EQ(ref::lruVictim(set), 1u);
    set[1].valid = true;
    EXPECT_EQ(ref::lruVictim(set), 2u);
}

} // namespace
} // namespace vpc
