/**
 * @file
 * Randomized-trace golden differential for the structure-of-arrays
 * CacheArray (DESIGN.md 5e).
 *
 * CacheArray chooses victims with bitmask arithmetic over
 * incrementally maintained ownership masks and counters.  This test
 * drives it and an array-of-structures reference model (which picks
 * every victim with the plain scans of ref_victim.hh) through the same
 * randomized trace of lookups, fills, dirty-marks and invalidations,
 * asserting at every step:
 *
 *  - identical victim ways (via the setVictimAudit tap, whose
 *    pre-overwrite lines are also replayed through the reference
 *    rule with the array's own quotas and occupancy);
 *  - identical evictions (valid/dirty/address/owner);
 *  - identical per-thread occupancy.
 *
 * Covered policies: global LRU, the VPC capacity manager (including
 * the multi-over-quota fairness refinement) and the flexible
 * whole-cache occupancy manager.
 *
 * Every differential runs twice — once with vec::forceScalar set (the
 * scalar reference bodies in sim/vec.hh) and once on the compiled
 * vector path — so the SIMD tag-match and victim scans are proven
 * decision-identical to the scalar specification at runtime, not just
 * by build configuration.  Odd-way geometries (3, 5, 6 ways: below,
 * just above and 1.5x the 4-lane vector width) cover the masked-tail
 * and padding edge cases of the vectorized scans.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/ref_victim.hh"
#include "sim/random.hh"
#include "sim/vec.hh"

namespace vpc
{
namespace
{

/**
 * Array-of-structures reference cache: plain per-line state, every
 * victim chosen by ref::victim.
 */
class RefArray
{
  public:
    RefArray(std::uint64_t sets, unsigned ways, unsigned line_bytes,
             CapacityPolicy policy, const std::vector<double> &betas,
             unsigned index_shift)
        : sets_(sets), ways_(ways), lineBytes_(line_bytes),
          indexShift_(index_shift), policy_(policy),
          quota_(ref::quotas(betas,
                             policy == CapacityPolicy::GlobalOccupancy
                                 ? static_cast<double>(sets * ways)
                                 : ways)),
          lines_(sets * ways)
    {
    }

    bool
    lookup(Addr addr)
    {
        CacheLine *l = find(addr);
        if (l)
            l->lastUse = ++useClock_;
        return l != nullptr;
    }

    bool contains(Addr addr) { return find(addr) != nullptr; }

    /** Insert; @p victim_out receives the chosen way. */
    Eviction
    insert(Addr addr, ThreadId t, bool dirty, unsigned &victim_out)
    {
        std::uint64_t s = setIndex(addr);
        std::span<const CacheLine> set{&lines_[s * ways_], ways_};
        ref::PerThread occ;
        for (ThreadId j = 0; j < quota_.size(); ++j)
            occ.push_back(occupancy(j));
        unsigned w = ref::victim(policy_, set, t, quota_, occ);
        victim_out = w;
        CacheLine &l = line(s, w);
        Eviction ev;
        if (l.valid) {
            ev.valid = true;
            ev.dirty = l.dirty;
            ev.owner = l.owner;
            Addr low = (addr >> lineShift())
                & ((Addr{1} << indexShift_) - 1);
            ev.lineAddr = (((l.tag * sets_ + s) << indexShift_) | low)
                * lineBytes_;
        }
        l.tag = tagOf(addr);
        l.valid = true;
        l.dirty = dirty;
        l.owner = t;
        l.lastUse = ++useClock_;
        return ev;
    }

    bool
    markDirty(Addr addr)
    {
        CacheLine *l = find(addr);
        if (l) {
            l->dirty = true;
            l->lastUse = ++useClock_;
        }
        return l != nullptr;
    }

    void
    invalidate(Addr addr)
    {
        if (CacheLine *l = find(addr)) {
            l->valid = false;
            l->dirty = false;
        }
    }

    std::uint64_t
    occupancy(ThreadId t) const
    {
        std::uint64_t n = 0;
        for (const CacheLine &l : lines_) {
            if (l.valid && l.owner == t)
                ++n;
        }
        return n;
    }

  private:
    unsigned lineShift() const { return log2i(lineBytes_); }

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr / lineBytes_ >> indexShift_) % sets_;
    }

    Addr
    tagOf(Addr addr) const
    {
        return (addr / lineBytes_ >> indexShift_) / sets_;
    }

    CacheLine &line(std::uint64_t s, unsigned w)
    {
        return lines_[s * ways_ + w];
    }

    /** @return the valid line holding @p addr, or nullptr. */
    CacheLine *
    find(Addr addr)
    {
        std::uint64_t s = setIndex(addr);
        Addr tag = tagOf(addr);
        for (unsigned w = 0; w < ways_; ++w) {
            CacheLine &l = line(s, w);
            if (l.valid && l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    std::uint64_t sets_;
    unsigned ways_;
    unsigned lineBytes_;
    unsigned indexShift_;
    CapacityPolicy policy_;
    ref::PerThread quota_;
    std::vector<CacheLine> lines_;
    std::uint64_t useClock_ = 0;
};

struct Geometry
{
    std::uint64_t sets = 16;
    unsigned ways = 4;
    unsigned lineBytes = 64;
    unsigned indexShift = 0;
};

/**
 * Run @p body under both vec dispatch modes: scalar-forced first,
 * then the compiled vector path.  @p body must build fresh arrays on
 * every call (the mode switch is runtime state, so one binary proves
 * both paths).  Restores the default (vector) mode on exit.
 */
template <class Body>
void
forEachVecMode(Body &&body)
{
    for (bool scalar : {true, false}) {
        vec::forceScalar = scalar;
        SCOPED_TRACE(scalar ? "vec mode: forced scalar"
                            : "vec mode: native");
        body();
        if (::testing::Test::HasFatalFailure())
            break;
    }
    vec::forceScalar = false;
}

/**
 * Build a CacheArray and a RefArray of geometry @p g under
 * @p policy, drive both through @p steps random operations by
 * @p threads threads, and compare every replacement decision and the
 * occupancy state after each one.
 */
void
runDifferential(const Geometry &g, CapacityPolicy policy,
                const std::vector<double> &betas, ThreadId threads,
                std::uint64_t seed, std::uint64_t steps = 20'000)
{
    CacheArray soa(g.sets, g.ways, g.lineBytes, policy, betas,
                   g.indexShift);
    RefArray ref(g.sets, g.ways, g.lineBytes, policy, betas,
                 g.indexShift);

    // Footprint ~4x the cache so sets run full and victims matter.
    // An index-shifted array folds 2^indexShift lines onto one tag,
    // so its footprint grows by that factor.
    const Addr span = (g.sets * g.ways * g.lineBytes * 4)
                      << g.indexShift;

    // The audit tap sees the SoA array's pre-overwrite lines and its
    // chosen way; replaying the lines through the reference rule with
    // the array's *own* quotas and tracked occupancy checks the mask
    // arithmetic on the identical input, independent of the
    // reference model's state.
    ref::PerThread quota, occ;
    if (policy != CapacityPolicy::Lru) {
        for (ThreadId j = 0; j < betas.size(); ++j)
            quota.push_back(soa.quota(j));
    }
    unsigned soa_victim = 0;
    soa.setVictimAudit([&](std::span<const CacheLine> set, ThreadId t,
                           unsigned way) {
        soa_victim = way;
        occ.clear();
        for (ThreadId j = 0; j < quota.size(); ++j)
            occ.push_back(soa.trackedOccupancy(j));
        EXPECT_EQ(ref::victim(policy, set, t, quota, occ), way)
            << "mask victim diverges from the reference rule";
    });

    Rng rng(seed);
    for (std::uint64_t i = 0; i < steps; ++i) {
        ThreadId t = static_cast<ThreadId>(rng.below(threads));
        Addr addr =
            (rng.below(static_cast<std::uint32_t>(span / g.lineBytes))
             * static_cast<Addr>(g.lineBytes))
            + rng.below(g.lineBytes);
        unsigned op = rng.below(10);
        if (op < 6) {
            // Access: fill on miss, like the cache models do.
            bool hit_s = soa.lookup(addr);
            bool hit_r = ref.lookup(addr);
            ASSERT_EQ(hit_s, hit_r) << "hit divergence at step " << i;
            if (!hit_s) {
                bool dirty = rng.below(2) != 0;
                unsigned ref_victim = 0;
                Eviction es = soa.insert(addr, t, dirty);
                Eviction er = ref.insert(addr, t, dirty, ref_victim);
                ASSERT_EQ(soa_victim, ref_victim)
                    << "victim way divergence at step " << i;
                ASSERT_EQ(es.valid, er.valid) << "step " << i;
                ASSERT_EQ(es.dirty, er.dirty) << "step " << i;
                ASSERT_EQ(es.lineAddr, er.lineAddr) << "step " << i;
                ASSERT_EQ(es.owner, er.owner) << "step " << i;
            }
        } else if (op < 8) {
            ASSERT_EQ(soa.markDirty(addr), ref.markDirty(addr))
                << "step " << i;
        } else if (op < 9) {
            soa.invalidate(addr);
            ref.invalidate(addr);
        } else {
            // Untouched probe (no LRU update on either side).
            ASSERT_EQ(soa.contains(addr), ref.contains(addr))
                << "step " << i;
        }
        for (ThreadId j = 0; j < threads; ++j) {
            ASSERT_EQ(soa.occupancy(j), ref.occupancy(j))
                << "occupancy divergence for thread " << j
                << " at step " << i;
            ASSERT_EQ(soa.trackedOccupancy(j), ref.occupancy(j))
                << "tracked occupancy drift for thread " << j
                << " at step " << i;
        }
    }
}

TEST(SoaOracle, GlobalLru)
{
    forEachVecMode([] {
        runDifferential(Geometry{}, CapacityPolicy::Lru, {}, 4,
                        0xA11CE);
    });
}

TEST(SoaOracle, VpcCapacityManager)
{
    // Unequal shares: thread 0 holds half the ways, 3 gets none
    // (always over any quota as soon as it owns a line), so both
    // victim conditions and the fallback paths are exercised.
    forEachVecMode([] {
        runDifferential(Geometry{}, CapacityPolicy::Vpc,
                        {0.5, 0.25, 0.25, 0.0}, 4, 0xB0B);
    });
}

TEST(SoaOracle, VpcFairnessRefinement)
{
    // Small quotas push several threads over-allocation at once, so
    // condition 1 repeatedly selects among multiple threads' lines
    // (the globally-LRU fairness refinement).
    forEachVecMode([] {
        Geometry g;
        g.ways = 8;
        runDifferential(g, CapacityPolicy::Vpc,
                        {0.125, 0.125, 0.125, 0.125}, 4, 0xFA12);
    });
}

TEST(SoaOracle, GlobalOccupancyManager)
{
    forEachVecMode([] {
        runDifferential(Geometry{}, CapacityPolicy::GlobalOccupancy,
                        {0.5, 0.25, 0.125, 0.125}, 4, 0xCAFE);
    });
}

TEST(SoaOracle, BankInterleavedIndexShift)
{
    // A banked array discards interleave bits before set indexing;
    // the eviction-address reconstruction must agree too.
    forEachVecMode([] {
        Geometry g;
        g.indexShift = 2;
        runDifferential(g, CapacityPolicy::Vpc, {0.5, 0.5}, 2, 0x5EED);
    });
}

TEST(SoaOracle, OddWaysLru)
{
    // Associativities off the vector-width grid: 3 (below one
    // 4-lane vector), 5 (one full vector + 1-way tail) and 6.  These
    // hit the masked-tail bits and tail-padding loads of eqMask64 /
    // minIndex64 that power-of-two geometries never exercise.
    for (unsigned ways : {3u, 5u, 6u}) {
        SCOPED_TRACE("ways=" + std::to_string(ways));
        forEachVecMode([ways] {
            Geometry g;
            g.ways = ways;
            runDifferential(g, CapacityPolicy::Lru, {}, 4, 0x0DD + ways);
        });
    }
}

TEST(SoaOracle, OddWaysVpcCapacity)
{
    // The same off-grid geometries under the VPC capacity manager,
    // whose condition-1/2 victim scans run minIndex64 over sparse
    // owner masks (arbitrary subsets of a non-multiple-width set).
    for (unsigned ways : {3u, 5u, 6u}) {
        SCOPED_TRACE("ways=" + std::to_string(ways));
        forEachVecMode([ways] {
            Geometry g;
            g.ways = ways;
            runDifferential(g, CapacityPolicy::Vpc,
                            {0.34, 0.33, 0.33, 0.0}, 4, 0x0DD1 + ways);
        });
    }
}

TEST(SoaOracle, OddWaysGlobalOccupancy)
{
    // Off-grid geometries under whole-cache occupancy quotas: the
    // eligible mask is a union of whole owner masks, so minIndex64
    // runs over arbitrary subsets here too.
    for (unsigned ways : {3u, 5u, 6u}) {
        SCOPED_TRACE("ways=" + std::to_string(ways));
        forEachVecMode([ways] {
            Geometry g;
            g.ways = ways;
            runDifferential(g, CapacityPolicy::GlobalOccupancy,
                            {0.5, 0.25, 0.125, 0.125}, 4,
                            0x0DD2 + ways);
        });
    }
}

} // namespace
} // namespace vpc
