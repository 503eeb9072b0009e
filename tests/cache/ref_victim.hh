/**
 * @file
 * Reference victim selection: the specification CacheArray's packed
 * bitmask fill path must reproduce decision for decision.
 *
 * Plain functions over one set's lines, one per CapacityPolicy, that
 * scan the set the obvious way: no masks, no incremental state.  The
 * hand-picked and property tests pin these against Section 4.2/4.3;
 * the SoA differential (soa_oracle_test.cc) pins CacheArray against
 * them.
 */

#ifndef VPC_TESTS_CACHE_REF_VICTIM_HH
#define VPC_TESTS_CACHE_REF_VICTIM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cache_array.hh"
#include "sim/config.hh"

namespace vpc::ref
{

/** Per-thread quota or occupancy, indexed by thread id. */
using PerThread = std::vector<std::uint64_t>;

/** @return floor(beta * units) per thread (units: ways or lines). */
inline PerThread
quotas(const std::vector<double> &betas, double units)
{
    PerThread q;
    for (double beta : betas)
        q.push_back(static_cast<std::uint64_t>(beta * units + 1e-9));
    return q;
}

/**
 * @return the least recently used way among lines satisfying
 * @p pred (the lowest such way on a stamp tie), or set.size() if none.
 */
template <class Pred>
unsigned
lruWhere(std::span<const CacheLine> set, Pred pred)
{
    auto best = static_cast<unsigned>(set.size());
    for (unsigned w = 0; w < set.size(); ++w) {
        if (pred(set[w]) &&
            (best == set.size() || set[w].lastUse < set[best].lastUse))
            best = w;
    }
    return best;
}

/** @return the first invalid way, or set.size() if the set is full. */
inline unsigned
firstInvalid(std::span<const CacheLine> set)
{
    for (unsigned w = 0; w < set.size(); ++w) {
        if (!set[w].valid)
            return w;
    }
    return static_cast<unsigned>(set.size());
}

/** Unpartitioned global LRU: an invalid way, else the LRU line. */
inline unsigned
lruVictim(std::span<const CacheLine> set)
{
    unsigned inv = firstInvalid(set);
    if (inv < set.size())
        return inv;
    return lruWhere(set, [](const CacheLine &) { return true; });
}

/**
 * The VPC Capacity Manager (Section 4.2) with per-set way quotas:
 * an invalid way; else (condition 1) the LRU line among threads
 * holding more of the set than their quota; else (condition 2) the
 * requester's own LRU line; else global LRU.
 */
inline unsigned
vpcVictim(std::span<const CacheLine> set, ThreadId requester,
          const PerThread &quota)
{
    unsigned inv = firstInvalid(set);
    if (inv < set.size())
        return inv;
    PerThread held(quota.size(), 0);
    for (const CacheLine &line : set) {
        if (line.owner < held.size())
            ++held[line.owner];
    }
    unsigned w = lruWhere(set, [&](const CacheLine &line) {
        return line.owner < held.size() &&
               held[line.owner] > quota[line.owner];
    });
    if (w < set.size())
        return w;
    w = lruWhere(set, [&](const CacheLine &line) {
        return line.owner == requester;
    });
    return w < set.size() ? w : lruVictim(set);
}

/**
 * Whole-cache occupancy partitioning (Section 4.3): an invalid way;
 * else the set-LRU line among threads whose @p occupancy of the
 * entire cache exceeds their line quota; else global LRU.
 */
inline unsigned
globalOccupancyVictim(std::span<const CacheLine> set,
                      const PerThread &quota, const PerThread &occupancy)
{
    unsigned inv = firstInvalid(set);
    if (inv < set.size())
        return inv;
    unsigned w = lruWhere(set, [&](const CacheLine &line) {
        return line.owner < quota.size() &&
               occupancy[line.owner] > quota[line.owner];
    });
    return w < set.size() ? w : lruVictim(set);
}

/** Dispatch on @p policy (@p occupancy is read by GlobalOccupancy). */
inline unsigned
victim(CapacityPolicy policy, std::span<const CacheLine> set,
       ThreadId requester, const PerThread &quota,
       const PerThread &occupancy)
{
    switch (policy) {
      case CapacityPolicy::Vpc:
        return vpcVictim(set, requester, quota);
      case CapacityPolicy::GlobalOccupancy:
        return globalOccupancyVictim(set, quota, occupancy);
      case CapacityPolicy::Lru:
        break;
    }
    return lruVictim(set);
}

} // namespace vpc::ref

#endif // VPC_TESTS_CACHE_REF_VICTIM_HH
