/**
 * @file
 * Tests of fused fixed-latency lanes (DataLane) and the kernel's
 * drain of them: registration order, drain-time pushes between lanes,
 * counted versus uncounted drains, fast-forward across lane entries,
 * and many lanes on one kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/fused_chain.hh"
#include "sim/simulator.hh"

namespace vpc
{
namespace
{

/** One drained record, as a sink saw it. */
struct Drained
{
    Cycle now;  //!< kernel cycle at the drain
    Cycle when; //!< the record's due cycle
    int lane;
    int payload;

    bool
    operator==(const Drained &o) const
    {
        return now == o.now && when == o.when && lane == o.lane &&
               payload == o.payload;
    }
};

/** Shared drain log; onDrain runs after each record is logged. */
struct Log
{
    const Simulator *sim = nullptr;
    std::vector<Drained> drained;
    std::function<void(int lane, Cycle when, int payload)> onDrain;
};

struct LogSink
{
    Log *log;
    int lane;

    void
    operator()(Cycle when, const int &payload) const
    {
        log->drained.push_back({log->sim->now(), when, lane, payload});
        if (log->onDrain)
            log->onDrain(lane, when, payload);
    }
};

using Lane = DataLane<int, LogSink>;

/** @p n lanes logging into @p log, registered with @p sim in order. */
std::vector<std::unique_ptr<Lane>>
makeLanes(Simulator &sim, Log &log, int n, bool counted = false)
{
    log.sim = &sim;
    std::vector<std::unique_ptr<Lane>> lanes;
    for (int i = 0; i < n; ++i) {
        lanes.push_back(
            std::make_unique<Lane>(counted, LogSink{&log, i}));
        sim.addFusedChain(lanes.back().get());
    }
    return lanes;
}

TEST(FusedChain, LaneTracksItsEarliestDue)
{
    Log log;
    Simulator sim;
    log.sim = &sim;
    Lane lane(/*counted=*/true, LogSink{&log, 0});
    EXPECT_TRUE(lane.counted());
    EXPECT_FALSE(Lane(false, LogSink{&log, 0}).counted());
    EXPECT_EQ(lane.due(), kCycleMax);

    lane.push(5, 50);
    lane.push(7, 70);
    EXPECT_EQ(lane.due(), 5u);
    EXPECT_EQ(lane.pending(), 2u);
    EXPECT_EQ(lane.drain(4), 0u);
    EXPECT_EQ(lane.due(), 5u);
    EXPECT_EQ(lane.drain(5), 1u);
    EXPECT_EQ(lane.due(), 7u);
    EXPECT_EQ(lane.drain(100), 1u);
    EXPECT_EQ(lane.due(), kCycleMax);
    EXPECT_EQ(lane.pending(), 0u);
    ASSERT_EQ(log.drained.size(), 2u);
    EXPECT_EQ(log.drained[0].payload, 50);
    EXPECT_EQ(log.drained[1].payload, 70);
}

TEST(FusedChain, LanesDrainInRegistrationOrder)
{
    // Entries due the same cycle drain lane by lane in registration
    // order, whatever order they were pushed in, and in push order
    // within a lane.
    Simulator sim;
    Log log;
    auto lanes = makeLanes(sim, log, 3);
    lanes[2]->push(5, 20);
    lanes[0]->push(5, 0);
    lanes[1]->push(5, 10);
    lanes[0]->push(5, 1);
    lanes[2]->push(9, 21);
    lanes[1]->push(9, 11);
    sim.run(20);
    std::vector<Drained> want = {
        {5, 5, 0, 0}, {5, 5, 0, 1}, {5, 5, 1, 10}, {5, 5, 2, 20},
        {9, 9, 1, 11}, {9, 9, 2, 21},
    };
    EXPECT_EQ(log.drained, want);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(FusedChain, LaterLaneSinkFeedsAnEarlierLane)
{
    // Lane 1's sink pushes into lane 0, which the kernel has already
    // passed this cycle.  The record must still drain at its due
    // cycle, with skipping on and off.
    for (bool skip : {true, false}) {
        Simulator sim;
        sim.setSkipping(skip);
        Log log;
        auto lanes = makeLanes(sim, log, 2);
        log.onDrain = [&](int lane, Cycle when, int payload) {
            if (lane == 1)
                lanes[0]->push(when + 3, payload + 1);
        };
        lanes[1]->push(4, 100);
        lanes[0]->push(6, 7); // lane 0 is not due when lane 1 feeds it
        lanes[1]->push(40, 200);
        sim.run(60);
        std::vector<Drained> want = {
            {4, 4, 1, 100}, {6, 6, 0, 7}, {7, 7, 0, 101},
            {40, 40, 1, 200}, {43, 43, 0, 201},
        };
        EXPECT_EQ(log.drained, want) << "skip=" << skip;
    }
}

TEST(FusedChain, EarlierLaneSinkFeedsALaterLaneAndItself)
{
    Simulator sim;
    Log log;
    auto lanes = makeLanes(sim, log, 2);
    log.onDrain = [&](int lane, Cycle when, int payload) {
        if (lane == 0 && payload < 3) {
            lanes[1]->push(when + 2, payload);
            lanes[0]->push(when + 5, payload + 1);
        }
    };
    lanes[0]->push(10, 0);
    sim.run(40);
    std::vector<Drained> want = {
        {10, 10, 0, 0}, {12, 12, 1, 0}, {15, 15, 0, 1}, {17, 17, 1, 1},
        {20, 20, 0, 2}, {22, 22, 1, 2}, {25, 25, 0, 3},
    };
    EXPECT_EQ(log.drained, want);
}

TEST(FusedChain, CountedDrainsFireEventsAndUncountedDoNot)
{
    Simulator sim;
    Log log;
    log.sim = &sim;
    Lane counted(true, LogSink{&log, 0});
    Lane uncounted(false, LogSink{&log, 1});
    sim.addFusedChain(&uncounted);
    sim.addFusedChain(&counted);
    for (Cycle c : {3, 3, 8})
        counted.push(c, 0);
    for (Cycle c : {3, 4, 5, 8, 8})
        uncounted.push(c, 0);
    sim.events().schedule(6, [] {});
    EXPECT_EQ(sim.pendingEvents(), 1u + 3u + 5u);
    sim.run(5);
    EXPECT_EQ(sim.kernelStats().eventsFired.value(), 2u);
    EXPECT_EQ(sim.pendingEvents(), 1u + 1u + 3u);
    sim.run(10);
    EXPECT_EQ(sim.kernelStats().eventsFired.value(), 3u + 1u);
    EXPECT_EQ(log.drained.size(), 8u);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(FusedChain, FastForwardStopsAtEveryLaneEntry)
{
    // No component ever has work, so the kernel fast-forwards; it
    // must land exactly on each lane entry, including entries pushed
    // before the lane was registered and entries pushed by a drain.
    Simulator sim;
    Log log;
    log.sim = &sim;
    Lane early(false, LogSink{&log, 0});
    Lane late(true, LogSink{&log, 1});
    early.push(1000, 1); // before registration
    sim.addFusedChain(&early);
    sim.addFusedChain(&late);
    late.push(5000, 2);
    log.onDrain = [&](int lane, Cycle when, int payload) {
        if (lane == 1 && payload == 2)
            early.push(when + 2000, 3);
    };
    sim.run(10'000);
    std::vector<Drained> want = {
        {1000, 1000, 0, 1}, {5000, 5000, 1, 2}, {7000, 7000, 0, 3},
    };
    EXPECT_EQ(log.drained, want);
    const KernelStats &k = sim.kernelStats();
    // Cycle 0 plus the three drain cycles.
    EXPECT_EQ(k.cyclesExecuted.value(), 4u);
    EXPECT_EQ(k.cyclesSkipped.value(), 10'000u - 4u);
    EXPECT_EQ(k.eventsFired.value(), 1u); // only `late` counts
}

TEST(FusedChain, FortyLanesOnOneKernel)
{
    // More lanes than any fixed small table: every lane drains at its
    // own due cycles, same-cycle entries in registration order, and a
    // relay that hops from each lane to the one before it (wrapping
    // from lane 0 to lane 39) keeps going around the ring.
    constexpr int kLanes = 40;
    Simulator sim;
    Log log;
    auto lanes = makeLanes(sim, log, kLanes, /*counted=*/true);
    for (int i = kLanes - 1; i >= 0; --i) {
        lanes[i]->push(10 + i % 7, i);
        lanes[i]->push(100, 1000 + i);
    }
    log.onDrain = [&](int lane, Cycle when, int payload) {
        if (payload >= 2000 && payload < 2000 + 2 * kLanes) {
            int prev = (lane + kLanes - 1) % kLanes;
            lanes[prev]->push(when + 2, payload + 1);
        }
    };
    lanes[5]->push(200, 2000);
    sim.run(1000);

    std::vector<Drained> want;
    for (Cycle c = 10; c < 17; ++c) {
        for (int i = 0; i < kLanes; ++i) {
            if (10 + static_cast<Cycle>(i % 7) == c)
                want.push_back({c, c, i, i});
        }
    }
    for (int i = 0; i < kLanes; ++i)
        want.push_back({100, 100, i, 1000 + i});
    for (int hop = 0; hop <= 2 * kLanes; ++hop) {
        Cycle c = 200 + 2 * static_cast<Cycle>(hop);
        int lane = ((5 - hop) % kLanes + kLanes) % kLanes;
        want.push_back({c, c, lane, 2000 + hop});
    }
    EXPECT_EQ(log.drained, want);
    EXPECT_EQ(sim.kernelStats().eventsFired.value(), want.size());
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

} // namespace
} // namespace vpc
