/**
 * @file
 * Tests of the quiescence-aware kernel: fast-forward across idle
 * spans, active-set tick gating, equivalence with the naive loop, and
 * the kernel work counters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hh"

namespace vpc
{
namespace
{

/**
 * A component that does observable work on an explicit list of cycles
 * and honours the quiescence contract: nextWork() returns the next
 * listed cycle, tick() on any other cycle is a no-op.
 */
struct Sparse : Ticking
{
    Sparse(std::vector<Cycle> due_, std::vector<Cycle> *log_ = nullptr)
        : due(std::move(due_)), log(log_)
    {}

    void
    tick(Cycle now) override
    {
        if (idx < due.size() && due[idx] == now) {
            ++idx;
            ++work;
            if (log)
                log->push_back(now);
        }
    }

    Cycle
    nextWork(Cycle now) const override
    {
        for (std::size_t i = idx; i < due.size(); ++i) {
            if (due[i] >= now)
                return due[i];
        }
        return kCycleMax;
    }

    std::vector<Cycle> due;
    std::vector<Cycle> *log;
    std::size_t idx = 0;
    unsigned work = 0;
};

/** Counts every tick() call; always claims work (naive component). */
struct Eager : Ticking
{
    void tick(Cycle) override { ++ticks; }
    unsigned ticks = 0;
};

TEST(SimulatorSkip, FastForwardsAcrossIdleSpans)
{
    Simulator sim;
    Sparse s({10, 20, 1000});
    sim.addTicking(&s);
    sim.run(2000);
    EXPECT_EQ(sim.now(), 2000u);
    EXPECT_EQ(s.work, 3u);
    const KernelStats &k = sim.kernelStats();
    // Cycle 0 is always inspected (due events must run before any
    // skip decision); beyond that only the three work cycles execute.
    EXPECT_EQ(k.cyclesExecuted.value(), 4u);
    EXPECT_EQ(k.cyclesSkipped.value(), 2000u - 4u);
    EXPECT_EQ(k.ticksExecuted.value(), 3u);
}

TEST(SimulatorSkip, CountersAccountForEveryCycle)
{
    Simulator sim;
    Sparse s({0, 7, 400});
    sim.addTicking(&s);
    sim.run(500);
    const KernelStats &k = sim.kernelStats();
    EXPECT_EQ(k.cyclesExecuted.value() + k.cyclesSkipped.value(), 500u);
}

TEST(SimulatorSkip, NoSkipExecutesEveryCycle)
{
    Simulator sim;
    sim.setSkipping(false);
    Sparse s({10, 20});
    sim.addTicking(&s);
    sim.run(100);
    EXPECT_EQ(s.work, 2u);
    EXPECT_EQ(sim.kernelStats().cyclesExecuted.value(), 100u);
    EXPECT_EQ(sim.kernelStats().cyclesSkipped.value(), 0u);
}

TEST(SimulatorSkip, DefaultNextWorkKeepsNaiveBehaviour)
{
    // A component without a nextWork() override must be ticked every
    // cycle even with skipping enabled.
    Simulator sim;
    Eager e;
    sim.addTicking(&e);
    sim.run(50);
    EXPECT_EQ(e.ticks, 50u);
    EXPECT_EQ(sim.kernelStats().cyclesSkipped.value(), 0u);
}

TEST(SimulatorSkip, DefaultTickIfDueTicksExactlyWhenDue)
{
    // Due on every third cycle; counts every call it receives.
    struct Periodic : Ticking
    {
        void
        tick(Cycle now) override
        {
            ++ticks;
            if (now % 3 != 0)
                ++offCycleTicks;
        }
        Cycle
        nextWork(Cycle now) const override
        {
            ++polls;
            return (now + 2) / 3 * 3;
        }
        unsigned ticks = 0;
        unsigned offCycleTicks = 0;
        mutable unsigned polls = 0;
    };

    Periodic p;
    for (Cycle c = 0; c < 30; ++c)
        EXPECT_EQ(p.tickIfDue(c), c % 3 == 0) << c;
    EXPECT_EQ(p.ticks, 10u);
    EXPECT_EQ(p.offCycleTicks, 0u);
    EXPECT_EQ(p.polls, 30u);

    // Under the kernel, beside an eager component that keeps every
    // cycle executing, the count of ticks is what it was before
    // tickIfDue: one per executed cycle for the eager component, one
    // per due cycle for the periodic one.
    Simulator sim;
    Eager e;
    Periodic q;
    sim.addTicking(&e);
    sim.addTicking(&q);
    sim.run(300);
    EXPECT_EQ(e.ticks, 300u);
    EXPECT_EQ(q.ticks, 100u);
    EXPECT_EQ(q.offCycleTicks, 0u);
    EXPECT_EQ(sim.kernelStats().ticksExecuted.value(), 300u + 100u);
}

TEST(SimulatorSkip, ActiveSetGatesQuiescentComponents)
{
    // With one eager and one sparse component, every cycle executes
    // but the sparse component is only ticked on its work cycles.
    Simulator sim;
    Eager e;
    Sparse s({25});
    sim.addTicking(&e);
    sim.addTicking(&s);
    sim.run(100);
    EXPECT_EQ(e.ticks, 100u);
    EXPECT_EQ(s.work, 1u);
    EXPECT_EQ(sim.kernelStats().ticksExecuted.value(), 100u + 1u);
}

TEST(SimulatorSkip, EventsWakeASleepingMachine)
{
    Simulator sim;
    Sparse s({});  // never has self-generated work
    sim.addTicking(&s);
    Cycle fired_at = kCycleMax;
    sim.events().schedule(700, [&] { fired_at = sim.now(); });
    sim.run(1000);
    EXPECT_EQ(fired_at, 700u);
    // Cycle 700 executed; the spans on both sides were skipped.
    EXPECT_EQ(sim.kernelStats().eventsFired.value(), 1u);
    EXPECT_LE(sim.kernelStats().cyclesExecuted.value(), 2u);
}

TEST(SimulatorSkip, EventActivatedComponentTicksSameCycle)
{
    // An event at cycle N hands work to a quiescent component; the
    // interleaved re-poll must tick it at N, not N+1.
    struct Armed : Ticking
    {
        bool armed = false;
        Cycle ticked_at = kCycleMax;
        void
        tick(Cycle now) override
        {
            if (armed && ticked_at == kCycleMax)
                ticked_at = now;
        }
        Cycle
        nextWork(Cycle now) const override
        {
            return armed ? now : kCycleMax;
        }
    } comp;
    Simulator sim;
    sim.addTicking(&comp);
    sim.events().schedule(300, [&] { comp.armed = true; });
    sim.run(1000);
    EXPECT_EQ(comp.ticked_at, 300u);
}

TEST(SimulatorSkip, EarlierComponentWakesLaterOneSameCycle)
{
    // Producer (registered first) activates the consumer inside its
    // own work cycle; the consumer's hint is re-polled after the
    // producer ticks, so the consumer must run that same cycle.
    struct Consumer : Ticking
    {
        bool armed = false;
        Cycle ticked_at = kCycleMax;
        void
        tick(Cycle now) override
        {
            if (armed && ticked_at == kCycleMax)
                ticked_at = now;
        }
        Cycle
        nextWork(Cycle now) const override
        {
            return armed ? now : kCycleMax;
        }
    };
    struct Producer : Ticking
    {
        Consumer *peer;
        void
        tick(Cycle now) override
        {
            if (now == 40)
                peer->armed = true;
        }
        Cycle
        nextWork(Cycle now) const override
        {
            return now <= 40 ? 40 : kCycleMax;
        }
    };
    Simulator sim;
    Consumer c;
    Producer p;
    p.peer = &c;
    sim.addTicking(&p);
    sim.addTicking(&c);
    sim.run(100);
    EXPECT_EQ(c.ticked_at, 40u);
}

TEST(SimulatorSkip, SkipAndNaiveProduceIdenticalWorkSchedules)
{
    // Run the same little machine twice — skipping on and off — and
    // require identical observable histories and final cycle.
    auto build_and_run = [](bool skip, std::vector<Cycle> &log) {
        Simulator sim;
        sim.setSkipping(skip);
        Sparse a({3, 9, 9, 60, 512}, &log);
        Sparse b({4, 60, 777}, &log);
        sim.addTicking(&a);
        sim.addTicking(&b);
        sim.events().schedule(100, [] {});
        sim.run(1000);
        return sim.now();
    };
    std::vector<Cycle> log_skip, log_naive;
    Cycle end_skip = build_and_run(true, log_skip);
    Cycle end_naive = build_and_run(false, log_naive);
    EXPECT_EQ(end_skip, end_naive);
    EXPECT_EQ(log_skip, log_naive);
}

TEST(SimulatorSkip, AuditorForcesNaiveLoop)
{
    struct CycleAuditor : Auditable
    {
        Cycle last = kCycleMax;
        unsigned audits = 0;
        void
        audit(Cycle now) override
        {
            // Every cycle must be audited exactly once, in order.
            if (audits > 0) {
                EXPECT_EQ(now, last + 1);
            }
            last = now;
            ++audits;
        }
    } aud;
    Simulator sim;
    Sparse s({50});
    sim.addTicking(&s);
    sim.setAuditor(&aud);
    sim.run(200);
    EXPECT_EQ(aud.audits, 200u);
    EXPECT_EQ(sim.kernelStats().cyclesSkipped.value(), 0u);
}

TEST(SimulatorSkip, RunEndsExactlyAtRequestedCycle)
{
    // The fast-forward target must clamp to the end of the run, even
    // when the next work cycle lies beyond it.
    Simulator sim;
    Sparse s({5, 100000});
    sim.addTicking(&s);
    sim.run(137);
    EXPECT_EQ(sim.now(), 137u);
    EXPECT_EQ(s.work, 1u);
}

} // namespace
} // namespace vpc
