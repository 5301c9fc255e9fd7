/**
 * @file
 * Unit tests for the simulation kernel: event queue, clock domains,
 * coroutine tasks, register-file pops, stats, latency traces.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/fpga_reg_file.hh"
#include "fpga/async_fifo.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/latency_trace.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "system/system.hh"

namespace duet
{
namespace
{

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, SameTickRunsInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int hits = 0;
    eq.schedule(10, [&] { ++hits; });
    eq.schedule(50, [&] { ++hits; });
    EXPECT_FALSE(eq.run(20));
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), SimPanic);
}

TEST(Clock, PeriodFromFrequency)
{
    EXPECT_EQ(periodFromMHz(1000), 1000u); // 1 GHz -> 1000 ps
    EXPECT_EQ(periodFromMHz(500), 2000u);
    EXPECT_EQ(periodFromMHz(100), 10000u);
    EXPECT_EQ(periodFromMHz(20), 50000u);
    EXPECT_EQ(mhzFromPeriod(1000), 1000u);
    EXPECT_EQ(mhzFromPeriod(50000), 20u);
}

TEST(Clock, EdgeAlignment)
{
    EventQueue eq;
    ClockDomain clk(eq, "sys", 1000); // 1 GHz -> 1000 ps period
    EXPECT_EQ(clk.edgeAtOrAfter(0), 0u);
    EXPECT_EQ(clk.edgeAtOrAfter(1), 1000u);
    EXPECT_EQ(clk.edgeAtOrAfter(999), 1000u);
    EXPECT_EQ(clk.edgeAtOrAfter(1000), 1000u);
    EXPECT_EQ(clk.edgeAfter(1000), 2000u);
}

TEST(Clock, FrequencyChangeRealignsEdges)
{
    EventQueue eq;
    ClockDomain clk(eq, "fpga", 100); // 10 ns period
    eq.schedule(3'500, [&] { clk.setFrequencyMHz(500); });
    eq.run();
    // Origin moved to t=3500; next edges at 3500 + k*2000.
    EXPECT_EQ(clk.period(), 2000u);
    EXPECT_EQ(clk.edgeAtOrAfter(3500), 3500u);
    EXPECT_EQ(clk.edgeAtOrAfter(3501), 5500u);
}

TEST(Clock, ScheduleAtEdge)
{
    EventQueue eq;
    ClockDomain clk(eq, "sys", 100); // 10 ns
    Tick fired = 0;
    eq.schedule(12'345, [&] {
        clk.scheduleAtEdge(2, [&] { fired = eq.now(); });
    });
    eq.run();
    // Next edge at-or-after 12,345 is 20,000; +2 cycles = 40,000.
    EXPECT_EQ(fired, 40'000u);
}

// ---------------------------------------------------------------------
// Register-file pops (FpgaRegFile::PopOp)
// ---------------------------------------------------------------------

/** One standalone slow-domain register file with a single FPGA-bound
 *  FIFO register; every message it sends back (FIFO credits) lands in
 *  @c sent. */
struct RegFileRig
{
    EventQueue eq;
    ClockDomain fpga{eq, "fpga", 100};
    AsyncFifo<CtrlMsg> out{"out", fpga};
    FpgaRegFile rf{fpga, "rf", RegLayout::uniform(1, RegKind::FpgaFifo)};
    std::vector<CtrlMsg> sent;

    RegFileRig()
    {
        rf.bindOut(&out);
        out.setDrain([this](CtrlMsg &&m) { sent.push_back(m); });
    }

    // Parked poppers are frames the event loop will never resume.
    ~RegFileRig() { drainDetachedTasks(); }

    /** The CDC delivers one FPGA-bound FIFO payload. */
    void
    fifoData(std::uint64_t v)
    {
        CtrlMsg m;
        m.kind = CtrlMsgKind::FifoData;
        m.data = v;
        rf.receive(std::move(m));
    }
};

struct Popped
{
    int who;
    std::uint64_t value;
    Tick at;
};

CoTask<void>
popOnce(FpgaRegFile &rf, const EventQueue &eq, int who,
        std::vector<Popped> &log)
{
    std::uint64_t v = co_await rf.pop(0);
    log.push_back({who, v, eq.now()});
}

TEST(RegFilePop, NonEmptyFifoResolvesExactlyOneSlowCycleLater)
{
    RegFileRig rig;
    rig.fifoData(7); // nobody waiting: the value sits in the FIFO
    std::vector<Popped> log;
    const Tick issue = 3 * rig.fpga.period(); // on an eFPGA edge
    rig.eq.schedule(issue, [&] {
        spawn(popOnce(rig.rf, rig.eq, 0, log));
        EXPECT_TRUE(log.empty()); // the dequeue takes a cycle
    });
    rig.eq.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].value, 7u);
    EXPECT_EQ(log[0].at, issue + rig.fpga.period());
    // The dequeue hands the FIFO credit back to the Control Hub.
    ASSERT_EQ(rig.sent.size(), 1u);
    EXPECT_EQ(rig.sent[0].kind, CtrlMsgKind::FifoCredit);
}

TEST(RegFilePop, ParkedPopResumesInsideTheFifoDataTick)
{
    RegFileRig rig;
    std::vector<Popped> log;
    spawn(popOnce(rig.rf, rig.eq, 0, log)); // empty FIFO: parks
    EXPECT_TRUE(log.empty());
    const Tick arrive = 5 * rig.fpga.period() + 1234; // off-edge
    rig.eq.schedule(arrive, [&] {
        rig.fifoData(42);
        // Resumed inline, inside receive(): no extra event.
        EXPECT_EQ(log.size(), 1u);
    });
    rig.eq.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].value, 42u);
    EXPECT_EQ(log[0].at, arrive);
    ASSERT_EQ(rig.sent.size(), 1u);
    EXPECT_EQ(rig.sent[0].kind, CtrlMsgKind::FifoCredit);
}

TEST(RegFilePop, TwoParkedPopsAreServedInFifoOrder)
{
    RegFileRig rig;
    std::vector<Popped> log;
    spawn(popOnce(rig.rf, rig.eq, 0, log));
    spawn(popOnce(rig.rf, rig.eq, 1, log));
    rig.fifoData(10);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].who, 0);
    EXPECT_EQ(log[0].value, 10u);
    rig.fifoData(11);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[1].who, 1);
    EXPECT_EQ(log[1].value, 11u);
}

TEST(RegFilePop, SystemResetDropsParkedPopAndPendingDequeue)
{
    // A pop parked on an empty register and a pop whose one-cycle
    // dequeue event is still pending: reset() must reclaim both frames
    // and drop the event without touching either op (asan checks the
    // "without touching"), and the system must then run normally.
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.numMemHubs = 0;
    System sys(cfg);
    AccelImage img;
    img.name = "pops";
    img.resources = FabricResources{60, 90, 0, 0};
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::FpgaFifo};
    ASSERT_TRUE(sys.installAccel(img));
    FpgaRegFile &rf = *sys.adapter().regs();

    CtrlMsg m;
    m.kind = CtrlMsgKind::FifoData;
    m.reg = 1;
    m.data = 9;
    rf.receive(std::move(m));
    std::vector<Popped> log;
    auto pop = [](FpgaRegFile &r, unsigned reg,
                  std::vector<Popped> &out) -> CoTask<void> {
        std::uint64_t v = co_await r.pop(reg);
        out.push_back({static_cast<int>(reg), v, 0});
    };
    const std::size_t before = sys.eventQueue().pending();
    spawn(pop(rf, 0, log)); // parks
    spawn(pop(rf, 1, log)); // dequeues; completion event pending
    EXPECT_GT(sys.eventQueue().pending(), before);
    EXPECT_TRUE(log.empty());

    sys.reset(cfg);
    EXPECT_EQ(sys.eventQueue().pending(), 0u);

    // The rewound system is fully usable: a fresh echo accelerator
    // answers, and neither dropped pop ever resumes.
    AccelImage echo;
    echo.name = "echo";
    echo.resources = FabricResources{60, 90, 0, 0};
    echo.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo};
    echo.start = [](FpgaContext &ctx) {
        spawn([](FpgaContext c) -> CoTask<void> {
            while (true)
                c.regs.push(1, co_await c.regs.pop(0) + 1);
        }(ctx));
    };
    ASSERT_TRUE(sys.installAccel(echo));
    std::uint64_t got = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(0), 41);
        got = co_await c.mmioRead(sys.regAddr(1));
    });
    sys.run();
    EXPECT_EQ(got, 42u);
    EXPECT_TRUE(log.empty());
}

CoTask<int>
fib(EventQueue &eq, int n)
{
    if (n <= 1)
        co_return n;
    int a = co_await fib(eq, n - 1);
    int b = co_await fib(eq, n - 2);
    co_return a + b;
}

TEST(Task, DeepNestedSubtasks)
{
    EventQueue eq;
    int result = 0;
    spawn([](EventQueue &eq, int &result) -> CoTask<void> {
        result = co_await fib(eq, 12);
    }(eq, result));
    eq.run();
    EXPECT_EQ(result, 144);
}

TEST(Task, ClockDelayAdvancesTime)
{
    EventQueue eq;
    ClockDomain clk(eq, "sys", 1000);
    std::vector<Tick> stamps;
    spawn([](EventQueue &eq, ClockDomain &clk,
             std::vector<Tick> &stamps) -> CoTask<void> {
        stamps.push_back(eq.now());
        co_await ClockDelay(clk, 5);
        stamps.push_back(eq.now());
        co_await ClockDelay(clk, 3);
        stamps.push_back(eq.now());
    }(eq, clk, stamps));
    eq.run();
    ASSERT_EQ(stamps.size(), 3u);
    EXPECT_EQ(stamps[0], 0u);
    EXPECT_EQ(stamps[1], 5000u);
    EXPECT_EQ(stamps[2], 8000u);
}

TEST(Task, TwoThreadsInterleaveDeterministically)
{
    EventQueue eq;
    ClockDomain fast(eq, "fast", 1000); // 1 ns
    ClockDomain slow(eq, "slow", 200);  // 5 ns
    std::vector<std::pair<char, Tick>> log;
    auto thread = [](ClockDomain &clk, char id, int iters,
                     std::vector<std::pair<char, Tick>> &log,
                     EventQueue &eq) -> CoTask<void> {
        for (int i = 0; i < iters; ++i) {
            co_await ClockDelay(clk, 1);
            log.emplace_back(id, eq.now());
        }
    };
    spawn(thread(fast, 'F', 10, log, eq));
    spawn(thread(slow, 'S', 2, log, eq));
    eq.run();
    EXPECT_EQ(log.size(), 12u);
    // Slow thread ticks at 5 ns and 10 ns; fast at 1..10 ns.
    int slow_count = 0;
    for (auto &[id, t] : log)
        if (id == 'S') {
            ++slow_count;
            EXPECT_EQ(t % 5000, 0u);
        }
    EXPECT_EQ(slow_count, 2);
}

TEST(Stats, CounterAndSample)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    Histogram h;
    h.record(1);
    h.record(3);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 3u);
}

TEST(Stats, RegistryLookupAndDump)
{
    StatRegistry reg;
    Counter c;
    c.inc(7);
    reg.registerCounter("l2.hits", &c);
    ASSERT_NE(reg.findCounter("l2.hits"), nullptr);
    EXPECT_EQ(reg.findCounter("l2.hits")->value(), 7u);
    EXPECT_EQ(reg.findCounter("nope"), nullptr);

    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("l2.hits 7"), std::string::npos);
}

TEST(LatencyTrace, AccumulatesPerCategory)
{
    LatencyTrace t;
    t.add(LatencyTrace::Cat::NoC, 10);
    t.add(LatencyTrace::Cat::NoC, 5);
    t.add(LatencyTrace::Cat::Cdc, 20);
    EXPECT_EQ(t.get(LatencyTrace::Cat::NoC), 15u);
    EXPECT_EQ(t.get(LatencyTrace::Cat::Cdc), 20u);
    EXPECT_EQ(t.get(LatencyTrace::Cat::FastCache), 0u);
    EXPECT_EQ(t.total(), 35u);
    t.reset();
    EXPECT_EQ(t.total(), 0u);
}

} // namespace
} // namespace duet
