/**
 * @file
 * The paper-claim ledger: the quantitative claims of the paper's
 * evaluation (Sec. V: Figs. 9-12) and the design ablations, measured on
 * the model, one ledger row each.
 *
 * A row names its figure, a label, the paper's value or claim, and the
 * model's value pinned exactly: the simulator is deterministic in
 * ticks, so a timing change anywhere in the model fails a pin here and
 * the ledger has to be re-pinned on purpose. Times are pinned to the
 * tick (1 ps); bandwidths and ratios to more decimals than a one-cycle
 * change moves them. Every row also asserts the direction the paper
 * claims — shadow beats normal registers, the proxy cache beats the slow
 * cache, Duet beats the FPSoC — and those assertions fail the test.
 * Where the paper gives a magnitude and the model lands more than 10%
 * outside it, the row is marked "deviates" instead of failing: the
 * ledger records how far the reproduction is from the paper rather than
 * hiding it.
 *
 * `ctest -R Claims -V` prints the ledger; it is the figure reproduction.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <set>

#include "sim/sweep.hh"
#include "system/system.hh"

namespace duet
{
namespace
{

// ---------------------------------------------------------------------
// The ledger.
// ---------------------------------------------------------------------

/** The paper's side of a row. */
struct Paper
{
    const char *claim;   ///< the paper's value or claimed direction
    double lo = 0.0;     ///< the paper's magnitude range, when it gives
    double hi = 0.0;     ///< one (hi == 0: direction only)
};

/**
 * Print one ledger line for @p label and check it: the model value must
 * equal @p pinned at @p digits decimals, and @p holds (the direction the
 * paper claims) must be true. A magnitude more than 10% outside the
 * paper's range is reported as "deviates", not failed.
 */
void
claim(const char *fig, const std::string &label, const Paper &paper,
      double model, double pinned, int digits, bool holds)
{
    const bool deviates =
        paper.hi > 0.0 &&
        (model < 0.9 * paper.lo || model > 1.1 * paper.hi);
    std::printf("%-9s %-44s %12.*f | paper: %-38s | %s%s\n", fig,
                label.c_str(), digits, model, paper.claim,
                holds ? "holds" : "DIRECTION FAILS",
                deviates ? ", deviates" : "");
    const double scale = std::pow(10.0, digits);
    EXPECT_EQ(std::llround(model * scale), std::llround(pinned * scale))
        << fig << " " << label << ": model moved off its pin";
    EXPECT_TRUE(holds) << fig << " " << label << ": " << paper.claim;
}

double
ns(Tick t)
{
    return static_cast<double>(t) / kTicksPerNs;
}

double
us(Tick t)
{
    return static_cast<double>(t) / kTicksPerUs;
}

/** MB/s for @p bytes moved in @p t ticks (ps). */
double
mbps(double bytes, Tick t)
{
    return bytes / (static_cast<double>(t) * 1e-12) / 1e6;
}

/** Percent latency cut of @p fast relative to @p slow. */
double
cut(double fast, double slow)
{
    return 100.0 * (1.0 - fast / slow);
}

// ---------------------------------------------------------------------
// The Sec. V-C communication probe (Figs. 9-11 and the ablations).
// ---------------------------------------------------------------------

constexpr Addr kBufA = 0x10000;
constexpr Addr kBufB = 0x20000;

/** P1M1 system with a given mode and app-style knobs. */
SystemConfig
commConfig(SystemMode mode, unsigned cores = 1)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.numMemHubs = 1;
    cfg.mode = mode;
    cfg.ctrl.timeoutCycles = 0;
    cfg.fabric.clbColumns = 20;
    cfg.fabric.clbRows = 20;
    cfg.fabric.bramTiles = 12;
    return cfg;
}

/** One measured transaction: its latency and the per-category
 *  attribution (Fig. 9's NoC / fast / slow / CDC breakdown). */
struct Latency
{
    Tick total = 0;
    LatencyTrace trace;
};

/**
 * The measurement accelerator. Registers: 0 FPGA-bound cmd FIFO,
 * 1 CPU-bound data FIFO, 2/3 plain (src/dst buffer bases), 4 normal
 * (doorbell), 5 plain (quad-word count).
 *
 * Commands on reg 0 (high byte = opcode):
 *  - 0x01: echo the low 32 bits back on reg 1
 *  - 0x02: store `count` QW to the dst buffer, drain, push done on reg 1
 *          (the CPU-pull producer)
 *  - 0x03: load the line at the operand address into @p pull, push
 *          done on reg 1 (the eFPGA pull)
 * A read of normal reg 4 pulls `count` QW from src at line granularity,
 * stores them to dst, then acknowledges (the Fig. 10 shared-memory round
 * trip).
 */
AccelImage
commImage(Latency *pull = nullptr)
{
    AccelImage img;
    img.name = "comm";
    img.resources = FabricResources{400, 600, 64 * 1024, 0};
    img.fmaxMHz = 100;
    img.regLayout.kinds = {RegKind::FpgaFifo, RegKind::CpuFifo,
                           RegKind::Plain,    RegKind::Plain,
                           RegKind::Normal,   RegKind::Plain};
    SoftCacheParams scp;
    scp.enabled = false;
    scp.mshrs = 8;
    scp.writeBufferEntries = 8;
    img.softCaches = {scp};
    img.start = [pull](FpgaContext &ctx) {
        spawn([](FpgaContext ctx, Latency *pull) -> CoTask<void> {
            EventQueue &eq = ctx.clk.eventQueue();
            while (true) {
                std::uint64_t cmd = co_await ctx.regs.pop(0);
                const unsigned op = static_cast<unsigned>(cmd >> 56);
                const std::uint64_t arg = cmd & 0x00ffffffffffffffull;
                if (op == 0x01) {
                    ctx.regs.push(1, arg);
                } else if (op == 0x02) {
                    Addr dst = ctx.regs.readPlain(3);
                    std::uint64_t n = ctx.regs.readPlain(5);
                    for (std::uint64_t i = 0; i < n; ++i)
                        co_await ctx.mem[0]->store(dst + 8 * i, i + 1, 8);
                    co_await ctx.mem[0]->drainWrites();
                    ctx.regs.push(1, 1);
                } else if (op == 0x03) {
                    const Tick t0 = eq.now();
                    co_await ctx.mem[0]->load(arg, 8, &pull->trace);
                    pull->total = eq.now() - t0;
                    ctx.regs.push(1, 1);
                }
            }
        }(ctx, pull));
        ctx.regs.setReadHandler(4, [ctx] {
            return [](FpgaContext ctx) -> CoTask<std::uint64_t> {
                Addr src = ctx.regs.readPlain(2);
                Addr dst = ctx.regs.readPlain(3);
                std::uint64_t n = ctx.regs.readPlain(5);
                // Pull one 16 B line per load (paper Sec. V-C).
                std::deque<SoftCache::LoadOp> loads;
                for (std::uint64_t i = 0; i < n / 2; ++i)
                    loads.emplace_back(*ctx.mem[0],
                                       src + kLineBytes * i, 8);
                std::vector<std::uint64_t> data;
                for (auto &f : loads)
                    data.push_back(co_await f);
                // The L2 store port takes at most 8 B: two stores per
                // line (the paper's bottleneck).
                for (std::uint64_t i = 0; i < n; ++i) {
                    ctx.spad.write((8 * i) % ctx.spad.size(),
                                   data[i / 2]);
                    co_await ctx.mem[0]->store(dst + 8 * i,
                                               data[i / 2], 8);
                }
                co_await ctx.mem[0]->drainWrites();
                co_return n;
            }(ctx);
        });
    };
    return img;
}

/** The probe with its data registers downgraded to normal registers. */
AccelImage
normalRegImage()
{
    AccelImage img = commImage();
    img.regLayout.kinds[0] = RegKind::Normal;
    img.regLayout.kinds[1] = RegKind::Normal;
    return img;
}

// ---------------------------------------------------------------------
// Fig. 9: round-trip latency and its NoC / fast / slow / CDC breakdown.
// ---------------------------------------------------------------------

enum Mech
{
    ShadowReg,
    NormalReg,
    CpuPullProxy,
    CpuPullSlow,
    FpgaPullProxy,
    FpgaPullSlow,
    kMechs
};

const char *const kMechNames[kMechs] = {
    "Shadow Reg.",       "Normal Reg.",       "CPU Pull w/ Proxy",
    "CPU Pull w/ Slow",  "eFPGA Pull w/ Proxy", "eFPGA Pull w/ Slow",
};

/** One Fig. 9 transaction (single processor, single transaction; pulls
 *  miss locally and hit remote in M state). */
Latency
measureLatency(Mech mech, std::uint64_t mhz)
{
    const bool duet = mech != CpuPullSlow && mech != FpgaPullSlow;
    System sys(commConfig(duet ? SystemMode::Duet : SystemMode::Fpsoc));
    Latency s;
    sys.installAccel(mech == NormalReg ? normalRegImage() : commImage(&s));
    sys.fpgaClock().setFrequencyMHz(mhz);
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        EventQueue &eq = sys.eventQueue();
        if (mech == ShadowReg || mech == NormalReg) {
            co_await c.compute(10);
            Tick t0 = eq.now();
            if (mech == ShadowReg) {
                co_await c.mmioWrite(sys.regAddr(0), (0x01ull << 56) | 42,
                                     &s.trace);
                co_await c.mmioRead(sys.regAddr(1), &s.trace);
            } else {
                co_await c.mmioWrite(sys.regAddr(0), 42, &s.trace);
                co_await c.mmioRead(sys.regAddr(0), &s.trace);
            }
            s.total = eq.now() - t0;
        } else if (mech == CpuPullProxy || mech == CpuPullSlow) {
            // The accelerator owns the line in M; the CPU loads it.
            co_await c.mmioWrite(sys.regAddr(3), kBufA);
            co_await c.mmioWrite(sys.regAddr(5), 1);
            co_await c.mmioWrite(sys.regAddr(0), 0x02ull << 56);
            while (co_await c.mmioRead(sys.regAddr(1)) == kFifoEmpty)
                co_await c.compute(8);
            Tick t0 = eq.now();
            co_await c.load(kBufA, 8, &s.trace);
            s.total = eq.now() - t0;
        } else {
            // The CPU owns the line in M; the accelerator loads it and
            // records the latency in `s`.
            co_await c.store(kBufA, 0x1234);
            co_await c.mmioWrite(sys.regAddr(0), (0x03ull << 56) | kBufA);
            while (co_await c.mmioRead(sys.regAddr(1)) == kFifoEmpty)
                co_await c.compute(8);
        }
    });
    sys.run();
    return s;
}

TEST(Claims, Fig9CommunicationLatency)
{
    constexpr std::uint64_t kClocks[] = {100, 200, 500};
    constexpr LatencyTrace::Cat kCats[] = {
        LatencyTrace::Cat::NoC, LatencyTrace::Cat::FastCache,
        LatencyTrace::Cat::SlowCache, LatencyTrace::Cat::Cdc};
    const char *const kParts[] = {"total", "noc", "fast", "slow", "cdc"};
    // ns per [mechanism][eFPGA clock][total, noc, fast, slow, cdc].
    const double kPinned[kMechs][3][5] = {
        {{28, 24, 3, 0, 13}, {26, 24, 2, 0, 8}, {26, 24, 2, 0, 3}},
        {{98, 24, 74, 40, 28}, {68, 24, 44, 20, 18}, {44, 24, 20, 8, 6}},
        {{31, 14, 17, 0, 0}, {31, 14, 17, 0, 0}, {31, 14, 17, 0, 0}},
        {{99, 14, 14, 30, 41}, {64, 14, 14, 15, 21}, {45, 14, 14, 6, 11}},
        {{60, 14, 17, 10, 19}, {45, 14, 17, 5, 9}, {38, 14, 17, 2, 5}},
        {{130, 14, 11, 70, 35}, {80, 14, 11, 35, 20}, {50, 14, 11, 14, 11}},
    };

    double v[kMechs][3][5];
    for (int m = 0; m < kMechs; ++m) {
        for (int f = 0; f < 3; ++f) {
            Latency s = measureLatency(static_cast<Mech>(m), kClocks[f]);
            v[m][f][0] = ns(s.total);
            for (int p = 1; p < 5; ++p)
                v[m][f][p] = ns(s.trace.get(kCats[p - 1]));
        }
    }

    for (int m = 0; m < kMechs; ++m) {
        for (int f = 0; f < 3; ++f) {
            for (int p = 0; p < 5; ++p) {
                // Paths that stay in the fast domain never pay slow-cache
                // cycles or (the proxy CPU pull) a CDC crossing; the NoC
                // runs on the system clock; everything else falls or
                // holds as the eFPGA clock rises.
                const bool fast_only =
                    (p == 3 && (m == ShadowReg || m == CpuPullProxy)) ||
                    (p == 4 && m == CpuPullProxy);
                Paper paper{"falls or holds as the eFPGA clock rises"};
                bool holds = f == 0 || v[m][f][p] <= v[m][f - 1][p];
                if (fast_only) {
                    paper = {"0: stays in the fast domain"};
                    holds = v[m][f][p] == 0.0;
                } else if (p == 1) {
                    paper = {"same at every eFPGA clock"};
                    holds = v[m][f][p] == v[m][0][p];
                } else if (p == 0 && m == CpuPullProxy) {
                    paper = {"constant across eFPGA clocks"};
                    holds = v[m][f][p] == v[m][0][p];
                }
                claim("Fig. 9",
                      std::string(kMechNames[m]) + " @" +
                          std::to_string(kClocks[f]) + " MHz " + kParts[p] +
                          " (ns)",
                      paper, v[m][f][p], kPinned[m][f][p], 3, holds);
            }
        }
    }

    // The headline reductions: Duet's mechanism vs the baseline it
    // replaces, at each eFPGA clock.
    struct Pair
    {
        Mech duet, base;
        const char *label;
        Paper paper;
        double pinned[3];
    };
    const Pair kPairs[] = {
        {ShadowReg, NormalReg, "Shadow vs Normal Reg. cut", {"50-80%", 50, 80},
         {71.428571, 61.764706, 40.909091}},
        {CpuPullProxy, CpuPullSlow, "CPU Pull Proxy vs Slow cut",
         {"42-82%", 42, 82}, {68.686869, 51.5625, 31.111111}},
        {FpgaPullProxy, FpgaPullSlow, "eFPGA Pull Proxy vs Slow cut",
         {"13-43%", 13, 43}, {53.846154, 43.75, 24}},
    };
    for (const Pair &pr : kPairs) {
        for (int f = 0; f < 3; ++f) {
            const double c = cut(v[pr.duet][f][0], v[pr.base][f][0]);
            claim("Fig. 9",
                  std::string(pr.label) + " @" + std::to_string(kClocks[f]) +
                      " MHz (%)",
                  pr.paper, c, pr.pinned[f], 6, c > 0.0);
        }
    }
}

TEST(Claims, Fig9ShadowReadVsNormalReadAtSlowClock)
{
    // One plain shadowed register vs one normal register, with a slow
    // (50 MHz) eFPGA that makes the difference stark.
    auto read_latency = [](RegKind kind) -> Tick {
        System sys{SystemConfig{}};
        AccelImage img;
        img.name = "reg";
        img.resources = FabricResources{50, 80, 0, 0};
        img.fmaxMHz = 50;
        img.regLayout.kinds = {kind};
        EXPECT_TRUE(sys.installAccel(img));
        Tick t0 = 0, t1 = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.compute(5);
            t0 = c.clock().eventQueue().now();
            co_await c.mmioRead(sys.regAddr(0));
            t1 = c.clock().eventQueue().now();
        });
        sys.run();
        return t1 - t0;
    };
    const double shadow = ns(read_latency(RegKind::Plain));
    const double normal = ns(read_latency(RegKind::Normal));
    claim("Fig. 9", "Plain shadow reg. read @50 MHz (ns)",
          {"below a normal reg. read"}, shadow, 13, 3, shadow < normal);
    claim("Fig. 9", "Normal reg. read @50 MHz (ns)",
          {"pays the CDC and slow cycles"}, normal, 83, 3,
          normal > shadow);
    const double c = cut(shadow, normal);
    claim("Fig. 9", "Shadow vs Normal read cut @50 MHz (%)",
          {"50-80% (at least 40%)", 50, 80}, c, 84.337349, 6, c > 40.0);
}

// ---------------------------------------------------------------------
// Fig. 10: single-processor bandwidth vs eFPGA clock (512 QW each way).
// ---------------------------------------------------------------------

constexpr unsigned kQw = 512;

/** Register path: write each QW, read it back (echo). */
double
regBandwidth(bool shadow, std::uint64_t mhz)
{
    System sys(commConfig(SystemMode::Duet));
    sys.installAccel(shadow ? commImage() : normalRegImage());
    sys.fpgaClock().setFrequencyMHz(mhz);
    Tick elapsed = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        Tick t0 = sys.eventQueue().now();
        for (unsigned i = 0; i < kQw; ++i) {
            if (shadow) {
                co_await c.mmioWrite(sys.regAddr(0),
                                     (0x01ull << 56) | (i + 1));
                while (co_await c.mmioRead(sys.regAddr(1)) == kFifoEmpty)
                    co_await c.compute(4);
            } else {
                co_await c.mmioWrite(sys.regAddr(0), i + 1);
                co_await c.mmioRead(sys.regAddr(0));
            }
        }
        elapsed = sys.eventQueue().now() - t0;
    });
    sys.run();
    return mbps(2.0 * 8 * kQw, elapsed);
}

/** Shared memory, eFPGA pull: the CPU fills A, rings the doorbell (the
 *  eFPGA pulls A and stores B), then reads B. */
double
fpgaPullBandwidth(SystemMode mode, std::uint64_t mhz)
{
    System sys(commConfig(mode));
    sys.installAccel(commImage());
    sys.fpgaClock().setFrequencyMHz(mhz);
    Tick elapsed = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(2), kBufA);
        co_await c.mmioWrite(sys.regAddr(3), kBufB);
        co_await c.mmioWrite(sys.regAddr(5), kQw);
        Tick t0 = sys.eventQueue().now();
        for (unsigned i = 0; i < kQw; ++i)
            co_await c.store(kBufA + 8 * i, i + 1);
        co_await c.mmioRead(sys.regAddr(4));
        for (unsigned i = 0; i < kQw; ++i)
            co_await c.load(kBufB + 8 * i);
        elapsed = sys.eventQueue().now() - t0;
    });
    sys.run();
    return mbps(2.0 * 8 * kQw, elapsed);
}

/** Shared memory, CPU pull: the accelerator produces B, the CPU reads
 *  it (plus the initial command). */
double
cpuPullBandwidth(SystemMode mode, std::uint64_t mhz)
{
    System sys(commConfig(mode));
    sys.installAccel(commImage());
    sys.fpgaClock().setFrequencyMHz(mhz);
    Tick elapsed = 0;
    sys.core(0).start([&](Core &c) -> CoTask<void> {
        co_await c.mmioWrite(sys.regAddr(3), kBufB);
        co_await c.mmioWrite(sys.regAddr(5), kQw);
        Tick t0 = sys.eventQueue().now();
        co_await c.mmioWrite(sys.regAddr(0), 0x02ull << 56);
        while (co_await c.mmioRead(sys.regAddr(1)) == kFifoEmpty)
            co_await c.compute(8);
        for (unsigned i = 0; i < kQw; ++i)
            co_await c.load(kBufB + 8 * i);
        elapsed = sys.eventQueue().now() - t0;
    });
    sys.run();
    return mbps(8.0 * kQw, elapsed);
}

TEST(Claims, Fig10Bandwidth)
{
    constexpr std::uint64_t kClocks[] = {20, 50, 100, 200, 500};
    // MB/s per [mechanism][eFPGA clock].
    const double kPinned[kMechs][5] = {
        {159.975004, 399.843811, 533.402787, 615.384615, 615.384615},
        {39.998438, 99.990235, 160.00625, 228.584184, 363.636364},
        {119.857201, 219.813245, 256.256256, 267.817445, 276.383266},
        {30.293617, 66.289044, 104.330107, 153.494473, 211.395541},
        {112.742737, 165.692441, 185.293253, 193.980725, 185.949381},
        {24.81597, 52.678284, 82.265515, 116.083322, 154.887502},
    };
    double v[kMechs][5];
    for (int f = 0; f < 5; ++f) {
        v[ShadowReg][f] = regBandwidth(true, kClocks[f]);
        v[NormalReg][f] = regBandwidth(false, kClocks[f]);
        v[CpuPullProxy][f] = cpuPullBandwidth(SystemMode::Duet, kClocks[f]);
        v[CpuPullSlow][f] = cpuPullBandwidth(SystemMode::Fpsoc, kClocks[f]);
        v[FpgaPullProxy][f] =
            fpgaPullBandwidth(SystemMode::Duet, kClocks[f]);
        v[FpgaPullSlow][f] =
            fpgaPullBandwidth(SystemMode::Fpsoc, kClocks[f]);
    }

    double best_ratio = 0.0;
    int peak = 0;
    for (int m = 0; m < kMechs; ++m) {
        // Duet's mechanism (even index) vs the baseline it replaces.
        const bool duet = m % 2 == 0;
        const int base = m == ShadowReg ? NormalReg : m + 1;
        for (int f = 0; f < 5; ++f) {
            Paper paper{"rises with the eFPGA clock"};
            bool holds = f == 0 || v[m][f] >= v[m][f - 1];
            if (duet) {
                paper = {m == ShadowReg ? "at least Normal Reg."
                                        : "above the slow cache"};
                holds = m == ShadowReg ? v[m][f] >= v[base][f]
                                       : v[m][f] > v[base][f];
                if (m != ShadowReg)
                    best_ratio = std::max(best_ratio, v[m][f] / v[base][f]);
            }
            claim("Fig. 10",
                  std::string(kMechNames[m]) + " @" +
                      std::to_string(kClocks[f]) + " MHz (MB/s)",
                  paper, v[m][f], kPinned[m][f], 6, holds);
        }
    }
    for (int f = 1; f < 5; ++f)
        if (v[FpgaPullProxy][f] > v[FpgaPullProxy][peak])
            peak = f;
    claim("Fig. 10", "best Proxy / Slow cache bandwidth (x)",
          {"up to 9.5x", 9.5, 9.5}, best_ratio, 4.543152, 6,
          best_ratio > 1.0);
    const double peak_mhz = static_cast<double>(kClocks[peak]);
    claim("Fig. 10", "eFPGA Pull w/ Proxy peak clock (MHz)",
          {"peaks at >= 100 MHz"}, peak_mhz, 200, 0, peak_mhz >= 100);
}

// ---------------------------------------------------------------------
// Fig. 11: per-processor soft-register bandwidth vs contending cores
// (eFPGA at 500 MHz, half the CPU clock).
// ---------------------------------------------------------------------

enum RegOp
{
    NormalWrite,
    NormalRead,
    ShadowWrite,
    ShadowRead,
    kRegOps
};

double
perCoreBandwidth(RegOp op, unsigned cores)
{
    constexpr unsigned kOpsPerCore = 200;
    System sys(commConfig(SystemMode::Duet, cores));
    sys.installAccel(commImage());
    sys.fpgaClock().setFrequencyMHz(500);
    Tick t0 = sys.eventQueue().now();
    for (unsigned tid = 0; tid < cores; ++tid) {
        sys.core(tid).start([&sys, op](Core &c) -> CoTask<void> {
            for (unsigned i = 0; i < kOpsPerCore; ++i) {
                // reg 4 is normal; reg 0 the shadowed FPGA-bound FIFO
                // (opcode 0: the engine drains and drops it); reg 2 a
                // plain shadow.
                if (op == NormalWrite)
                    co_await c.mmioWrite(sys.regAddr(4), i);
                else if (op == NormalRead)
                    co_await c.mmioRead(sys.regAddr(4));
                else if (op == ShadowWrite)
                    co_await c.mmioWrite(sys.regAddr(0), i);
                else
                    co_await c.mmioRead(sys.regAddr(2));
            }
        });
    }
    sys.run();
    return mbps(8.0 * kOpsPerCore, sys.lastCoreFinish() - t0);
}

TEST(Claims, Fig11RegisterScaling)
{
    constexpr unsigned kCores[] = {1, 2, 4, 8, 16};
    const char *const kNames[kRegOps] = {
        "Normal Reg. Write", "Normal Reg. Read", "Shadow Reg. Write",
        "Shadow Reg. Read"};
    // MB/s per processor, per [access][processor count].
    const double kPinned[kRegOps][5] = {
        {363.636364, 249.80484, 199.575901, 99.694685, 49.873757},
        {363.636364, 249.80484, 199.575901, 99.694685, 49.873757},
        {615.384615, 347.826087, 345.423143, 184.565694, 125.068397},
        {615.384615, 347.826087, 345.423143, 184.565694, 125.087952},
    };
    double v[kRegOps][5];
    for (int op = 0; op < kRegOps; ++op)
        for (int n = 0; n < 5; ++n)
            v[op][n] = perCoreBandwidth(static_cast<RegOp>(op), kCores[n]);

    for (int op = 0; op < kRegOps; ++op) {
        const bool shadow = op >= ShadowWrite;
        for (int n = 0; n < 5; ++n) {
            const bool holds =
                shadow ? v[op][n] >= v[op - ShadowWrite][n]
                       : n == 0 || v[op][n] <= v[op][n - 1];
            claim("Fig. 11",
                  std::string(kNames[op]) + " x" + std::to_string(kCores[n]) +
                      " (MB/s/core)",
                  {shadow ? "at least the normal register"
                          : "falls as processors contend"},
                  v[op][n], kPinned[op][n], 6, holds);
        }
    }
    // The paper's shape: shadow registers keep per-core bandwidth to ~8
    // contending processors.
    const double kept = v[ShadowRead][3] / v[ShadowRead][0];
    claim("Fig. 11", "Shadow Reg. Read x8 / x1 (ratio)",
          {"sustained to ~8 processors", 1.0, 1.0}, kept, 0.299919, 6,
          kept >= v[NormalRead][3] / v[NormalRead][0]);
}

// ---------------------------------------------------------------------
// Ablations of the design choices behind Figs. 9-10.
// ---------------------------------------------------------------------

TEST(Claims, AblationProxyMshrsAndSyncDepth)
{
    // Proxy-cache MSHR count vs the 4 KB eFPGA-pull doorbell round trip
    // at 200 MHz.
    auto pull_us = [](unsigned mshrs) {
        SystemConfig cfg = commConfig(SystemMode::Duet);
        cfg.l2.mshrs = mshrs;
        System sys(cfg);
        sys.installAccel(commImage());
        sys.fpgaClock().setFrequencyMHz(200);
        Tick elapsed = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.mmioWrite(sys.regAddr(2), kBufA);
            co_await c.mmioWrite(sys.regAddr(3), kBufB);
            co_await c.mmioWrite(sys.regAddr(5), kQw);
            for (unsigned i = 0; i < kQw; ++i)
                co_await c.store(kBufA + 8 * i, i + 1);
            Tick t0 = sys.eventQueue().now();
            co_await c.mmioRead(sys.regAddr(4));
            elapsed = sys.eventQueue().now() - t0;
        });
        sys.run();
        return us(elapsed);
    };
    const unsigned kMshrs[] = {1, 2, 4, 8, 16};
    const double kPullPinned[] = {55.969, 26.664, 12.614, 8.439, 8.439};
    double prev = 0.0;
    for (int i = 0; i < 5; ++i) {
        const double t = pull_us(kMshrs[i]);
        claim("Ablation",
              "eFPGA pull 4 KB, " + std::to_string(kMshrs[i]) +
                  " proxy MSHRs (us)",
              {"in-flight requests bound the peak"}, t, kPullPinned[i], 6,
              i == 0 || t <= prev);
        prev = t;
    }

    // Synchronizer depth vs the shadow-register round trip at 100 MHz.
    auto shadow_ns = [](unsigned stages) {
        SystemConfig cfg = commConfig(SystemMode::Duet);
        cfg.ctrl.syncStages = stages;
        System sys(cfg);
        sys.installAccel(commImage());
        sys.fpgaClock().setFrequencyMHz(100);
        Tick elapsed = 0;
        sys.core(0).start([&](Core &c) -> CoTask<void> {
            co_await c.compute(10);
            Tick t0 = sys.eventQueue().now();
            co_await c.mmioWrite(sys.regAddr(0), (0x01ull << 56) | 7);
            while (co_await c.mmioRead(sys.regAddr(1)) == kFifoEmpty)
                co_await c.compute(4);
            elapsed = sys.eventQueue().now() - t0;
        });
        sys.run();
        return ns(elapsed);
    };
    const double kSyncPinned[] = {26, 28, 39, 50};
    for (unsigned s = 1; s <= 4; ++s) {
        const double t = shadow_ns(s);
        claim("Ablation",
              "Shadow Reg. round trip, " + std::to_string(s) +
                  " sync stages (ns)",
              {"each stage adds an eFPGA cycle"}, t, kSyncPinned[s - 1], 3,
              s == 1 || t >= prev);
        prev = t;
    }
}

// ---------------------------------------------------------------------
// Fig. 12: application speedup and area-delay product, from the sweep
// path (the same rows `duet_sim --sweep ... --mode all` writes).
// ---------------------------------------------------------------------

/** The three README Fig. 12 sweeps, expanded, run in-process, merged
 *  (bfs/4 and pdes/4 appear twice) and joined by addDerivedMetrics(). */
std::vector<SweepRow>
fig12Rows()
{
    auto sweep = [](const char *workloads, const char *cores,
                    const char *sizes) {
        SweepSpec spec;
        spec.workloads = workloads;
        spec.modes = "all";
        spec.cores = cores;
        spec.sizes = sizes;
        return spec;
    };
    const SweepSpec specs[] = {
        sweep("tangent,popcount,dijkstra,barnes_hut,sort,pdes,bfs", "", ""),
        sweep("sort", "", "32,128"),
        sweep("bfs,pdes", "4,8,16", ""),
    };
    std::vector<SweepRow> rows;
    std::set<std::string> seen;
    for (const SweepSpec &spec : specs) {
        std::vector<SweepScenario> scenarios;
        std::string err;
        EXPECT_TRUE(expandSweep(spec, scenarios, err)) << err;
        for (const SweepScenario &sc : scenarios) {
            SweepRow id = scenarioIdentityRow(sc);
            const std::string key = id.workload + ' ' + id.mode + ' ' +
                                    std::to_string(id.cores) + ' ' +
                                    std::to_string(id.size);
            if (seen.insert(key).second)
                rows.push_back(runScenario(sc, SystemConfig{}));
        }
    }
    addDerivedMetrics(rows);
    return rows;
}

TEST(Claims, Fig12AppSpeedupAndAdp)
{
    struct AppPin
    {
        const char *app;
        double us[3]; ///< runtime: cpu, fpsoc, duet
        double speedup[2]; ///< fpsoc, duet (vs cpu)
        double adp[2];     ///< fpsoc, duet (normalized to cpu)
    };
    // The thirteen Fig. 12 configurations, in the paper's order.
    const AppPin kPinned[] = {
        {"tangent", {101.6, 68.085, 50},
         {1.492252, 2.032}, {0.985088, 0.964623}},
        {"popcount", {66.469, 19.864, 16.275},
         {3.346204, 4.084117}, {1.12665, 1.046792}},
        {"sort/32", {205.944, 43.299, 36.707},
         {4.756322, 5.610483}, {1.532697, 1.465315}},
        {"sort/64", {205.944, 41.036, 33.913},
         {5.018618, 6.072715}, {1.813248, 1.651835}},
        {"sort/128", {205.944, 39.549, 31.771},
         {5.207312, 6.482138}, {2.164264, 1.882269}},
        {"dijkstra", {97.51, 122.206, 85.094},
         {0.797915, 1.145909}, {3.684603, 3.006539}},
        {"barnes-hut", {171.604, 408.049, 82.231},
         {0.420548, 2.086853}, {10.831118, 2.243237}},
        {"pdes/4", {611.213, 110.518, 43.513},
         {5.530438, 14.046676}, {0.306034, 0.129483}},
        {"pdes/8", {807.56, 111.727, 30.831},
         {7.227975, 26.193117}, {0.186255, 0.053808}},
        {"pdes/16", {1049.645, 116.265, 30.958},
         {9.028039, 33.905453}, {0.129942, 0.035531}},
        {"bfs/4", {117.484, 33.505, 26.259},
         {3.506462, 4.474047}, {0.373596, 0.320186}},
        {"bfs/8", {144.29, 29.294, 17.596},
         {4.925582, 8.200159}, {0.23449, 0.148322}},
        {"bfs/16", {207.697, 35.548, 14.225},
         {5.84272, 14.600844}, {0.184418, 0.075895}},
    };
    const char *const kModes[] = {"cpu", "fpsoc", "duet"};

    const std::vector<SweepRow> rows = fig12Rows();
    ASSERT_EQ(rows.size(), 3 * std::size(kPinned));
    double log_spd[2] = {}, log_adp[2] = {};
    double min_duet = 1e9, max_duet = 0.0;
    for (const AppPin &pin : kPinned) {
        const SweepRow *r[3] = {};
        for (int m = 0; m < 3; ++m)
            for (const SweepRow &row : rows)
                if (row.app == pin.app && row.mode == kModes[m])
                    r[m] = &row;
        ASSERT_TRUE(r[0] && r[1] && r[2]) << pin.app;
        const std::string app = pin.app;
        for (int m = 0; m < 3; ++m)
            claim("Fig. 12", app + " " + kModes[m] + " runtime (us)",
                  {"matches the host reference"}, us(r[m]->runtime),
                  pin.us[m], 6, r[m]->correct);
        const SweepRow &fpsoc = *r[1], &duet = *r[2];
        claim("Fig. 12", app + " FPSoC speedup (x)",
              {"below Duet"}, fpsoc.speedup, pin.speedup[0], 6,
              fpsoc.speedup < duet.speedup);
        claim("Fig. 12", app + " Duet speedup (x)", {"above FPSoC"},
              duet.speedup, pin.speedup[1], 6,
              duet.speedup > fpsoc.speedup);
        claim("Fig. 12", app + " FPSoC ADP", {"above Duet"}, fpsoc.adpNorm,
              pin.adp[0], 6, fpsoc.adpNorm > duet.adpNorm);
        claim("Fig. 12", app + " Duet ADP", {"below FPSoC"}, duet.adpNorm,
              pin.adp[1], 6, duet.adpNorm < fpsoc.adpNorm);
        for (int m = 0; m < 2; ++m) {
            log_spd[m] += std::log(r[m + 1]->speedup);
            log_adp[m] += std::log(r[m + 1]->adpNorm);
        }
        min_duet = std::min(min_duet, duet.speedup);
        max_duet = std::max(max_duet, duet.speedup);
    }

    const double n = static_cast<double>(std::size(kPinned));
    const double spd_f = std::exp(log_spd[0] / n);
    const double spd_d = std::exp(log_spd[1] / n);
    const double adp_f = std::exp(log_adp[0] / n);
    const double adp_d = std::exp(log_adp[1] / n);
    claim("Fig. 12", "geomean FPSoC speedup (x)", {"2.14x", 2.14, 2.14},
          spd_f, 3.382413, 6, spd_f < spd_d);
    claim("Fig. 12", "geomean Duet speedup (x)", {"4.53x, above FPSoC", 4.53,
          4.53}, spd_d, 6.384553, 6, spd_d > spd_f);
    claim("Fig. 12", "geomean FPSoC ADP", {"1.23", 1.23, 1.23}, adp_f,
          0.767159, 6, adp_f > adp_d);
    claim("Fig. 12", "geomean Duet ADP", {"0.61, below FPSoC", 0.61, 0.61},
          adp_d, 0.446069, 6, adp_d < adp_f);
    claim("Fig. 12", "smallest Duet speedup (x)", {"1.5x", 1.5, 1.5},
          min_duet, 1.145909, 6, min_duet > 1.0);
    claim("Fig. 12", "largest Duet speedup (x)", {"24.9x", 24.9, 24.9},
          max_duet, 33.905453, 6, max_duet > 1.0);
}

} // namespace
} // namespace duet
