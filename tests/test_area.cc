/**
 * @file
 * Unit tests for the area/frequency models (Table I, Table II, ADP
 * inputs): scaling math, paper-number reproduction, system-area
 * composition, and monotonicity properties.
 */

#include <gtest/gtest.h>

#include "area/area_model.hh"

namespace duet::area
{
namespace
{

TEST(Scaling, LinearMosfetModel)
{
    EXPECT_NEAR(scaleArea(1.0, 45, 90), 4.0, 1e-9);
    EXPECT_NEAR(scaleArea(4.0, 90, 45), 1.0, 1e-9);
    EXPECT_NEAR(scaleFreq(1000, 45, 90), 500, 1e-9);
}

TEST(TableOne, ReproducesPaperScaledNumbers)
{
    const auto &rows = tableOne();
    ASSERT_EQ(rows.size(), 4u);
    // Ariane: 0.39 mm2 / 910 MHz @ 22nm FDX -> 1.56 mm2 / 455 MHz @ 45nm.
    EXPECT_NEAR(rows[0].scaledAreaMm2(), 1.56, 0.01);
    EXPECT_NEAR(rows[0].scaledFreqMhz(), 455, 1);
    // P-Mesh socket: 0.55 / 1000 @ 32nm -> 1.1 / 711.
    EXPECT_NEAR(rows[1].scaledAreaMm2(), 1.1, 0.02);
    EXPECT_NEAR(rows[1].scaledFreqMhz(), 711, 1);
    // The hub components are already at 45 nm.
    EXPECT_NEAR(rows[2].scaledAreaMm2(), 0.21, 1e-9);
    EXPECT_NEAR(rows[3].scaledAreaMm2(), 0.04, 1e-9);
    EXPECT_NEAR(tileAreaMm2(), 2.66, 0.02);
}

TEST(TableTwo, AllNineAcceleratorsPresent)
{
    EXPECT_EQ(tableTwo().size(), 9u);
    for (const char *key :
         {"tangent", "popcount", "sort32", "sort64", "sort128", "dijkstra",
          "barnes-hut", "bfs", "pdes"}) {
        EXPECT_NE(findAccel(key), nullptr) << key;
    }
    EXPECT_EQ(findAccel("nonesuch"), nullptr);
}

TEST(TableTwo, FmaxWithinPaperRange)
{
    // Sec. V-D: accelerators run at 8-28% of the 1 GHz processor clock.
    for (const AccelRow &r : tableTwo()) {
        EXPECT_GE(r.fmaxMhz, 80) << r.display;
        EXPECT_LE(r.fmaxMhz, 285) << r.display;
    }
}

TEST(TableTwo, DerivedFabricAreaMatchesNormalizedArea)
{
    for (const AccelRow &r : tableTwo()) {
        double want = r.normArea * tileAreaMm2();
        EXPECT_NEAR(r.fabricAreaMm2(), want, 0.10 * want + 0.05)
            << r.display;
    }
}

TEST(TableTwo, DerivedFabricCompositionIsPinned)
{
    // The fabric each accelerator needs, as the area model derives it:
    // CLB tiles, BRAM tiles, and silicon area (mm2, 45 nm).
    struct Pin
    {
        const char *key;
        unsigned clb, bram;
        double mm2;
    };
    const Pin pins[] = {
        {"tangent", 117, 0, 1.24},    {"popcount", 446, 42, 7.33},
        {"sort32", 1015, 95, 16.65},  {"sort64", 1309, 122, 21.44},
        {"sort128", 1664, 154, 27.19}, {"dijkstra", 315, 29, 5.14},
        {"barnes-hut", 2300, 214, 37.65}, {"bfs", 199, 19, 3.29},
        {"pdes", 446, 42, 7.33},
    };
    for (const Pin &p : pins) {
        const AccelRow *r = findAccel(p.key);
        ASSERT_NE(r, nullptr) << p.key;
        EXPECT_EQ(r->clbTiles(), p.clb) << p.key;
        EXPECT_EQ(r->bramTiles(), p.bram) << p.key;
        EXPECT_NEAR(r->fabricAreaMm2(), p.mm2, 0.005) << p.key;
    }
}

TEST(TableTwo, SortAreaGrowsWithNetworkSize)
{
    EXPECT_LT(findAccel("sort32")->normArea, findAccel("sort64")->normArea);
    EXPECT_LT(findAccel("sort64")->normArea,
              findAccel("sort128")->normArea);
}

TEST(SystemArea, Composition)
{
    // CPU-only scales with core count.
    EXPECT_NEAR(systemAreaMm2(4, 0, 0, "bfs"),
                2 * systemAreaMm2(2, 0, 0, "bfs"), 1e-9);
    // FPSoC adds exactly the eFPGA.
    double fpga = findAccel("popcount")->normArea * tileAreaMm2();
    EXPECT_NEAR(systemAreaMm2(1, 1, 1, "popcount") -
                    systemAreaMm2(1, 1, 0, "popcount"),
                fpga, 1e-9);
    // Duet adds the adapter on top of the FPSoC area.
    EXPECT_GT(systemAreaMm2(1, 1, 2, "popcount"),
              systemAreaMm2(1, 1, 1, "popcount"));
    // More memory hubs -> more adapter area.
    EXPECT_GT(systemAreaMm2(1, 2, 2, "sort64"),
              systemAreaMm2(1, 1, 2, "sort64"));
}

TEST(SystemArea, AdapterOverheadIsSmall)
{
    // The paper's point: the adapter is tiny relative to the eFPGA and
    // the cores (Sec. V-B "minimal hardware resources").
    double duet = systemAreaMm2(4, 1, 2, "barnes-hut");
    double fpsoc = systemAreaMm2(4, 1, 1, "barnes-hut");
    EXPECT_LT((duet - fpsoc) / fpsoc, 0.05);
}

} // namespace
} // namespace duet::area
