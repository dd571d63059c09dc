// Tests for the VLSI layout/delay models: calibration against the paper's
// Figure 12 data points, the Figure 11 scaling exponents, optimal cluster
// sizes, dominance relations, and the 3-D bounds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vlsi/vlsi.hpp"

namespace ultra::vlsi {
namespace {

using memory::BandwidthProfile;
using memory::BandwidthRegime;

std::vector<double> Doubles(std::initializer_list<double> v) { return v; }

/// Measures the log-log slope of f over n = 2^lo .. 2^hi.
template <typename F>
PowerFit SlopeOf(F f, int lo, int hi) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int e = lo; e <= hi; ++e) {
    const std::int64_t n = std::int64_t{1} << e;
    xs.push_back(static_cast<double>(n));
    ys.push_back(f(n));
  }
  return FitPowerLaw(xs, ys);
}

// --- Power-law fitting -------------------------------------------------------

TEST(FitPowerLaw, RecoversExactPowerLaw) {
  const auto xs = Doubles({1, 2, 4, 8, 16, 32});
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(3.0 * x * std::sqrt(x));
  const auto fit = FitPowerLaw(xs, ys);
  EXPECT_NEAR(fit.exponent, 1.5, 1e-9);
  EXPECT_NEAR(fit.coefficient, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitPowerLaw, RSquaredDropsForNonPowerLaw) {
  const auto xs = Doubles({1, 2, 4, 8, 16, 32, 64});
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(std::exp(x / 8.0));
  const auto fit = FitPowerLaw(xs, ys);
  EXPECT_LT(fit.r_squared, 0.99);
}

// --- Figure 12 calibration ---------------------------------------------------

TEST(Figure12, UsiDatapathMatchesPaperArea) {
  const auto p = MagicUsiDatapath();
  // Paper: 7 cm x 7 cm = 49 cm^2.
  EXPECT_NEAR(p.geom.area_cm2(), Fig12PaperValues::kUsiAreaCm2,
              0.05 * Fig12PaperValues::kUsiAreaCm2);
  EXPECT_NEAR(p.stations_per_m2(), Fig12PaperValues::kUsiDensityPerM2,
              0.10 * Fig12PaperValues::kUsiDensityPerM2);
}

TEST(Figure12, HybridDatapathMatchesPaperArea) {
  const auto p = MagicHybridDatapath();
  EXPECT_NEAR(p.geom.area_cm2(), Fig12PaperValues::kHybridAreaCm2,
              0.07 * Fig12PaperValues::kHybridAreaCm2);
  EXPECT_NEAR(p.stations_per_m2(), Fig12PaperValues::kHybridDensityPerM2,
              0.10 * Fig12PaperValues::kHybridDensityPerM2);
}

TEST(Figure12, DensityRatioIsAboutElevenPointFive) {
  const auto usi = MagicUsiDatapath();
  const auto hybrid = MagicHybridDatapath();
  const double ratio = hybrid.stations_per_m2() / usi.stations_per_m2();
  EXPECT_GT(ratio, 9.0);
  EXPECT_LT(ratio, 14.0);
  EXPECT_NEAR(ratio, Fig12PaperValues::kDensityRatio, 1.5);
}

// --- Figure 11: scaling exponents -------------------------------------------

struct RegimeCase {
  BandwidthRegime regime;
  double usi_wire_exp;     // Expected Theta exponent of US-I wire delay.
  double hybrid_wire_exp;  // Expected exponent of hybrid wire delay.
  double scale = 1.0;      // Bandwidth scale; large values reach the
                           // M-dominated regime within the sweep.
};

std::string RegimeName(BandwidthRegime regime) {
  switch (regime) {
    case BandwidthRegime::kSqrtMinus: return "SqrtMinus";
    case BandwidthRegime::kSqrt: return "Sqrt";
    case BandwidthRegime::kSqrtPlus: return "SqrtPlus";
    case BandwidthRegime::kLinear: return "Linear";
    default: return "Constant";
  }
}

// Without a printer gtest shows the struct's raw bytes, padding included,
// so the discovered ctest names would carry whatever the padding held.
void PrintTo(const RegimeCase& c, std::ostream* os) {
  *os << RegimeName(c.regime);
}

class WireScaling : public testing::TestWithParam<RegimeCase> {};

TEST_P(WireScaling, UsiWireExponentMatchesTheory) {
  const auto param = GetParam();
  const UltrascalarILayout layout(
      32, BandwidthProfile::ForRegime(param.regime, param.scale));
  const auto fit =
      SlopeOf([&](std::int64_t n) { return layout.At(n).wire_um; }, 10, 20);
  EXPECT_NEAR(fit.exponent, param.usi_wire_exp, 0.1);
}

TEST_P(WireScaling, HybridWireExponentMatchesTheory) {
  const auto param = GetParam();
  const HybridLayout layout(
      32, 32, BandwidthProfile::ForRegime(param.regime, param.scale));
  const auto fit =
      SlopeOf([&](std::int64_t n) { return layout.At(n).wire_um; }, 10, 20);
  EXPECT_NEAR(fit.exponent, param.hybrid_wire_exp, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, WireScaling,
    testing::Values(
        // Case 1: M(n) = O(n^{1/2-e}): wire Theta(sqrt(n) L).
        RegimeCase{BandwidthRegime::kSqrtMinus, 0.5, 0.5},
        // Case 2: M(n) = Theta(n^{1/2}): still sqrt-dominated.
        RegimeCase{BandwidthRegime::kSqrt, 0.5, 0.5},
        // Case 3: M(n) = Omega(n^{1/2+e}) with e=0.25: M dominates (the
        // scale puts the sweep past the crossover, where the Theta bound
        // governs).
        RegimeCase{BandwidthRegime::kSqrtPlus, 0.75, 0.75, 60.0},
        // Full bandwidth: everything is Theta(n).
        RegimeCase{BandwidthRegime::kLinear, 1.0, 1.0}),
    [](const auto& info) { return RegimeName(info.param.regime); });

TEST(Figure11, UsiAreaGrowsLinearlyInN) {
  // Area Theta(n L^2) for small M: exponent 1 in n.
  const UltrascalarILayout layout(
      32, BandwidthProfile::ForRegime(BandwidthRegime::kSqrtMinus));
  const auto fit = SlopeOf(
      [&](std::int64_t n) { return layout.At(n).area_um2(); }, 10, 20);
  EXPECT_NEAR(fit.exponent, 1.0, 0.1);
}

TEST(Figure11, UsiiSideIsLinearInN) {
  const UltrascalarIILayout layout(32);
  const auto fit = SlopeOf(
      [&](std::int64_t n) {
        return layout.SideUm(n, UltrascalarIILayout::Depth::kLinear);
      },
      10, 20);
  EXPECT_NEAR(fit.exponent, 1.0, 0.05);
}

TEST(Figure11, WraparoundUsiiCostsAFactorOfTwoInArea) {
  // Section 4: "it appears to cost nearly a factor of two in area to
  // implement the wrap-around mechanism."
  const UltrascalarIILayout layout(32);
  for (const std::int64_t n : {64, 1024, 1 << 16}) {
    const double plain =
        layout.SideUm(n, UltrascalarIILayout::Depth::kLinear);
    const double wrap =
        layout.WraparoundSideUm(n, UltrascalarIILayout::Depth::kLinear);
    EXPECT_NEAR(wrap * wrap / (plain * plain), 2.0, 1e-9);
  }
}

TEST(Figure11, UsiiLogDepthCostsALogFactor) {
  const UltrascalarIILayout layout(32);
  for (const std::int64_t n : {1 << 10, 1 << 14, 1 << 18}) {
    const double lin = layout.SideUm(n, UltrascalarIILayout::Depth::kLinear);
    const double log =
        layout.SideUm(n, UltrascalarIILayout::Depth::kLogViaTreeOfMeshes);
    EXPECT_GT(log / lin, 0.8 * std::log2(static_cast<double>(n)) / 2);
    EXPECT_LT(log / lin, 2.0 * std::log2(static_cast<double>(n)));
  }
}

TEST(Figure11, UsiWireGrowsLinearlyInL) {
  // Wire delay Theta(sqrt(n) L): at fixed n, exponent 1 in L.
  std::vector<double> ls;
  std::vector<double> wires;
  for (const int L : {8, 16, 32, 64}) {
    const UltrascalarILayout layout(
        L, BandwidthProfile::ForRegime(BandwidthRegime::kSqrtMinus));
    ls.push_back(L);
    wires.push_back(layout.At(1 << 14).wire_um);
  }
  const auto fit = FitPowerLaw(ls, wires);
  EXPECT_NEAR(fit.exponent, 1.0, 0.15);
}

TEST(Figure11, HybridWireGrowsAsSqrtOfL) {
  // Hybrid wire delay Theta(sqrt(n L)): at fixed n, exponent 1/2 in L.
  std::vector<double> ls;
  std::vector<double> wires;
  for (const int L : {8, 16, 32, 64}) {
    const HybridLayout layout(
        L, L, BandwidthProfile::ForRegime(BandwidthRegime::kSqrtMinus));
    ls.push_back(L);
    wires.push_back(layout.At(1 << 14).wire_um);
  }
  const auto fit = FitPowerLaw(ls, wires);
  EXPECT_NEAR(fit.exponent, 0.5, 0.2);
}

// --- Dominance relations (Section 7) ----------------------------------------

TEST(Dominance, UsiiBeatsUsiForSmallN) {
  // "for smaller processors (n < O(L^2)) the Ultrascalar II dominates the
  // Ultrascalar I by a factor of Theta(L/sqrt(n))".
  const int L = 64;
  const auto profile = BandwidthProfile::ForRegime(BandwidthRegime::kConstant);
  const UltrascalarILayout usi(L, profile);
  const UltrascalarIILayout usii(L);
  const std::int64_t n = 64;  // n << L^2 = 4096.
  EXPECT_LT(usii.At(n, UltrascalarIILayout::Depth::kLinear).wire_um,
            usi.At(n).wire_um);
}

TEST(Dominance, UsiBeatsUsiiForLargeN) {
  const int L = 8;
  const auto profile = BandwidthProfile::ForRegime(BandwidthRegime::kConstant);
  const UltrascalarILayout usi(L, profile);
  const UltrascalarIILayout usii(L);
  const std::int64_t n = 1 << 16;  // n >> L^2 = 64.
  EXPECT_LT(usi.At(n).wire_um,
            usii.At(n, UltrascalarIILayout::Depth::kLinear).wire_um);
}

TEST(Dominance, HybridBeatsBothForLargeN) {
  // "For n >= L the hybrid dominates both."
  for (const int L : {8, 32, 64}) {
    SCOPED_TRACE(L);
    const auto profile =
        BandwidthProfile::ForRegime(BandwidthRegime::kConstant);
    const UltrascalarILayout usi(L, profile);
    const UltrascalarIILayout usii(L);
    const HybridLayout hybrid(L, L, profile);
    // Theta-dominance; with our constants the hybrid/US-II crossover sits
    // below n = 4096 for every L here.
    for (const std::int64_t n : {4096, 1 << 16, 1 << 20}) {
      if (n < L) continue;
      SCOPED_TRACE(n);
      EXPECT_LE(hybrid.At(n).wire_um, usi.At(n).wire_um * 1.01);
      EXPECT_LE(hybrid.At(n).wire_um,
                usii.At(n, UltrascalarIILayout::Depth::kLinear).wire_um *
                    1.01);
    }
  }
}

// --- Optimal cluster size -----------------------------------------------------

TEST(OptimalCluster, IsThetaOfLIn2D) {
  // Section 6: dU/dC = 0 at C = Theta(L).
  const auto profile =
      BandwidthProfile::ForRegime(BandwidthRegime::kConstant);
  for (const int L : {8, 16, 32, 64}) {
    SCOPED_TRACE(L);
    const int c = OptimalClusterSize(L, 1 << 16, profile);
    EXPECT_GE(c, L / 4);
    EXPECT_LE(c, L * 8);
  }
}

TEST(OptimalCluster, GrowsLinearlyWithL) {
  const auto profile =
      BandwidthProfile::ForRegime(BandwidthRegime::kConstant);
  const int c8 = OptimalClusterSize(8, 1 << 16, profile);
  const int c64 = OptimalClusterSize(64, 1 << 16, profile);
  EXPECT_GE(c64, 4 * c8);
  EXPECT_LE(c64, 16 * c8);
}

// --- Gate-delay measurements --------------------------------------------------

TEST(GateDelayMeasurement, MatchesFigure11Shapes) {
  const auto d256 = MeasureGateDelays(256, 32, 32);
  const auto d1024 = MeasureGateDelays(1024, 32, 32);
  // Ring is linear: quadruples.
  EXPECT_NEAR(static_cast<double>(d1024.usi_ring) / d256.usi_ring, 4.0, 0.3);
  // Tree is logarithmic: grows by a small additive amount.
  EXPECT_LE(d1024.usi_tree - d256.usi_tree, 12);
  // Grid is linear in n + L.
  EXPECT_NEAR(static_cast<double>(d1024.usii_grid) / d256.usii_grid,
              (1024.0 + 32) / (256 + 32), 0.3);
  // Mesh is logarithmic.
  EXPECT_LE(d1024.usii_mesh - d256.usii_mesh, 16);
  // Hybrid with C = L: Theta(L + log n) -- small additive growth in n.
  EXPECT_LE(d1024.hybrid - d256.hybrid, 12);
}

TEST(GateDelayMeasurement, HybridGateDelayGrowsWithL) {
  const auto small = MeasureGateDelays(1024, 8, 8);
  const auto large = MeasureGateDelays(1024, 64, 64);
  EXPECT_GT(large.hybrid, small.hybrid);
}

// --- 3-D bounds ---------------------------------------------------------------

TEST(ThreeD, UsiWireGrowsAsCubeRoot) {
  const UltrascalarILayout3D layout(
      32, BandwidthProfile::ForRegime(BandwidthRegime::kConstant));
  const auto fit = SlopeOf(
      [&](std::int64_t n) { return layout.At(n).wire_um; }, 12, 24);
  EXPECT_NEAR(fit.exponent, 1.0 / 3.0, 0.05);
}

TEST(ThreeD, UsiVolumeIsLinearInN) {
  const UltrascalarILayout3D layout(
      32, BandwidthProfile::ForRegime(BandwidthRegime::kConstant));
  const auto fit = SlopeOf(
      [&](std::int64_t n) { return layout.At(n).volume_um3(); }, 12, 24);
  EXPECT_NEAR(fit.exponent, 1.0, 0.1);
}

TEST(ThreeD, UsiVolumeGrowsAsLToTheThreeHalves) {
  std::vector<double> ls;
  std::vector<double> vols;
  for (const int L : {64, 256, 1024, 4096}) {
    const UltrascalarILayout3D layout(
        L, BandwidthProfile::ForRegime(BandwidthRegime::kConstant));
    ls.push_back(L);
    vols.push_back(layout.At(1 << 18).volume_um3());
  }
  const auto fit = FitPowerLaw(ls, vols);
  EXPECT_NEAR(fit.exponent, 1.5, 0.3);
}

TEST(ThreeD, UsiiVolumeIsQuadratic) {
  const UltrascalarIILayout3D layout(32);
  const auto fit = SlopeOf(
      [&](std::int64_t n) { return layout.VolumeUm3(n); }, 10, 20);
  EXPECT_NEAR(fit.exponent, 2.0, 0.05);
}

TEST(ThreeD, OptimalClusterIsLToTheThreeQuarters) {
  // Section 7: "the optimal cluster size is Theta(L^{3/4})".
  const auto profile =
      BandwidthProfile::ForRegime(BandwidthRegime::kConstant);
  std::vector<double> ls;
  std::vector<double> cs;
  for (const int L : {16, 64, 256, 1024}) {
    ls.push_back(L);
    cs.push_back(OptimalClusterSize3D(L, 1 << 22, profile));
  }
  const auto fit = FitPowerLaw(ls, cs);
  EXPECT_NEAR(fit.exponent, 0.75, 0.2);
}

TEST(ThreeD, HybridVolumeBeatsUsiVolume) {
  // Volume Theta(n L^{3/4}) < Theta(n L^{3/2}) for large L.
  const int L = 64;
  const auto profile =
      BandwidthProfile::ForRegime(BandwidthRegime::kConstant);
  const UltrascalarILayout3D usi(L, profile);
  const int c = OptimalClusterSize3D(L, 1 << 20, profile);
  const HybridLayout3D hybrid(L, c, profile);
  EXPECT_LT(hybrid.At(1 << 20).volume_um3(), usi.At(1 << 20).volume_um3());
}

// --- Bandwidth profile sanity --------------------------------------------------

TEST(Bandwidth, RegularityHoldsForAllRegimes) {
  // Case 3 requires M(n/4) <= c M(n)/2: pure powers always satisfy it.
  for (const auto regime :
       {BandwidthRegime::kConstant, BandwidthRegime::kSqrtMinus,
        BandwidthRegime::kSqrt, BandwidthRegime::kSqrtPlus,
        BandwidthRegime::kLinear}) {
    const auto profile = BandwidthProfile::ForRegime(regime);
    const double c = profile.RegularityWitness();
    for (const double n : {64.0, 1024.0, 65536.0}) {
      EXPECT_LE(profile(n / 4), c * profile(n) / 2 + 1e-9);
    }
  }
}

TEST(Bandwidth, OpsPerCycleIsAtLeastOne) {
  const auto profile =
      BandwidthProfile::ForRegime(BandwidthRegime::kConstant, 0.5);
  EXPECT_GE(profile.OpsPerCycle(1), 1);
  EXPECT_GE(profile.OpsPerCycle(1024), 1);
}

}  // namespace
}  // namespace ultra::vlsi
