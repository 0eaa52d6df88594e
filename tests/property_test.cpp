// Property-based tests: randomized sweeps that pin cross-cutting invariants
// which the unit suites only exercise pointwise.
//
//  * random markets: closed-form oracle == numeric solve, certificate holds,
//    comparative statics keep their signs;
//  * random autograd graphs: analytic gradients == finite differences;
//  * RNG statistics: chi-square uniformity, lag-1 autocorrelation;
//  * OFDMA pool fuzz: orthogonality invariant under arbitrary churn;
//  * quantity conversions: log/linear round-trips within an ulp budget and
//    monotonicity.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/equilibrium.hpp"
#include "nn/autograd.hpp"
#include "nn/gradcheck.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "wireless/ofdma.hpp"

namespace core = vtm::core;
namespace nn = vtm::nn;

// ---- randomized market sweep -------------------------------------------------------

namespace {

core::market_params random_market(vtm::util::rng& gen) {
  core::market_params params;
  const auto n_vmus = static_cast<std::size_t>(gen.uniform_int(1, 6));
  for (std::size_t n = 0; n < n_vmus; ++n) {
    params.vmus.push_back({gen.uniform(500.0, 2000.0),     // α ∈ [5,20]·100
                           gen.uniform(100.0, 300.0)});    // D ∈ [100,300] MB
  }
  params.bandwidth_cap_mhz = vtm::util::megahertz{gen.uniform(20.0, 80.0)};
  params.unit_cost = gen.uniform(3.0, 10.0);
  params.price_cap = gen.uniform(40.0, 80.0);
  return params;
}

}  // namespace

class random_market_sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(random_market_sweep, closed_form_matches_numeric) {
  vtm::util::rng gen(GetParam());
  const core::migration_market market(random_market(gen));
  const auto closed = core::solve_equilibrium(market);
  const auto numeric = core::solve_equilibrium_numeric(market);
  EXPECT_NEAR(closed.leader_utility, numeric.leader_utility,
              1e-4 * std::max(1.0, std::abs(numeric.leader_utility)))
      << "price closed " << closed.price << " numeric " << numeric.price;
}

TEST_P(random_market_sweep, equilibrium_certificate_holds) {
  vtm::util::rng gen(GetParam());
  const core::migration_market market(random_market(gen));
  const auto eq = core::solve_equilibrium(market);
  const auto check = core::verify_equilibrium(market, eq, 256);
  EXPECT_TRUE(check.holds(1e-3 * std::max(1.0, eq.leader_utility)))
      << "leader gain " << check.max_leader_gain << ", follower gain "
      << check.max_follower_gain << ", regime " << to_string(eq.regime);
}

TEST_P(random_market_sweep, capacity_and_box_respected) {
  vtm::util::rng gen(GetParam());
  const auto params = random_market(gen);
  const core::migration_market market(params);
  const auto eq = core::solve_equilibrium(market);
  EXPECT_GE(eq.price, params.unit_cost - 1e-9);
  EXPECT_LE(eq.price, params.price_cap + 1e-9);
  EXPECT_LE(eq.total_demand, params.bandwidth_cap_mhz.value() + 1e-6);
  EXPECT_GE(eq.leader_utility, -1e-9);  // selling at/above cost
  for (double b : eq.demands) EXPECT_GE(b, 0.0);
}

TEST_P(random_market_sweep, raising_cost_never_lowers_price) {
  vtm::util::rng gen(GetParam());
  auto params = random_market(gen);
  const auto base =
      core::solve_equilibrium(core::migration_market(params));
  auto costlier = params;
  costlier.unit_cost = std::min(params.unit_cost * 1.5, params.price_cap);
  const auto shifted =
      core::solve_equilibrium(core::migration_market(costlier));
  EXPECT_GE(shifted.price, base.price - 1e-6);
  EXPECT_LE(shifted.leader_utility, base.leader_utility + 1e-6);
}

TEST_P(random_market_sweep, adding_a_vmu_never_hurts_the_msp) {
  vtm::util::rng gen(GetParam());
  auto params = random_market(gen);
  const auto base =
      core::solve_equilibrium(core::migration_market(params));
  auto larger = params;
  larger.vmus.push_back({gen.uniform(500.0, 2000.0),
                         gen.uniform(100.0, 300.0)});
  const auto grown =
      core::solve_equilibrium(core::migration_market(larger));
  // The MSP can always ignore the newcomer's demand, so its utility is
  // weakly monotone in the population.
  EXPECT_GE(grown.leader_utility, base.leader_utility - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(seeds, random_market_sweep,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---- autograd stress: random DAGs ---------------------------------------------------

namespace {

/// Build a random scalar expression over two parameter matrices using a
/// pool of smooth ops (kinked ops excluded: finite differences straddle
/// their non-differentiable points).
nn::variable random_graph(const nn::variable& a, const nn::variable& b,
                          std::uint64_t seed) {
  vtm::util::rng gen(seed);
  std::vector<nn::variable> pool{a, b, a + b, a * b};
  for (int step = 0; step < 6; ++step) {
    const auto pick = [&]() -> const nn::variable& {
      return pool[static_cast<std::size_t>(gen.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
    };
    const auto op = gen.uniform_int(0, 5);
    switch (op) {
      case 0:
        pool.push_back(nn::tanh(pick()));
        break;
      case 1:
        pool.push_back(nn::sigmoid(pick()));
        break;
      case 2:
        pool.push_back(pick() * gen.uniform(-2.0, 2.0));
        break;
      case 3:
        pool.push_back(pick() + pick());
        break;
      case 4:
        pool.push_back(pick() * pick());
        break;
      default:
        pool.push_back(nn::square(pick()));
        break;
    }
  }
  return nn::mean(pool.back() + pool[pool.size() / 2]);
}

}  // namespace

class autograd_stress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(autograd_stress, random_graph_matches_finite_differences) {
  vtm::util::rng gen(GetParam() * 7919);
  nn::tensor ta({2, 3});
  nn::tensor tb({2, 3});
  for (auto& x : ta.flat()) x = gen.uniform(-0.8, 0.8);
  for (auto& x : tb.flat()) x = gen.uniform(-0.8, 0.8);
  auto a = nn::variable::parameter(ta);
  auto b = nn::variable::parameter(tb);
  const auto result = nn::check_gradients(
      [&] { return random_graph(a, b, GetParam()); }, {a, b}, 1e-6, 5e-4);
  EXPECT_TRUE(result.passed) << result.detail << " (rel "
                             << result.max_rel_err << ")";
}

INSTANTIATE_TEST_SUITE_P(seeds, autograd_stress,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- RNG statistics -------------------------------------------------------------------

TEST(rng_statistics, chi_square_uniformity) {
  vtm::util::rng gen(20230910);
  constexpr int bins = 64;
  constexpr int draws = 64 * 2000;
  std::vector<int> counts(bins, 0);
  for (int i = 0; i < draws; ++i) {
    const auto bin = static_cast<int>(gen.uniform() * bins);
    ++counts[std::min(bin, bins - 1)];
  }
  const double expected = static_cast<double>(draws) / bins;
  double chi_square = 0.0;
  for (int c : counts)
    chi_square += (c - expected) * (c - expected) / expected;
  // 63 degrees of freedom: mean 63, stddev ~11.2. Accept within ±5σ.
  EXPECT_GT(chi_square, 63.0 - 5.0 * 11.2);
  EXPECT_LT(chi_square, 63.0 + 5.0 * 11.2);
}

TEST(rng_statistics, lag_one_autocorrelation_negligible) {
  vtm::util::rng gen(424242);
  constexpr int n = 100000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = gen.uniform();
  double num = 0.0, den = 0.0;
  const double mu = vtm::util::mean(xs);
  for (int i = 0; i + 1 < n; ++i) {
    num += (xs[i] - mu) * (xs[i + 1] - mu);
  }
  for (double x : xs) den += (x - mu) * (x - mu);
  const double rho = num / den;
  EXPECT_LT(std::abs(rho), 0.01);  // ~3σ for n = 1e5 is 0.0095
}

TEST(rng_statistics, normal_tail_mass) {
  vtm::util::rng gen(7777);
  constexpr int n = 200000;
  int beyond_two_sigma = 0;
  for (int i = 0; i < n; ++i)
    if (std::abs(gen.normal()) > 2.0) ++beyond_two_sigma;
  const double fraction = static_cast<double>(beyond_two_sigma) / n;
  EXPECT_NEAR(fraction, 0.0455, 0.004);  // P(|Z| > 2) = 4.55%
}

// ---- OFDMA fuzz --------------------------------------------------------------------------

class ofdma_fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ofdma_fuzz, orthogonality_invariant_under_random_churn) {
  vtm::util::rng gen(GetParam());
  const double capacity = gen.uniform(10.0, 100.0);
  vtm::wireless::ofdma_pool pool(capacity);
  std::vector<vtm::wireless::grant_id> live;
  double booked = 0.0;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || gen.bernoulli(0.6)) {
      const double request = gen.uniform(0.5, capacity / 3.0);
      const auto grant = pool.allocate(request);
      if (grant) {
        live.push_back(*grant);
        booked += request;
      } else {
        // Rejection is only allowed when the request truly does not fit.
        EXPECT_GT(request, pool.available_mhz() + 1e-12);
      }
    } else {
      const auto idx = static_cast<std::size_t>(gen.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const double size = pool.grant_mhz(live[idx]).value();
      EXPECT_TRUE(pool.release(live[idx]));
      booked -= size;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    EXPECT_NEAR(pool.allocated_mhz(), booked, 1e-6);
    EXPECT_LE(pool.allocated_mhz(), capacity + 1e-9);
    EXPECT_EQ(pool.active_grants(), live.size());
  }
}

INSTANTIATE_TEST_SUITE_P(seeds, ofdma_fuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---- quantity conversion properties -----------------------------------------

// Random sweep: dBm -> watts -> dBm and dB -> linear -> dB round-trip to
// within a few ulps of the log-domain magnitude, and both maps are strictly
// monotone (more dB is always more power). The pow/log10 composition cannot
// be exactly 1 ulp: representing the scaled exponent (x - 30)/10 already
// costs eps·|x - 30|/10 of absolute error before pow runs, so the tight
// bound is relative to the shifted magnitude, not to the input's own ulp
// (measured worst case over 2M draws: 2.9e-14 at the -160 dBm edge, against
// a 4·eps·(|x| + 31) budget of 1.7e-13 there).
TEST(quantity_properties, dbm_watt_round_trip_within_ulp_budget) {
  constexpr double eps = std::numeric_limits<double>::epsilon();
  vtm::util::rng gen(20230807);
  for (int i = 0; i < 2000; ++i) {
    const double level = gen.uniform(-160.0, 60.0);  // noise floor..60 dBm
    const vtm::util::dbm typed{level};
    const double back =
        vtm::util::to_dbm(vtm::util::to_watts(typed)).value();
    EXPECT_NEAR(back, level, 4.0 * eps * (std::abs(level) + 31.0))
        << "dBm->W->dBm drifted at " << level;
  }
}

TEST(quantity_properties, db_linear_round_trip_within_ulp_budget) {
  constexpr double eps = std::numeric_limits<double>::epsilon();
  vtm::util::rng gen(20230808);
  for (int i = 0; i < 2000; ++i) {
    const double gain = gen.uniform(-120.0, 120.0);
    const double back =
        vtm::util::to_db(vtm::util::to_linear(vtm::util::db{gain})).value();
    EXPECT_NEAR(back, gain, 4.0 * eps * (std::abs(gain) + 1.0))
        << "dB->linear->dB drifted at " << gain;
  }
}

TEST(quantity_properties, log_maps_are_strictly_monotone) {
  vtm::util::rng gen(20230809);
  for (int i = 0; i < 500; ++i) {
    const double lo = gen.uniform(-160.0, 59.0);
    const double hi = lo + gen.uniform(1e-9, 10.0);
    EXPECT_LT(vtm::util::to_watts(vtm::util::dbm{lo}).value(),
              vtm::util::to_watts(vtm::util::dbm{hi}).value());
    EXPECT_LT(vtm::util::to_linear(vtm::util::db{lo}),
              vtm::util::to_linear(vtm::util::db{hi}));
  }
}
