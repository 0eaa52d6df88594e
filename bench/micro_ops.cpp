// Microbenchmarks (google-benchmark) of the hot operations behind the
// figures: equilibrium solves, market evaluation, environment steps, policy
// inference, PPO updates, pre-copy migration, and the event queue.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <type_traits>

#include "core/env.hpp"
#include "core/equilibrium.hpp"
#include "core/mechanism.hpp"
#include "core/multi_msp.hpp"
#include "rl/buffer.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "sim/event_queue.hpp"
#include "sim/precopy.hpp"
#include "util/rng.hpp"

namespace {

vtm::core::market_params market_of(std::size_t n_vmus) {
  vtm::core::market_params params;
  params.vmus.assign(n_vmus, vtm::core::vmu_profile{500.0, 100.0});
  return params;
}

void bm_equilibrium_closed_form(benchmark::State& state) {
  const vtm::core::migration_market market(
      market_of(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(vtm::core::solve_equilibrium(market));
}
BENCHMARK(bm_equilibrium_closed_form)->Arg(2)->Arg(6)->Arg(32)->Arg(256);

void bm_equilibrium_numeric(benchmark::State& state) {
  const vtm::core::migration_market market(
      market_of(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(vtm::core::solve_equilibrium_numeric(market));
}
BENCHMARK(bm_equilibrium_numeric)->Arg(2)->Arg(6)->Arg(32);

void bm_market_demands(benchmark::State& state) {
  const vtm::core::migration_market market(
      market_of(static_cast<std::size_t>(state.range(0))));
  double price = 20.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(market.demands(price));
    price = price < 45.0 ? price + 0.01 : 20.0;
  }
}
BENCHMARK(bm_market_demands)->Arg(2)->Arg(32)->Arg(256);

vtm::core::multi_msp_params oligopoly_of(std::size_t n_msps,
                                         std::size_t n_vmus) {
  vtm::core::multi_msp_params params;
  params.share_sharpness = 0.25;
  for (std::size_t m = 0; m < n_msps; ++m)
    params.msps.push_back({5.0 + 0.5 * static_cast<double>(m), 50.0, 50.0});
  vtm::util::rng gen(11);
  for (std::size_t n = 0; n < n_vmus; ++n)
    params.vmus.push_back(
        {300.0 + 400.0 * gen.uniform(), 60.0 + 80.0 * gen.uniform()});
  return params;
}

void bm_solve_price_competition(benchmark::State& state) {
  const vtm::core::multi_msp_market market(
      oligopoly_of(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(1))));
  for (auto _ : state)
    benchmark::DoNotOptimize(vtm::core::solve_price_competition(market));
}
BENCHMARK(bm_solve_price_competition)
    ->Args({2, 64})
    ->Args({2, 1024})
    ->Args({4, 64})
    ->Args({4, 1024})
    ->Args({8, 64})
    ->Args({8, 1024})
    ->Unit(benchmark::kMicrosecond);

void bm_env_step(benchmark::State& state) {
  vtm::core::pricing_env env(
      vtm::core::migration_market(market_of(2)), {});
  (void)env.reset();
  const vtm::nn::tensor action({1, 1}, {0.1});
  std::size_t round = 0;
  for (auto _ : state) {
    if (round++ % 100 == 0) (void)env.reset();
    benchmark::DoNotOptimize(env.step(action));
  }
}
BENCHMARK(bm_env_step);

void bm_policy_act(benchmark::State& state) {
  vtm::util::rng gen(1);
  vtm::rl::actor_critic_config config;
  config.obs_dim = 12;
  config.hidden = {64, 64};
  const vtm::rl::actor_critic policy(config, gen);
  const vtm::nn::tensor obs({1, 12}, 0.3);
  vtm::util::rng act_gen(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(policy.act(obs, act_gen));
}
BENCHMARK(bm_policy_act);

void bm_ppo_update(benchmark::State& state) {
  vtm::util::rng gen(3);
  vtm::rl::actor_critic_config net_config;
  net_config.obs_dim = 12;
  net_config.hidden = {64, 64};
  vtm::rl::actor_critic policy(net_config, gen);
  vtm::rl::ppo_config ppo_config;
  ppo_config.epochs = 10;
  ppo_config.minibatch_size = 20;
  vtm::util::rng ppo_gen(4);
  vtm::rl::ppo learner(policy, ppo_config, ppo_gen);

  vtm::rl::rollout_buffer buffer(20, 12, 1);
  vtm::util::rng fill(5);
  const vtm::nn::tensor obs({1, 12}, 0.3);
  for (int i = 0; i < 20; ++i) {
    vtm::nn::tensor action({1, 1}, {fill.normal()});
    buffer.add(obs, action, fill.uniform(), 0.0, -1.0, false);
  }
  buffer.compute_advantages(0.95, 0.95, 0.0);
  for (auto _ : state) benchmark::DoNotOptimize(learner.update(buffer));
}
BENCHMARK(bm_ppo_update);

void bm_precopy_migration(benchmark::State& state) {
  const auto twin = vtm::sim::vehicular_twin::with_total_mb(1, 200.0);
  vtm::sim::precopy_params params;
  params.dirty_rate_mb_s = vtm::util::mb_per_s{static_cast<double>(state.range(0))};
  for (auto _ : state)
    benchmark::DoNotOptimize(vtm::sim::run_precopy(twin, 500.0, params));
}
BENCHMARK(bm_precopy_migration)->Arg(0)->Arg(100)->Arg(400);

// A payload shaped like core::shard_engine's typed event: a kind tag plus a
// vehicle/pool/slot index and a handover's RSU pair, 16 trivially-copyable
// bytes.
struct shard_shaped_event {
  std::uint8_t kind = 0;
  std::uint32_t index = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

// Hold model: the queue sits at a live depth of range(0) events, and each
// iteration is one pop (dispatched) plus one push 0–10 s ahead — the steady
// state of a fleet run's future-event set.
template <class Event>
void bm_event_queue_throughput(benchmark::State& state) {
  vtm::sim::basic_event_queue<Event> queue;
  vtm::util::rng gen(7);
  std::uint64_t sink = 0;
  // The callback flavour captures the same fields plus a pointer, as the
  // engine's closures did; 24 bytes exceed std::function's inline buffer,
  // so each of its schedules allocates.
  const auto make = [&sink](std::uint32_t i) -> Event {
    const shard_shaped_event e{1, i, i + 1, i + 2};
    if constexpr (std::is_same_v<Event, shard_shaped_event>)
      return e;
    else
      return [&sink, e] { sink += e.index; };
  };
  const auto dispatch = [&sink](Event& e) {
    if constexpr (std::is_same_v<Event, shard_shaped_event>)
      sink += e.index;
    else
      e();
  };
  std::uint32_t i = 0;
  const auto depth = static_cast<std::size_t>(state.range(0));
  while (queue.pending() < depth)
    queue.schedule(gen.uniform(0.0, 10.0), make(i++));
  for (auto _ : state) {
    queue.step(dispatch);
    queue.schedule_in(gen.uniform(0.0, 10.0), make(i++));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(bm_event_queue_throughput<std::function<void()>>)
    ->Arg(100)->Arg(10'000)->Arg(100'000);
BENCHMARK(bm_event_queue_throughput<shard_shaped_event>)
    ->Arg(100)->Arg(10'000)->Arg(100'000);

void bm_rng_normal(benchmark::State& state) {
  vtm::util::rng gen(7);
  for (auto _ : state) benchmark::DoNotOptimize(gen.normal());
}
BENCHMARK(bm_rng_normal);

}  // namespace

BENCHMARK_MAIN();
