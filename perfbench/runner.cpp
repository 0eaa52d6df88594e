// perfbench_runner: the workloads behind BENCHMARK.json.
//
//   perfbench_runner --workload NAME --seed N --seconds S --mode MODE
//                    [--scale full|tiny] [--out-dir DIR]
//
// MODE `timed` sets the workload up repeatedly (median = setup_s), then
// repeats its measured calls with no telemetry sink attached while another
// repetition fits in S seconds, checks every repetition's outputs, and
// prints the end-to-end figures averaged over the repetitions. MODE
// `traced` re-runs a fraction of the workload with a util::trace_session
// and a util::metrics_registry attached, interleaved with untraced runs of
// the same size (telemetry overhead), replays the layer functions on inputs
// harvested from the workload, and writes the Chrome trace plus the merged
// metrics to DIR for perfbench/analysis.py (the stream adds a 4-shard pass
// in its own trace).
// Either way the last stdout line is one JSON object; perfbench/run.py turns
// it into the benchmark's result line.
//
// The workload seed only feeds the generated configs (fleet seeds, training
// seeds, held-out seeds); the library sees nothing else. Workload choice and
// sizes are documented next to each definition below and in BENCHMARK.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/equilibrium.hpp"
#include "core/fleet_scenario.hpp"
#include "core/fleet_shard.hpp"
#include "core/mechanism.hpp"
#include "rl/buffer.hpp"
#include "rl/policy.hpp"
#include "rl/ppo.hpp"
#include "sim/event_queue.hpp"
#include "sim/precopy.hpp"
#include "sim/road_graph.hpp"
#include "sim/vt.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
using vtm::util::seconds;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Whether one more repetition, at the mean length of the `done` so far,
/// still ends within `budget_s` of `start`.
bool fits(clock_type::time_point start, std::size_t done, double budget_s) {
  const double elapsed = seconds_since(start);
  return done == 0 ||
         elapsed * (1.0 + 1.0 / static_cast<double>(done)) <= budget_s;
}

/// Independent sub-seed k of the workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + k;
  return vtm::util::splitmix64(state);
}

/// Peak resident set of this program image (VmHWM). Unlike ru_maxrss it
/// restarts at exec, so the parent (perfbench/run.py) does not leak in.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

// --- output checks (copied from bench/fleet_throughput.cpp) ----------------

/// Exactly-once flush accounting for a streaming run: the totals are the sum
/// of the per-window deltas, the handover ledger balances, and every arrival
/// retires into exactly one flush.
bool stream_conserved(const vtm::core::streaming_result& r) {
  std::size_t flush_handovers = 0;
  std::size_t flush_completed = 0;
  std::size_t flush_vehicles = 0;
  for (const auto& flush : r.flushes) {
    flush_handovers += flush.handovers;
    flush_completed += flush.completed;
    flush_vehicles += flush.vehicles.size();
  }
  return r.totals.handovers ==
             r.totals.completed + r.totals.priced_out + r.totals.abandoned &&
         flush_handovers == r.totals.handovers &&
         flush_completed == r.totals.completed &&
         r.retired == r.arrivals && flush_vehicles == r.arrivals &&
         r.totals.vehicles.size() == r.arrivals &&
         r.slot_high_water <= r.peak_live + 1;
}

/// Exactly-once resolution + per-seller profit decomposition for one
/// oligopoly run, with every clearing certified (unconverged == 0).
bool oligopoly_conserved(const vtm::core::fleet_config& config,
                         const vtm::core::fleet_result& r,
                         std::size_t msps) {
  std::size_t twin_migrations = 0;
  for (const auto& v : r.vehicles) twin_migrations += v.migrations;
  double split = 0.0;
  for (const double u : r.msp_utilities) split += u;
  const double tolerance =
      1e-9 * (std::abs(r.msp_total_utility) > 1.0
                  ? std::abs(r.msp_total_utility)
                  : 1.0);
  return r.handovers == r.completed + r.priced_out + r.abandoned &&
         r.vehicles.size() == config.vehicle_count &&
         twin_migrations == r.completed &&
         r.msp_utilities.size() == msps &&
         std::abs(split - r.msp_total_utility) <= tolerance &&
         r.unconverged_clearings == 0;
}

bool fleet_conserved(const vtm::core::fleet_result& r) {
  return r.handovers == r.completed + r.priced_out + r.abandoned;
}

/// Every counter of a fleet result plus its AoTM, for the bitwise
/// repetition check.
std::vector<double> fleet_signature(const vtm::core::fleet_result& r) {
  return {static_cast<double>(r.handovers),
          static_cast<double>(r.deferred),
          static_cast<double>(r.priced_out),
          static_cast<double>(r.abandoned),
          static_cast<double>(r.completed),
          static_cast<double>(r.clearings),
          static_cast<double>(r.max_cohort),
          static_cast<double>(r.cross_shard_transfers),
          static_cast<double>(r.cross_shard_retargets),
          static_cast<double>(r.late_handoffs),
          static_cast<double>(r.unconverged_clearings),
          static_cast<double>(r.solver_sweeps),
          static_cast<double>(r.objective_evals),
          static_cast<double>(r.warm_started_clearings),
          r.msp_total_utility,
          r.vmu_total_utility,
          r.mean_aotm};
}

// --- workloads ---------------------------------------------------------------

/// What one repetition of a workload's measured calls produced.
struct rep_result {
  double wall_s = 0.0;        ///< Wall time of the measured calls.
  double rate_wall_s = 0.0;   ///< Wall time the migration rate divides by.
  double migrations = 0.0;    ///< Completed migrations over rate_wall_s.
  double aotm_weighted = 0.0; ///< Σ completed × mean_aotm.
  double handovers = 0.0;
  double abandoned = 0.0;
  std::size_t checks = 0;     ///< Output checks made.
  std::size_t failures = 0;   ///< Output checks failed.
  std::vector<double> signature;
  // Fleet-engine counters for the traced breakdown.
  double deferred = 0.0;
  double clearings = 0.0;
  double objective_evals = 0.0;
  double solver_sweeps = 0.0;
  double warm_started = 0.0;
  double unconverged = 0.0;
  double late_handoffs = 0.0;
  double vehicles = 0.0;  ///< Arrivals (streams) or spawned vehicles.
  double depth = 0.0;     ///< Largest live population of one run.
  // pricer_learning only.
  double train_s = 0.0;
  double learned_over_oracle = 0.0;  ///< Mean over training seeds.
  std::size_t seeds = 0;             ///< Trained pricers scored.
  std::size_t seeds_below_floor = 0;
  std::vector<double> episode_s;     ///< Per-episode wall times.
  std::vector<vtm::core::cohort_snapshot> cohorts;     ///< Harvest pass.
  std::vector<vtm::core::migration_record> records;    ///< Harvest pass.

  void add_fleet(const vtm::core::fleet_result& r) {
    migrations += static_cast<double>(r.completed);
    aotm_weighted += static_cast<double>(r.completed) * r.mean_aotm;
    handovers += static_cast<double>(r.handovers);
    abandoned += static_cast<double>(r.abandoned);
    deferred += static_cast<double>(r.deferred);
    clearings += static_cast<double>(r.clearings);
    objective_evals += static_cast<double>(r.objective_evals);
    solver_sweeps += static_cast<double>(r.solver_sweeps);
    warm_started += static_cast<double>(r.warm_started_clearings);
    unconverged += static_cast<double>(r.unconverged_clearings);
    late_handoffs += static_cast<double>(r.late_handoffs);
    const auto sig = fleet_signature(r);
    signature.insert(signature.end(), sig.begin(), sig.end());
  }
  void check(bool ok) {
    ++checks;
    if (!ok) ++failures;
  }
};

/// Sinks and capture switches for one repetition. Timed runs pass the
/// default (nothing attached, nothing recorded).
struct rep_options {
  vtm::util::trace_session* trace = nullptr;
  vtm::util::metrics_registry* metrics = nullptr;
  bool harvest = false;  ///< record_cohorts + record_migrations.
  /// The benchmark's own lane: spans around each library call.
  vtm::util::trace_lane* bench = nullptr;
  /// Fraction of the workload a traced repetition covers (1 = all of it).
  double fraction = 1.0;
  /// Shard lanes of the stream (the other workloads are serial).
  std::size_t shards = 1;
};

void attach(vtm::core::fleet_config& config, const rep_options& options) {
  config.telemetry.trace = options.trace;
  config.telemetry.metrics = options.metrics;
  config.record_cohorts = options.harvest;
  config.record_migrations = options.harvest;
}

class workload {
 public:
  virtual ~workload() = default;
  workload() = default;
  workload(const workload&) = delete;
  workload& operator=(const workload&) = delete;

  /// Build the graph and configs and validate them; repeated for setup_s.
  virtual void setup() = 0;
  /// One repetition of the measured calls.
  virtual rep_result run(const rep_options& options) = 0;
  /// Fraction of the workload one traced repetition covers.
  virtual double traced_fraction() const = 0;
  /// Shard lanes of the traced sharded companion run (0: none).
  virtual std::size_t companion_shards() const { return 0; }
  /// The fleet configuration the harvested migrations ran under.
  virtual const vtm::core::fleet_config& harvested_fleet() const = 0;
};

// stream_grid4. Why: the ROADMAP's headline regime — a serial open-system
// Poisson stream (λ = 6/s, ~1M arrivals) over the 4x4 grid's 24 RSU sites
// and 35 routes, oracle pricing, joint clearing. Event dispatch, mobility and
// pre-copy dominate and cohorts are tiny, so an event-core change shows here
// and a solver change should not. Its traced run also replays the same
// inputs on 4 shard lanes (= the 4 cores this was sized on), the only place
// coordinator windows, mailbox exchange, barrier waits and lane imbalance
// matter. That sharded run is not timed end to end: its window barriers
// park and wake a thread per lane thousands of times, and on a shared VM its
// wall time swung by 30-40% between sets of runs, past any usable bound.
class stream_workload final : public workload {
 public:
  stream_workload(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup() override {
    config_ = {};
    config_.base.graph = std::make_shared<const vtm::sim::road_graph>(
        vtm::sim::road_graph::grid(4, 4, 1000.0, 600.0));
    config_.base.record_migrations = false;
    config_.base.seed = sub_seed(seed_, 1);
    config_.arrival_rate_per_s = vtm::util::per_second{6.0};
    config_.horizon_s = seconds{tiny_ ? 400.0 : 166667.0};
    config_.flush_period_s = seconds{50.0};
    auto validated = config_;
    validated.base.duration_s = validated.horizon_s;
    vtm::core::validate_streaming_config(validated);
  }

  rep_result run(const rep_options& options) override {
    auto config = config_;
    attach(config.base, options);
    config.base.shard_count = options.shards;
    config.horizon_s = seconds{config_.horizon_s.value() * options.fraction};
    rep_result rep;
    const auto start = clock_type::now();
    vtm::util::trace_span span(options.bench, "bench.run_streaming_fleet");
    const auto r = vtm::core::run_streaming_fleet(config);
    span.finish();
    rep.wall_s = seconds_since(start);
    rep.rate_wall_s = rep.wall_s;
    rep.add_fleet(r.totals);
    rep.vehicles = static_cast<double>(r.arrivals);
    rep.depth = static_cast<double>(r.peak_live);
    rep.signature.push_back(static_cast<double>(r.arrivals));
    rep.signature.push_back(static_cast<double>(r.peak_live));
    rep.signature.push_back(static_cast<double>(r.flushes.size()));
    rep.check(stream_conserved(r));
    if (options.harvest) {
      rep.cohorts = r.totals.cohorts;
      rep.records = r.totals.migrations;
    }
    return rep;
  }

  // A full traced stream is ~1M trace events (166 MB of JSON); an eighth
  // keeps the same steady state at a readable trace size.
  double traced_fraction() const override { return tiny_ ? 1.0 : 0.125; }
  std::size_t companion_shards() const override { return 4; }
  const vtm::core::fleet_config& harvested_fleet() const override {
    return config_.base;
  }

 private:
  std::uint64_t seed_;
  bool tiny_;
  vtm::core::streaming_config config_;
};

// oligopoly_m8. Why: competitive clearing dominates — a closed population of
// 5000 vehicles on the default 8-RSU chain for 120 s under
// market_mode::oligopoly with 8 symmetric MSPs, over a fixed batch of 20
// fleet seeds. comarket.clear is most of the window time and the event queue
// carries little, so a multi_msp solver change shows here and nowhere else.
class oligopoly_workload final : public workload {
 public:
  oligopoly_workload(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  static constexpr std::size_t kMsps = 8;

  /// One validated config per fleet of the batch.
  void setup() override {
    configs_.clear();
    const std::size_t batch = tiny_ ? 2 : 20;
    for (std::size_t i = 0; i < batch; ++i) {
      vtm::core::fleet_config config;
      config.vehicle_count = tiny_ ? 200 : 5000;
      config.duration_s = seconds{tiny_ ? 30.0 : 120.0};
      config.mode = vtm::core::market_mode::oligopoly;
      config.record_migrations = false;
      for (std::size_t m = 0; m < kMsps; ++m)
        config.msps.push_back({vtm::util::meters{0.0}, config.unit_cost,
                               config.price_cap,
                               config.bandwidth_per_pool_mhz});
      config.seed = sub_seed(seed_, 100 + i);
      vtm::core::validate_fleet_config(config);
      configs_.push_back(std::move(config));
    }
  }

  rep_result run(const rep_options& options) override {
    rep_result rep;
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               options.fraction * static_cast<double>(configs_.size()))));
    for (std::size_t i = 0; i < count; ++i) {
      auto config = configs_[i];
      attach(config, options);
      config.record_cohorts = false;  // joint mode only (see below)
      const auto start = clock_type::now();
      vtm::util::trace_span span(options.bench, "bench.run_fleet_scenario");
      const auto r = vtm::core::run_fleet_scenario(config);
      span.finish();
      rep.wall_s += seconds_since(start);
      rep.add_fleet(r);
      rep.vehicles += static_cast<double>(config.vehicle_count);
      rep.depth = static_cast<double>(config.vehicle_count);
      rep.check(oligopoly_conserved(config, r, kMsps));
      if (options.harvest) {
        rep.records.insert(rep.records.end(), r.migrations.begin(),
                           r.migrations.end());
        // Oligopoly clearings record no single-seller cohort; the
        // equilibrium replay prices the same population's joint cohorts.
        auto joint = config;
        joint.mode = vtm::core::market_mode::joint;
        joint.msps.clear();
        joint.telemetry = {};
        joint.record_cohorts = true;
        joint.record_migrations = false;
        auto cohorts = vtm::core::run_fleet_scenario(joint).cohorts;
        rep.cohorts.insert(rep.cohorts.end(), cohorts.begin(), cohorts.end());
      }
    }
    rep.rate_wall_s = rep.wall_s;
    return rep;
  }

  double traced_fraction() const override { return tiny_ ? 1.0 : 0.25; }
  const vtm::core::fleet_config& harvested_fleet() const override {
    return configs_.front();
  }

 private:
  std::uint64_t seed_;
  bool tiny_;
  std::vector<vtm::core::fleet_config> configs_;
};

// pricer_learning. Why: the paper's learning mechanism — train_fleet_pricer
// at its default budget (300 episodes, PPO, B = 4) on cohorts harvested from
// a 100- and a 5000-vehicle fleet, over a fixed set of four training seeds,
// then each trained pricer scored against the oracle on 24 held-out
// 500-vehicle fleets (uncongested enough that the price cap does not bind,
// so the ratio is informative; 24 rather than 8 keeps the seed-to-seed
// spread of mean_aotm_s under a third of its bound). Only here do nn/rl do
// most of the work while the fleet engine idles, and it times the paper's
// claim that DRL reaches the Stackelberg price without full information.
class pricer_workload final : public workload {
 public:
  pricer_workload(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  /// Held-out utility floor, learned over oracle, per trained pricer (the
  /// acceptance bar tests/fleet_pricer_test.cpp sets for the congested fleet).
  static constexpr double kFloor = 0.95;

  void setup() override {
    train_ = {};
    auto small = fleet(100, 60.0);
    auto large = fleet(tiny_ ? 500 : 5000, 30.0);
    small.seed = sub_seed(seed_, 200);
    large.seed = sub_seed(seed_, 201);
    train_.harvest = {small, large};
    if (tiny_) train_.episodes = 8;
    heldout_.clear();
    oracle_utility_.clear();
    for (std::size_t i = 0; i < (tiny_ ? 1 : 24); ++i) {
      auto held = fleet(tiny_ ? 100 : 500, 120.0);
      held.seed = sub_seed(seed_, 300 + i);
      vtm::core::validate_fleet_config(held);
      heldout_.push_back(held);
    }
    for (const auto& config : train_.harvest)
      vtm::core::validate_fleet_config(config);
    seeds_.clear();
    for (std::size_t i = 0; i < (tiny_ ? 1 : 4); ++i)
      seeds_.push_back(sub_seed(seed_, 400 + i));
    // The held-out oracle references every scored pricer is divided by.
    for (const auto& held : heldout_)
      oracle_utility_.push_back(
          vtm::core::run_fleet_scenario(held).msp_total_utility);
  }

  rep_result run(const rep_options& options) override {
    rep_result rep;
    if (options.harvest) {
      // The harvest fleets re-run with recording on (mechanism.harvest_s);
      // they do not depend on the training seed.
      const auto start = clock_type::now();
      for (auto harvest : train_.harvest) {
        attach(harvest, options);
        const auto h = vtm::core::run_fleet_scenario(harvest);
        rep.add_fleet(h);
        rep.vehicles += static_cast<double>(harvest.vehicle_count);
        rep.depth = std::max(rep.depth,
                             static_cast<double>(harvest.vehicle_count));
        rep.check(fleet_conserved(h));
        rep.cohorts.insert(rep.cohorts.end(), h.cohorts.begin(),
                           h.cohorts.end());
        rep.records.insert(rep.records.end(), h.migrations.begin(),
                           h.migrations.end());
      }
      rep.wall_s = seconds_since(start);
      rep.rate_wall_s = rep.wall_s;
      return rep;
    }
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               options.fraction * static_cast<double>(seeds_.size()))));
    double ratio_sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      auto config = train_;
      config.seed = seeds_[i];
      for (auto& harvest : config.harvest) attach(harvest, options);
      // The vector trainer finishes its B lockstep episodes together, so an
      // episode's wall time is one lockstep batch's gap divided by B. The
      // first batch also covers the cohort harvest and is skipped.
      const std::size_t lockstep = config.rollout.num_envs;
      std::size_t calls = 0;
      auto last = clock_type::now();
      const auto on_episode = [&](const vtm::rl::episode_stats&) {
        if (++calls % lockstep != 0) return;
        const auto now = clock_type::now();
        if (calls > lockstep)
          rep.episode_s.push_back(
              std::chrono::duration<double>(now - last).count() /
              static_cast<double>(lockstep));
        last = now;
      };
      const auto start = clock_type::now();
      vtm::util::trace_span span(options.bench, "bench.train_fleet_pricer");
      const auto trained = vtm::core::train_fleet_pricer(config, on_episode);
      span.finish();
      rep.train_s += seconds_since(start);
      rep.signature.push_back(trained.eval_mean_ratio);

      double learned = 0.0;
      double oracle = 0.0;
      for (std::size_t h = 0; h < heldout_.size(); ++h) {
        auto scored = heldout_[h];
        attach(scored, options);
        scored.pricing = vtm::core::pricing_backend::learned;
        scored.pricer = trained.pricer;
        const auto score_start = clock_type::now();
        vtm::util::trace_span score_span(options.bench,
                                         "bench.run_fleet_scenario");
        const auto r = vtm::core::run_fleet_scenario(scored);
        score_span.finish();
        rep.rate_wall_s += seconds_since(score_start);
        rep.add_fleet(r);
        rep.vehicles += static_cast<double>(scored.vehicle_count);
        rep.depth = static_cast<double>(scored.vehicle_count);
        rep.check(fleet_conserved(r));
        learned += r.msp_total_utility;
        oracle += oracle_utility_[h];
      }
      const double over = ratio(learned, oracle);
      ++rep.seeds;
      if (over < kFloor) ++rep.seeds_below_floor;
      rep.check(over >= kFloor);
      ratio_sum += over;
    }
    // run_s on this workload is train_fleet_pricer's wall time summed over
    // the training seeds; scoring feeds migrations_per_s.
    rep.wall_s = rep.train_s;
    rep.learned_over_oracle = ratio_sum / static_cast<double>(count);
    return rep;
  }

  // Two of the four training seeds: 148 episode samples, so p90 has more
  // than ten beyond it.
  double traced_fraction() const override { return tiny_ ? 1.0 : 0.5; }
  const vtm::core::fleet_config& harvested_fleet() const override {
    return train_.harvest.front();
  }

 private:
  static vtm::core::fleet_config fleet(std::size_t vehicles, double horizon) {
    vtm::core::fleet_config config;
    config.vehicle_count = vehicles;
    config.duration_s = seconds{horizon};
    config.record_migrations = false;
    return config;
  }

  std::uint64_t seed_;
  bool tiny_;
  vtm::core::fleet_pricer_config train_;
  std::vector<vtm::core::fleet_config> heldout_;
  std::vector<double> oracle_utility_;
  std::vector<std::uint64_t> seeds_;
};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "stream_grid4")
    return std::make_unique<stream_workload>(seed, tiny);
  if (name == "oligopoly_m8")
    return std::make_unique<oligopoly_workload>(seed, tiny);
  if (name == "pricer_learning")
    return std::make_unique<pricer_workload>(seed, tiny);
  return nullptr;
}

// --- layer replays (traced mode) ---------------------------------------------

/// Time `body` over `ops` operations, repeating until at least `min_s` has
/// passed; returns nanoseconds per operation.
double time_per_op(std::size_t ops, double min_s,
                   const std::function<void()>& body) {
  std::size_t done = 0;
  const auto start = clock_type::now();
  do {
    body();
    done += ops;
  } while (seconds_since(start) < min_s);
  return 1e9 * seconds_since(start) / static_cast<double>(done);
}

struct replay_result {
  double equilibrium_ns = 0.0;
  double precopy_ns = 0.0;
  double precopy_rounds = 0.0;
  double precopy_mismatch = 0.0;  ///< Max relative AoTM error vs the record.
  double event_queue_ns = 0.0;
  double route_ns = 0.0;
  double ppo_update_ns = 0.0;
  double policy_act_ns = 0.0;
};

volatile double g_sink = 0.0;  // keeps replay results observable

replay_result run_replays(const rep_result& harvest,
                          const vtm::core::fleet_config& fleet, double events,
                          double depth, std::uint64_t seed, double min_s,
                          vtm::util::trace_lane* lane) {
  replay_result out;
  {
    vtm::util::trace_span span(lane, "replay.equilibrium");
    const auto prepared = vtm::core::prepare_cohorts(harvest.cohorts);
    if (!prepared.empty())
      out.equilibrium_ns = time_per_op(prepared.size(), min_s, [&] {
        double sum = 0.0;
        for (const auto& cohort : prepared)
          sum += vtm::core::solve_equilibrium(cohort.market).price;
        g_sink = sum;
      });
  }
  {
    // Pre-copy inputs from the migration records: in the fluid model the
    // link rate is sent / time, and D = closed-form AoTM x rate.
    vtm::util::trace_span span(lane, "replay.precopy");
    struct input {
      vtm::sim::vehicular_twin twin;
      double rate;
      double aotm;
    };
    std::vector<input> inputs;
    for (const auto& record : harvest.records) {
      if (record.aotm_simulated <= 0.0) continue;
      const double rate = record.data_sent_mb / record.aotm_simulated;
      inputs.push_back({vtm::sim::vehicular_twin::with_total_mb(
                            record.vehicle, record.aotm_closed_form * rate),
                        rate, record.aotm_simulated});
    }
    vtm::sim::precopy_params params;
    params.dirty_rate_mb_s = fleet.dirty_rate_mb_s;
    params.stop_copy_threshold_mb = fleet.stop_copy_threshold_mb;
    double rounds = 0.0;
    for (const auto& in : inputs) {
      const auto report = vtm::sim::run_precopy(in.twin, in.rate, params);
      rounds += static_cast<double>(report.rounds.size());
      out.precopy_mismatch =
          std::max(out.precopy_mismatch,
                   std::abs(report.total_time_s - in.aotm) / in.aotm);
    }
    out.precopy_rounds = ratio(rounds, static_cast<double>(inputs.size()));
    if (!inputs.empty())
      out.precopy_ns = time_per_op(inputs.size(), min_s, [&] {
        double sum = 0.0;
        for (const auto& in : inputs)
          sum += vtm::sim::run_precopy(in.twin, in.rate, params).total_time_s;
        g_sink = sum;
      });
  }
  {
    // One schedule + one step at the run's live-queue depth, as many times
    // as the run dispatched events.
    vtm::util::trace_span span(lane, "replay.event_queue");
    vtm::util::rng gen(seed);
    vtm::sim::event_queue queue;
    double fired = 0.0;
    const auto live = static_cast<std::size_t>(std::max(1.0, depth));
    for (std::size_t i = 0; i < live; ++i)
      queue.schedule(gen.uniform(0.0, 10.0), [&fired] { fired += 1.0; });
    const auto n = static_cast<std::size_t>(std::max(1.0, events));
    out.event_queue_ns = time_per_op(n, min_s, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        queue.schedule_in(gen.uniform(0.0, 10.0), [&fired] { fired += 1.0; });
        queue.step();
      }
    });
    g_sink = fired;
  }
  {
    vtm::util::trace_span span(lane, "replay.route_profile");
    const auto graph = vtm::sim::road_graph::grid(4, 4, 1000.0, 600.0);
    std::vector<vtm::sim::route_profile> profiles;
    for (std::size_t r = 0; r < graph.route_count(); ++r)
      profiles.push_back(graph.make_route_profile(r));
    std::size_t ops = 0;
    const auto walk = [&] {
      double sum = 0.0;
      ops = 0;
      for (const auto& profile : profiles) {
        for (const double speed : {20.0, 27.5, 35.0}) {
          vtm::sim::vehicle_state v{0.0, speed};
          while (auto next = profile.next_handover(v)) {
            v = profile.advance(v, next->after_s + 1e-6);
            sum += v.position_m;
            ++ops;
          }
        }
      }
      g_sink = sum;
    };
    walk();
    out.route_ns = time_per_op(std::max<std::size_t>(ops, 1), min_s, walk);
  }
  {
    // PPO update and single-observation action on an actor-critic shaped
    // like the fleet pricer (8 features, 2x64 trunk, one action), fed the
    // harvested cohort features.
    vtm::util::trace_span span(lane, "replay.rl");
    const vtm::core::fleet_pricer_config shape;
    vtm::rl::actor_critic_config net;
    net.obs_dim = vtm::core::cohort_feature_dim;
    net.act_dim = 1;
    net.hidden = shape.hidden;
    net.initial_log_std = shape.initial_log_std;
    vtm::util::rng net_gen(seed);
    vtm::rl::actor_critic policy(net, net_gen);
    vtm::util::rng ppo_gen(seed + 1);
    vtm::rl::ppo learner(policy, shape.ppo, ppo_gen);
    const auto prepared = vtm::core::prepare_cohorts(harvest.cohorts);
    std::vector<std::vector<double>> features;
    for (const auto& cohort : prepared) features.push_back(cohort.features);
    if (features.empty())
      features.emplace_back(vtm::core::cohort_feature_dim, 0.5);
    std::vector<vtm::nn::tensor> observations;
    for (const auto& row : features)
      observations.emplace_back(
          vtm::nn::shape{1, vtm::core::cohort_feature_dim}, row);
    vtm::util::rng act_gen(seed + 2);
    out.policy_act_ns = time_per_op(observations.size(), min_s / 2, [&] {
      double sum = 0.0;
      for (const auto& obs : observations)
        sum += policy.act(obs, act_gen).value;
      g_sink = sum;
    });

    const std::size_t envs = shape.rollout.num_envs;
    vtm::rl::rollout_buffer buffer(shape.update_interval,
                                   vtm::core::cohort_feature_dim, 1, envs);
    std::vector<double> obs_rows;
    for (std::size_t step = 0; step < shape.update_interval; ++step) {
      obs_rows.clear();
      for (std::size_t e = 0; e < envs; ++e) {
        const auto& row = features[(step * envs + e) % features.size()];
        obs_rows.insert(obs_rows.end(), row.begin(), row.end());
      }
      const vtm::nn::tensor batch(
          vtm::nn::shape{envs, vtm::core::cohort_feature_dim}, obs_rows);
      const auto sample = policy.act_batch(batch, act_gen);
      std::vector<double> rewards(envs);
      for (auto& r : rewards) r = act_gen.uniform(0.5, 1.0);
      const std::vector<std::uint8_t> dones(envs, 0);
      buffer.add_batch(batch, sample.actions, rewards, sample.values,
                       sample.log_probs, dones);
    }
    buffer.compute_advantages(shape.ppo.gamma, shape.ppo.gae_lambda,
                              std::vector<double>(envs, 0.0));
    out.ppo_update_ns = time_per_op(1, min_s / 2, [&] {
      g_sink = learner.update(buffer).policy_loss;
    });
  }
  return out;
}

// --- output ------------------------------------------------------------------

struct json_writer {
  std::string text = "{";
  void key(const char* k) {
    if (text.size() > 1) text += ',';
    text += '"';
    text += k;
    text += "\":";
  }
  void num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    key(k);
    text += buf;
  }
  void str(const char* k, const std::string& v) {
    key(k);
    text += '"' + v + '"';
  }
  void boolean(const char* k, bool v) {
    key(k);
    text += v ? "true" : "false";
  }
  void raw(const char* k, const std::string& v) {
    key(k);
    text += v;
  }
  std::string done() { return text + "}"; }
};

std::string provenance() {
  json_writer p;
  p.str("git_sha", PERFBENCH_GIT_SHA);
  p.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  p.str("compiler", PERFBENCH_COMPILER);
  p.str("build_type", PERFBENCH_BUILD_TYPE);
  p.str("march", PERFBENCH_MARCH);
  p.boolean("telemetry_compiled", vtm::util::telemetry_compiled());
#if defined(NDEBUG)
  p.boolean("ndebug", true);
#else
  p.boolean("ndebug", false);
#endif
  p.boolean("comparable", std::string(PERFBENCH_BUILD_TYPE) == "Release");
  return p.done();
}

/// Output checks (correct) and operations (attempted / failed): a fleet
/// operation is an admitted handover, failed when abandoned; a training
/// seed is one operation, failed when its held-out ratio is under the floor.
struct ledger {
  std::size_t checks = 0;
  std::size_t check_failures = 0;
  double attempted = 0.0;
  double failed = 0.0;

  void add(const rep_result& rep) {
    checks += rep.checks;
    check_failures += rep.failures;
    attempted += rep.handovers + static_cast<double>(rep.seeds);
    failed += rep.abandoned + static_cast<double>(rep.seeds_below_floor);
  }
  void check(bool ok) {
    ++checks;
    if (!ok) ++check_failures;
  }
};

/// The benchmark's own lane, after the `shards` shard lanes and the
/// coordinator lane the engine registers.
vtm::util::trace_lane* bench_lane(vtm::util::trace_session& session,
                                  std::size_t shards) {
  session.ensure_lanes(shards + 2);
  session.set_lane_name(shards + 1, "bench");
  return session.lane(shards + 1);
}

/// Write `<prefix>.trace.json` and `<prefix>.metrics.json` and append their
/// entry to `traces`.
bool write_sinks(std::vector<std::string>& traces, const std::string& prefix,
                 const vtm::util::trace_session& session,
                 const vtm::util::metrics_registry& registry,
                 std::size_t shards) {
  const std::string trace_path = prefix + ".trace.json";
  const std::string metrics_path = prefix + ".metrics.json";
  std::ofstream trace_out(trace_path);
  session.write_chrome_json(trace_out);
  std::ofstream metrics_out(metrics_path);
  registry.write_json(metrics_out);
  if (!trace_out || !metrics_out) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                 prefix.c_str());
    return false;
  }
  json_writer entry;
  entry.str("trace", trace_path);
  entry.str("metrics", metrics_path);
  entry.num("shards", static_cast<double>(shards));
  traces.push_back(entry.done());
  return true;
}

bool signatures_equal(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--mode timed|traced [--scale full|tiny] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string mode;
  std::string scale = "full";
  std::string out_dir = ".";
  std::uint64_t seed = 0;
  double budget_s = 0.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") name = value;
    else if (flag == "--mode") mode = value;
    else if (flag == "--scale") scale = value;
    else if (flag == "--out-dir") out_dir = value;
    else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") budget_s = std::strtod(value, nullptr);
    else return usage();
  }
  if (argc % 2 == 0 || !have_seed || budget_s <= 0.0 ||
      (mode != "timed" && mode != "traced") ||
      (scale != "full" && scale != "tiny"))
    return usage();
  const bool tiny = scale == "tiny";
  auto work = make_workload(name, seed, tiny);
  if (!work) {
    std::fprintf(stderr, "perfbench_runner: unknown workload %s\n",
                 name.c_str());
    return 2;
  }

  // Set-up (build + validate) is timed in slices of at least 3 set-ups and
  // 0.1 s, one slice before each timed repetition; the median over all of
  // them is setup_s. A single slice would only see the host as it was at
  // the start: a set-up of a few microseconds ran up to 1.7x slower in one
  // process than in the next. There is no separate warm-up: the reported
  // figures are medians over repetitions, so a cold first repetition does
  // not move them.
  std::vector<double> setups;
  const double slice_s = tiny ? 0.01 : 0.1;
  const auto set_up = [&] {
    const auto slice_start = clock_type::now();
    for (std::size_t i = 0;
         i < 3 || (i < 2000 && seconds_since(slice_start) < slice_s); ++i) {
      const auto start = clock_type::now();
      work->setup();
      setups.push_back(seconds_since(start));
    }
  };
  set_up();

  json_writer out;
  out.str("workload", name);
  out.str("mode", mode);
  out.raw("provenance", provenance());
  ledger book;
  json_writer metrics;
  std::vector<std::string> traces;  // written trace files (traced mode)

  if (mode == "timed") {
    // migrations_per_s and run_s average over every repetition rather than
    // take their median: a shared host moves between fast and slow phases
    // of 10-30 s, often within one run, and a median jumps to whichever
    // phase held more repetitions while the average weighs each phase by
    // its share of the run (BENCHMARK.md, "Noise on a shared host").
    std::vector<rep_result> reps;
    double migrations = 0.0;
    double rate_wall_s = 0.0;
    double wall_s = 0.0;
    const auto start = clock_type::now();
    const std::size_t min_reps = 3;
    while (reps.size() < min_reps || fits(start, reps.size(), budget_s)) {
      if (!reps.empty()) set_up();
      reps.push_back(work->run({}));
      const auto& rep = reps.back();
      migrations += rep.migrations;
      rate_wall_s += rep.rate_wall_s;
      wall_s += rep.wall_s;
      std::fprintf(stderr, "rep %zu: %.4f s, %.1f migrations/s\n",
                   reps.size(), rep.wall_s,
                   ratio(rep.migrations, rep.rate_wall_s));
    }
    const auto& first = reps.front();
    for (const auto& rep : reps) {
      book.add(rep);
      book.check(signatures_equal(rep.signature, first.signature));
    }
    metrics.num("setup_s", median(setups));
    metrics.num("migrations_per_s", ratio(migrations, rate_wall_s));
    metrics.num("run_s", wall_s / static_cast<double>(reps.size()));
    metrics.num("mean_aotm_s", ratio(first.aotm_weighted, first.migrations));
    metrics.num("peak_rss_mb", peak_rss_mib());
    metrics.num("learned_over_oracle", first.learned_over_oracle);
    metrics.num("repetitions", static_cast<double>(reps.size()));
    metrics.num("setups", static_cast<double>(setups.size()));
  } else {
    const double fraction = work->traced_fraction();
    const double min_replay_s = tiny ? 0.01 : 0.25;

    // Untimed harvest pass: the same fraction with recording on, so the
    // traced run below differs from a timed run only by the sinks.
    rep_options harvest_options;
    harvest_options.harvest = true;
    harvest_options.fraction = fraction;
    const rep_result harvest = work->run(harvest_options);
    book.add(harvest);

    // Interleaved untraced / traced repetitions of the same size; the first
    // traced one is the trace written out, later ones use throwaway sinks.
    vtm::util::trace_session session;
    vtm::util::metrics_registry registry;
    vtm::util::trace_lane* lane = bench_lane(session, 1);

    std::vector<double> bare_rates;
    std::vector<double> traced_rates;
    rep_result traced;
    const auto start = clock_type::now();
    const std::size_t min_pairs = tiny ? 1 : 3;
    while (traced_rates.size() < min_pairs ||
           fits(start, traced_rates.size(), budget_s)) {
      rep_options bare;
      bare.fraction = fraction;
      const auto b = work->run(bare);
      bare_rates.push_back(ratio(b.migrations, b.rate_wall_s));
      book.add(b);

      vtm::util::trace_session scratch_session;
      vtm::util::metrics_registry scratch_registry;
      const bool keep = traced_rates.empty();
      rep_options sinks;
      sinks.fraction = fraction;
      sinks.trace = keep ? &session : &scratch_session;
      sinks.metrics = keep ? &registry : &scratch_registry;
      sinks.bench = keep ? lane : nullptr;
      rep_result t;
      {
        vtm::util::trace_span span(keep ? lane : nullptr, "bench.traced_run");
        t = work->run(sinks);
      }
      traced_rates.push_back(ratio(t.migrations, t.rate_wall_s));
      book.add(t);
      book.check(signatures_equal(t.signature, b.signature));
      if (keep) traced = std::move(t);
    }

    // Layer replays on the harvested inputs, spanned on the bench lane.
    // Event count: handovers + clearings + completions + arrivals.
    const double events = harvest.handovers + harvest.clearings +
                          harvest.migrations + harvest.vehicles;
    const auto replays = run_replays(harvest, work->harvested_fleet(), events,
                                     harvest.depth, seed, min_replay_s, lane);
    // The replayed pre-copy must reproduce the recorded AoTM, and the
    // sinks must have recorded something for the layer metrics to mean it.
    book.check(replays.precopy_mismatch <= 1e-9);
    book.check(vtm::util::telemetry_compiled() && session.event_count() > 0);

    if (!write_sinks(traces, out_dir + "/" + name, session, registry, 1))
      return 1;

    const double bare = median(bare_rates);
    if (const std::size_t lanes = work->companion_shards(); lanes > 0) {
      // The same inputs on `lanes` shard lanes, once untraced and once
      // traced, in a trace of its own: the engine labels every run pid 0,
      // so runs with different shard counts would alias in one file.
      rep_options sharded;
      sharded.fraction = fraction;
      sharded.shards = lanes;
      const auto b = work->run(sharded);
      book.add(b);
      vtm::util::trace_session sharded_session;
      vtm::util::metrics_registry sharded_registry;
      sharded.trace = &sharded_session;
      sharded.metrics = &sharded_registry;
      sharded.bench = bench_lane(sharded_session, lanes);
      rep_result t;
      {
        vtm::util::trace_span span(sharded.bench, "bench.traced_run");
        t = work->run(sharded);
      }
      book.add(t);
      book.check(signatures_equal(t.signature, b.signature));
      if (!write_sinks(traces, out_dir + "/" + name + "_sharded",
                       sharded_session, sharded_registry, lanes))
        return 1;
      const double rate = ratio(b.migrations, b.rate_wall_s);
      metrics.num("sharded.migrations_per_s", rate);
      metrics.num("sharded.speedup", ratio(rate, bare));
      metrics.num("sharded.mean_aotm_s", ratio(b.aotm_weighted, b.migrations));
      metrics.num("sharded.late_handoffs", b.late_handoffs);
    }

    std::string episodes = "[";
    for (const double e : traced.episode_s) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.9g", episodes.size() > 1 ? "," : "",
                    e);
      episodes += buf;
    }
    out.raw("episode_s", episodes + "]");

    const double with_sinks = median(traced_rates);
    metrics.num("setup_s", median(setups));
    metrics.num("spot_market.deferred", traced.deferred);
    metrics.num("multi_msp.evals_per_clear",
                ratio(traced.objective_evals, traced.clearings));
    metrics.num("multi_msp.sweeps_per_clear",
                ratio(traced.solver_sweeps, traced.clearings));
    metrics.num("multi_msp.warm_hit_rate",
                ratio(traced.warm_started, traced.clearings));
    metrics.num("multi_msp.unconverged", traced.unconverged);
    metrics.num("equilibrium.solve_ns", replays.equilibrium_ns);
    metrics.num("precopy.run_ns", replays.precopy_ns);
    metrics.num("precopy.rounds_mean", replays.precopy_rounds);
    metrics.num("event_queue.op_ns", replays.event_queue_ns);
    metrics.num("route_profile.advance_ns", replays.route_ns);
    metrics.num("telemetry.overhead_pct", 100.0 * (ratio(bare, with_sinks) - 1.0));
    metrics.num("telemetry.pairs", static_cast<double>(traced_rates.size()));
    metrics.num("trace.events", static_cast<double>(session.event_count()));
    metrics.num("rl.ppo_update_ns", replays.ppo_update_ns);
    metrics.num("nn.policy_act_ns", replays.policy_act_ns);
    metrics.num("mechanism.harvest_s", harvest.wall_s);
    metrics.num("mechanism.learned_over_oracle", traced.learned_over_oracle);
    metrics.num("traced_fraction", fraction);
    metrics.num("replay.events", events);
    metrics.num("replay.depth", harvest.depth);
  }

  out.boolean("correct", book.check_failures == 0);
  out.num("attempted", book.attempted);
  out.num("failed", book.failed);
  out.num("checks", static_cast<double>(book.checks));
  out.num("check_failures", static_cast<double>(book.check_failures));
  out.raw("metrics", metrics.done());
  std::string list = "[";
  for (const auto& entry : traces) list += (list.size() > 1 ? "," : "") + entry;
  out.raw("traces", list + "]");
  std::printf("%s\n", out.done().c_str());
  return 0;
}
