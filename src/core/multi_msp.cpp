#include "core/multi_msp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "game/maximize.hpp"
#include "util/contracts.hpp"

namespace vtm::core {

multi_msp_market::multi_msp_market(multi_msp_params params)
    : params_(std::move(params)), link_(params_.link) {
  VTM_EXPECTS(!params_.msps.empty());
  VTM_EXPECTS(!params_.vmus.empty());
  VTM_EXPECTS(params_.share_sharpness > 0.0);
  for (const auto& msp : params_.msps) {
    VTM_EXPECTS(msp.unit_cost > 0.0);
    VTM_EXPECTS(msp.bandwidth_cap_mhz > 0.0);
    VTM_EXPECTS(msp.price_cap >= msp.unit_cost);
  }
  for (const auto& vmu : params_.vmus) {
    VTM_EXPECTS(vmu.alpha > 0.0);
    VTM_EXPECTS(vmu.data_mb > 0.0);
  }

  // Demand curve: VMU n is active iff α_n/p_eff − κ_n > 0, i.e. iff its
  // activation threshold t_n = α_n/κ_n exceeds p_eff. Sorting by t_n makes
  // the active set a suffix of the order; suffix sums of α and κ turn the
  // aggregate demand into (Σα)/p_eff − Σκ over that suffix.
  const std::size_t n_vmus = params_.vmus.size();
  const double r = link_.spectral_efficiency();
  std::vector<std::size_t> order(n_vmus);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> kappa(n_vmus);
  std::vector<double> threshold(n_vmus);
  for (std::size_t n = 0; n < n_vmus; ++n) {
    kappa[n] = params_.vmus[n].data_mb / r;
    threshold[n] = params_.vmus[n].alpha / kappa[n];
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return threshold[a] < threshold[b];
                   });
  sorted_alpha_.resize(n_vmus);
  sorted_kappa_.resize(n_vmus);
  sorted_threshold_.resize(n_vmus);
  for (std::size_t i = 0; i < n_vmus; ++i) {
    sorted_alpha_[i] = params_.vmus[order[i]].alpha;
    sorted_kappa_[i] = kappa[order[i]];
    sorted_threshold_[i] = threshold[order[i]];
  }
  // Accumulate descending so the O(N) reference walk (highest threshold
  // first) performs the identical sequence of FP additions.
  suffix_alpha_.assign(n_vmus + 1, 0.0);
  suffix_kappa_.assign(n_vmus + 1, 0.0);
  for (std::size_t i = n_vmus; i-- > 0;) {
    suffix_alpha_[i] = sorted_alpha_[i] + suffix_alpha_[i + 1];
    suffix_kappa_[i] = sorted_kappa_[i] + suffix_kappa_[i + 1];
  }
}

std::vector<double> multi_msp_market::shares(
    std::span<const double> prices) const {
  VTM_EXPECTS(prices.size() == msp_count());
  // Numerically-stable softmin: subtract the minimum price.
  const double p_min = *std::min_element(prices.begin(), prices.end());
  std::vector<double> weights(prices.size());
  double total = 0.0;
  for (std::size_t m = 0; m < prices.size(); ++m) {
    VTM_EXPECTS(prices[m] > 0.0);
    weights[m] = std::exp(-params_.share_sharpness * (prices[m] - p_min));
    total += weights[m];
  }
  for (double& w : weights) w /= total;
  return weights;
}

double multi_msp_market::effective_price(
    std::span<const double> prices) const {
  const auto w = shares(prices);
  double effective = 0.0;
  for (std::size_t m = 0; m < prices.size(); ++m)
    effective += w[m] * prices[m];
  return effective;
}

double multi_msp_market::vmu_demand(std::size_t n,
                                    std::span<const double> prices) const {
  VTM_EXPECTS(n < vmu_count());
  const double p_eff = effective_price(prices);
  const double kappa = params_.vmus[n].data_mb / spectral_efficiency();
  const double interior = params_.vmus[n].alpha / p_eff - kappa;
  return interior > 0.0 ? interior : 0.0;
}

double multi_msp_market::vmu_demand_at(std::size_t n, double p_eff) const {
  VTM_EXPECTS(n < vmu_count());
  VTM_EXPECTS(p_eff > 0.0);
  const double kappa = params_.vmus[n].data_mb / spectral_efficiency();
  const double interior = params_.vmus[n].alpha / p_eff - kappa;
  return interior > 0.0 ? interior : 0.0;
}

double multi_msp_market::total_demand(double p_eff) const {
  VTM_EXPECTS(p_eff > 0.0);
  // First sorted position whose threshold strictly exceeds p_eff; everything
  // from there up is active.
  const auto it = std::upper_bound(sorted_threshold_.begin(),
                                   sorted_threshold_.end(), p_eff);
  const auto i =
      static_cast<std::size_t>(it - sorted_threshold_.begin());
  if (i == sorted_threshold_.size()) return 0.0;
  const double demand = suffix_alpha_[i] / p_eff - suffix_kappa_[i];
  return demand > 0.0 ? demand : 0.0;
}

double multi_msp_market::total_demand_reference(double p_eff) const {
  VTM_EXPECTS(p_eff > 0.0);
  // Walk the sorted VMUs from the highest threshold down, accumulating α and
  // κ with the same additions the suffix sums were built from.
  double alpha_sum = 0.0;
  double kappa_sum = 0.0;
  bool any_active = false;
  for (std::size_t i = sorted_threshold_.size(); i-- > 0;) {
    if (!(sorted_threshold_[i] > p_eff)) break;
    alpha_sum = sorted_alpha_[i] + alpha_sum;
    kappa_sum = sorted_kappa_[i] + kappa_sum;
    any_active = true;
  }
  if (!any_active) return 0.0;
  const double demand = alpha_sum / p_eff - kappa_sum;
  return demand > 0.0 ? demand : 0.0;
}

std::vector<double> multi_msp_market::msp_sales(
    std::span<const double> prices) const {
  const auto w = shares(prices);
  double total_demand = 0.0;
  for (std::size_t n = 0; n < vmu_count(); ++n)
    total_demand += vmu_demand(n, prices);
  std::vector<double> sales(msp_count());
  for (std::size_t m = 0; m < msp_count(); ++m) {
    sales[m] =
        std::min(w[m] * total_demand, params_.msps[m].bandwidth_cap_mhz);
  }
  return sales;
}

std::vector<double> multi_msp_market::msp_utilities(
    std::span<const double> prices) const {
  const auto sales = msp_sales(prices);
  std::vector<double> utilities(msp_count());
  for (std::size_t m = 0; m < msp_count(); ++m)
    utilities[m] = (prices[m] - params_.msps[m].unit_cost) * sales[m];
  return utilities;
}

multi_msp_market::rival_cache multi_msp_market::cache_rivals(
    std::size_t m, std::span<const double> prices) const {
  VTM_EXPECTS(m < msp_count());
  VTM_EXPECTS(prices.size() == msp_count());
  rival_cache cache;
  cache.lo = params_.msps[m].unit_cost;
  cache.hi = params_.msps[m].price_cap;
  cache.cap = params_.msps[m].bandwidth_cap_mhz;
  // Anchor at the cheapest rival: its weight is exactly 1, so the rivals'
  // mass is >= 1 and the softmin denominator can never vanish, no matter
  // how sharp λ is.
  cache.ref = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < prices.size(); ++j) {
    if (j == m) continue;
    VTM_EXPECTS(prices[j] > 0.0);
    cache.ref = std::min(cache.ref, prices[j]);
    cache.has_rivals = true;
  }
  if (!cache.has_rivals) {
    cache.ref = cache.lo;
    return cache;
  }
  const double lambda = params_.share_sharpness;
  for (std::size_t j = 0; j < prices.size(); ++j) {
    if (j == m) continue;
    const double w = std::exp(-lambda * (prices[j] - cache.ref));
    cache.rival_w += w;
    cache.rival_wp += w * prices[j];
  }
  return cache;
}

multi_msp_market::rival_cache::point multi_msp_market::rival_cache::at(
    double lambda, double price) const {
  // Alone in the market the softmin is degenerate: full share at own price.
  if (!has_rivals) return {1.0, price};
  if (price >= ref) {
    // Candidate at or above the anchor: its weight decays (underflow to 0 is
    // the correct priced-out limit, the rivals keep mass >= 1).
    const double w = std::exp(-lambda * (price - ref));
    const double denom = w + rival_w;
    return {w / denom, (w * price + rival_wp) / denom};
  }
  // Candidate undercuts every rival: re-anchor at the candidate, which
  // rescales the rivals' mass toward zero (their priced-out limit) while the
  // candidate's own weight is exactly 1.
  const double u = std::exp(-lambda * (ref - price));
  const double denom = 1.0 + u * rival_w;
  return {1.0 / denom, (price + u * rival_wp) / denom};
}

multi_msp_market::demand_point multi_msp_market::demand_at(
    double p_eff) const {
  VTM_EXPECTS(p_eff > 0.0);
  const auto it = std::upper_bound(sorted_threshold_.begin(),
                                   sorted_threshold_.end(), p_eff);
  const auto i = static_cast<std::size_t>(it - sorted_threshold_.begin());
  if (i == sorted_threshold_.size()) return {};
  const double demand = suffix_alpha_[i] / p_eff - suffix_kappa_[i];
  if (!(demand > 0.0)) return {};
  return {demand, -suffix_alpha_[i] / (p_eff * p_eff)};
}

multi_msp_market::best_response multi_msp_market::best_response_to(
    std::size_t m, std::span<const double> prices, double tol) const {
  VTM_EXPECTS(tol > 0.0);
  const rival_cache cache = cache_rivals(m, prices);
  const double lambda = params_.share_sharpness;
  // One exp + one O(log N) demand lookup per candidate; no allocation.
  const auto objective = [&](double price) {
    const auto [s, p_eff] = cache.at(lambda, price);
    const double sold = std::min(s * total_demand(p_eff), cache.cap);
    return (price - cache.lo) * sold;
  };
  // Softmin shares make the profit non-concave in corner cases; grid-restart
  // before the golden-section refinement, as in the generic solver.
  const auto found =
      game::bracketed_maximize(objective, cache.lo, cache.hi, 48, tol);
  return {found.arg, found.value, found.evaluations};
}

multi_msp_market::best_response multi_msp_market::best_response_local(
    std::size_t m, std::span<const double> prices, double center,
    double halfwidth, double tol) const {
  VTM_EXPECTS(tol > 0.0);
  const rival_cache cache = cache_rivals(m, prices);
  const double lambda = params_.share_sharpness;
  best_response out;
  // Profit and closed-form derivatives at a candidate price. With
  // w = e^{−λ(p−ref)}, s = w/(w+W), p̄ = (wp + WP)/(w+W):
  //   s'  = −λ·s·(1−s)
  //   p̄'  = s·(1 − λ(p − p̄))
  //   q   = s·D(p̄),  q' = s'·D + s·D'·p̄'        (unrationed sales)
  //   f   = (p − C)·min(q, cap)
  //   f'  = q + (p − C)·q'                        (uncapped)
  //       = cap                                   (capped: f is linear)
  // Zero demand means the profit is flat at 0; report a negative slope so
  // the search walks left toward prices that activate buyers.
  struct probe {
    double f = 0.0;
    double g = 0.0;
    double sold = 0.0;        ///< q.
    double sold_slope = 0.0;  ///< q'.
    double g_free = 0.0;      ///< Uncapped f' — the right limit at a kink.
    bool capped = false;
  };
  const auto eval = [&](double price) {
    ++out.evaluations;
    const auto [s, p_eff] = cache.at(lambda, price);
    const auto d = demand_at(p_eff);
    if (d.demand <= 0.0) return probe{0.0, -1.0, 0.0, 0.0, -1.0, false};
    const double margin = price - cache.lo;
    const double sold = s * d.demand;
    const double s_prime = -lambda * s * (1.0 - s);
    const double p_eff_prime = s * (1.0 - lambda * (price - p_eff));
    const double sold_slope =
        s_prime * d.demand + s * d.slope * p_eff_prime;
    const double g_free = sold + margin * sold_slope;
    if (sold >= cache.cap)
      return probe{margin * cache.cap, cache.cap, sold, sold_slope, g_free,
                   true};
    return probe{margin * sold, g_free, sold, sold_slope, g_free, false};
  };
  double h = std::max(halfwidth, tol);
  for (;;) {
    const double a = std::max(cache.lo, center - h);
    const double b = std::min(cache.hi, center + h);
    const auto pa = eval(a);
    if (pa.g < 0.0 && a > cache.lo) {
      // Profit already falling at the left edge: the optimum is below the
      // bracket. Recenter and widen.
      center = a;
      h *= 4.0;
      continue;
    }
    const auto pb = eval(b);
    if (pb.g > 0.0 && b < cache.hi) {
      center = b;
      h *= 4.0;
      continue;
    }
    if (pa.g <= 0.0) {
      // Falling from the domain edge: boundary optimum at C_m.
      out.price = a;
      out.value = pa.f;
      out.kind = response_kind::lower;
      return out;
    }
    if (pb.g >= 0.0) {
      out.price = b;
      out.value = pb.f;
      out.kind = response_kind::upper;
      return out;
    }
    // g(a) > 0 > g(b): the derivative crosses zero inside.
    double lo_x = a, lo_g = pa.g;
    double hi_x = b, hi_g = pb.g;
    double best_f = std::max(pa.f, pb.f);
    double best_x = pa.f >= pb.f ? a : b;
    if (pa.capped && !pb.capped) {
      // The bracket spans the rationing kink, where f' jumps from cap to
      // the uncapped slope. Solve the smooth, decreasing kink equation
      // q(p) = cap by Newton on q' from the endpoint closer to the cap,
      // safeguarded by the sign bracket: bisect whenever a step leaves the
      // bracket or fails to halve the previous step; stop once a step is
      // below tol.
      const bool from_a =
          std::abs(pa.sold - cache.cap) <= std::abs(pb.sold - cache.cap);
      probe last = from_a ? pa : pb;
      double x = from_a ? a : b;
      double k_lo = a, k_hi = b;
      double prev_step = b - a;
      for (;;) {
        double next = x - (last.sold - cache.cap) / last.sold_slope;
        if (!(last.sold_slope < 0.0) || !(next > k_lo) || !(next < k_hi) ||
            std::abs(next - x) > 0.5 * prev_step)
          next = 0.5 * (k_lo + k_hi);
        prev_step = std::abs(next - x);
        x = next;
        if (prev_step <= tol || k_hi - k_lo <= tol) break;
        last = eval(x);
        if (last.sold >= cache.cap) {
          k_lo = x;
        } else {
          k_hi = x;
        }
      }
      const double kink_f = (x - cache.lo) * cache.cap;
      if (last.g_free <= 0.0) {
        out.price = x;
        out.value = kink_f;
        out.kind = response_kind::kink;
        return out;
      }
      // Profit still rising past the kink: the optimum is an interior
      // stationary point on the smooth uncapped side.
      lo_x = x;
      lo_g = last.g_free;
      if (kink_f >= best_f) {
        best_f = kink_f;
        best_x = x;
      }
    }
    // Illinois false position — a stalled endpoint has its derivative
    // halved, which forces both sides to move and keeps convergence
    // superlinear on the smooth derivative.
    int side = 0;
    while (hi_x - lo_x > tol) {
      double x = (lo_g * hi_x - hi_g * lo_x) / (lo_g - hi_g);
      if (!(x > lo_x) || !(x < hi_x)) x = 0.5 * (lo_x + hi_x);
      const auto px = eval(x);
      if (px.f >= best_f) {
        best_f = px.f;
        best_x = x;
      }
      if (px.g > 0.0) {
        lo_x = x;
        lo_g = px.g;
        if (side == -1) hi_g *= 0.5;
        side = -1;
      } else {
        hi_x = x;
        hi_g = px.g;
        if (side == 1) lo_g *= 0.5;
        side = 1;
      }
    }
    out.price = best_x;
    out.value = best_f;
    return out;
  }
}

double multi_msp_market::best_response_price(
    std::size_t m, std::span<const double> prices) const {
  return best_response_to(m, prices).price;
}

double multi_msp_market::best_response_price_reference(
    std::size_t m, std::span<const double> prices) const {
  VTM_EXPECTS(m < msp_count());
  VTM_EXPECTS(prices.size() == msp_count());
  // Original slow path, kept as the oracle: full softmin re-normalization
  // and a per-VMU demand loop in roster order per evaluation — but with the
  // scratch buffers hoisted out of the objective (one allocation per call,
  // not one per grid point) and only seller m's utility computed.
  std::vector<double> candidate(prices.begin(), prices.end());
  std::vector<double> weights(msp_count());
  const double lambda = params_.share_sharpness;
  const double r = spectral_efficiency();
  const auto objective = [&](double price) {
    candidate[m] = price;
    const double p_min =
        *std::min_element(candidate.begin(), candidate.end());
    double total = 0.0;
    for (std::size_t j = 0; j < candidate.size(); ++j) {
      weights[j] = std::exp(-lambda * (candidate[j] - p_min));
      total += weights[j];
    }
    for (double& w : weights) w /= total;
    double p_eff = 0.0;
    for (std::size_t j = 0; j < candidate.size(); ++j)
      p_eff += weights[j] * candidate[j];
    double demand = 0.0;
    for (const auto& vmu : params_.vmus) {
      const double interior = vmu.alpha / p_eff - vmu.data_mb / r;
      demand += interior > 0.0 ? interior : 0.0;
    }
    const double sold =
        std::min(weights[m] * demand, params_.msps[m].bandwidth_cap_mhz);
    return (price - params_.msps[m].unit_cost) * sold;
  };
  const double lo = params_.msps[m].unit_cost;
  const double hi = params_.msps[m].price_cap;
  constexpr std::size_t grid = 48;
  double best_price = lo;
  double best_value = objective(lo);
  for (std::size_t i = 1; i < grid; ++i) {
    const double p = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(grid - 1);
    const double v = objective(p);
    if (v > best_value) {
      best_value = v;
      best_price = p;
    }
  }
  const double cell = (hi - lo) / static_cast<double>(grid - 1);
  const auto refined = game::golden_section_maximize(
      objective, std::max(lo, best_price - cell),
      std::min(hi, best_price + cell), 1e-9);
  return refined.value >= best_value ? refined.arg : best_price;
}

namespace {

using response_kind = multi_msp_market::response_kind;

// The joint active-set system of a warm clearing (DESIGN.md §12): one row
// per free seller i, fixed by the kind of its last best response,
//   kink:      F_i = s_i·D(p̄) − cap_i
//   interior:  F_i = ∂π_i/∂p_i = s_i·D + (p_i − C_i)(a_i·D + s_i·D'·b_i)
// with a_i = ∂s_i/∂p_i and b_i = ∂p̄/∂p_i. Sellers at a price bound or
// pinned are constants. The Jacobian over the free prices is closed form:
//   ∂s_i/∂p_j = −λ·s_i·(δ_ij − s_j),   ∂p̄/∂p_j = s_j·(1 − λ(p_j − p̄)),
//   D' = −A/p̄²,  D'' = −2D'/p̄  (A: active suffix sum of α).
// Rows of both kinds are in MHz, so one ∞-norm measures the whole defect.
class joint_system {
 public:
  joint_system(const multi_msp_market& market,
               std::span<const response_kind> kinds,
               std::vector<std::size_t> free)
      : market_(market),
        kinds_(kinds),
        free_(std::move(free)),
        share_(market.msp_count()),
        pbar_slope_(market.msp_count()),
        rows_(free_.size()),
        jac_(free_.size() * free_.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return free_.size(); }
  [[nodiscard]] std::size_t seller(std::size_t row) const noexcept {
    return free_[row];
  }

  /// Rows and Jacobian at `p`; returns ‖F‖∞ (non-finite on overflow).
  double evaluate(std::span<const double> p) {
    const auto& params = market_.params();
    const double lambda = params.share_sharpness;
    const double ref = *std::min_element(p.begin(), p.end());
    double total = 0.0;
    for (std::size_t j = 0; j < p.size(); ++j) {
      share_[j] = std::exp(-lambda * (p[j] - ref));
      total += share_[j];
    }
    double pbar = 0.0;
    for (std::size_t j = 0; j < p.size(); ++j) {
      share_[j] /= total;
      pbar += share_[j] * p[j];
    }
    for (std::size_t j = 0; j < p.size(); ++j)
      pbar_slope_[j] = share_[j] * (1.0 - lambda * (p[j] - pbar));
    const auto d = market_.demand_at(pbar);
    const double curvature = -2.0 * d.slope / pbar;
    const std::size_t k = free_.size();
    double norm = 0.0;
    for (std::size_t r = 0; r < k; ++r) {
      const std::size_t i = free_[r];
      const double s = share_[i];
      const double b = pbar_slope_[i];
      double* row = &jac_[r * k];
      if (kinds_[i] == response_kind::kink) {
        rows_[r] = s * d.demand - params.msps[i].bandwidth_cap_mhz;
        for (std::size_t c = 0; c < k; ++c) {
          const std::size_t j = free_[c];
          const double ds = -lambda * s * ((i == j ? 1.0 : 0.0) - share_[j]);
          row[c] = ds * d.demand + s * d.slope * pbar_slope_[j];
        }
      } else {
        const double margin = p[i] - params.msps[i].unit_cost;
        const double a = -lambda * s * (1.0 - s);
        const double own = a * d.demand + s * d.slope * b;
        const double rest = 1.0 - lambda * (p[i] - pbar);
        rows_[r] = s * d.demand + margin * own;
        for (std::size_t c = 0; c < k; ++c) {
          const std::size_t j = free_[c];
          const double delta = i == j ? 1.0 : 0.0;
          const double bj = pbar_slope_[j];
          const double ds = -lambda * s * (delta - share_[j]);
          const double da = -lambda * (1.0 - 2.0 * s) * ds;
          const double db = ds * rest - lambda * s * (delta - bj);
          row[c] = ds * d.demand + s * d.slope * bj + delta * own +
                   margin * (da * d.demand + a * d.slope * bj +
                             ds * d.slope * b + s * curvature * bj * b +
                             s * d.slope * db);
        }
      }
      norm = std::max(norm, std::abs(rows_[r]));
    }
    return norm;
  }

  /// Newton direction −J⁻¹F at the last evaluated point, by Gaussian
  /// elimination with partial pivoting (consumes the rows and Jacobian).
  /// False when J is singular or the direction is not finite.
  bool direction(std::vector<double>& step) {
    const std::size_t k = free_.size();
    for (std::size_t col = 0; col < k; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < k; ++r)
        if (std::abs(jac_[r * k + col]) > std::abs(jac_[pivot * k + col]))
          pivot = r;
      if (!(std::abs(jac_[pivot * k + col]) > 0.0)) return false;
      if (pivot != col) {
        for (std::size_t c = 0; c < k; ++c)
          std::swap(jac_[pivot * k + c], jac_[col * k + c]);
        std::swap(rows_[pivot], rows_[col]);
      }
      for (std::size_t r = col + 1; r < k; ++r) {
        const double factor = jac_[r * k + col] / jac_[col * k + col];
        for (std::size_t c = col; c < k; ++c)
          jac_[r * k + c] -= factor * jac_[col * k + c];
        rows_[r] -= factor * rows_[col];
      }
    }
    step.assign(k, 0.0);
    for (std::size_t r = k; r-- > 0;) {
      double acc = rows_[r];
      for (std::size_t c = r + 1; c < k; ++c) acc += jac_[r * k + c] * step[c];
      step[r] = -acc / jac_[r * k + r];
      if (!std::isfinite(step[r])) return false;
    }
    return true;
  }

 private:
  const multi_msp_market& market_;
  std::span<const response_kind> kinds_;
  std::vector<std::size_t> free_;
  std::vector<double> share_;
  std::vector<double> pbar_slope_;
  std::vector<double> rows_;
  std::vector<double> jac_;
};

struct newton_result {
  std::size_t steps = 0;
  std::size_t evals = 0;      ///< One per free row per system evaluation.
  double last_step = 0.0;     ///< ∞-norm of the last price step taken.
};

/// At most 3 damped Newton steps on `system` from `p` (in place), clamped to
/// each seller's price bounds. A step is halved (twice at most) until the
/// defect norm falls; a step that still does not reduce it ends the solve.
/// A step below `stop`, or the third step, is taken without evaluating the
/// system again — the verification sweep checks the result.
newton_result newton_solve(const multi_msp_market& market,
                           joint_system& system, std::vector<double>& p,
                           double stop) {
  constexpr std::size_t max_steps = 3;
  constexpr int max_halvings = 2;
  const auto& params = market.params();
  newton_result out;
  const std::size_t k = system.size();
  if (k == 0) return out;
  double norm = system.evaluate(p);
  out.evals += k;
  std::vector<double> step;
  std::vector<double> trial(p);
  while (out.steps < max_steps && norm > 0.0 && std::isfinite(norm) &&
         system.direction(step)) {
    ++out.steps;
    double t = 1.0;
    bool done = false;
    for (int halving = 0;; ++halving) {
      double size = 0.0;
      for (std::size_t r = 0; r < k; ++r) {
        const std::size_t i = system.seller(r);
        const double shrink = 1.0 - t * step[r] / p[i];
        trial[i] = shrink > 0.0
                       ? std::clamp(p[i] / shrink, params.msps[i].unit_cost,
                                    params.msps[i].price_cap)
                       : params.msps[i].price_cap;
        size = std::max(size, std::abs(trial[i] - p[i]));
      }
      if (size <= stop || out.steps == max_steps) {
        p = trial;
        out.last_step = size;
        done = true;
        break;
      }
      const double trial_norm = system.evaluate(trial);
      out.evals += k;
      if (trial_norm < norm) {
        p = trial;
        norm = trial_norm;
        out.last_step = size;
        break;
      }
      if (halving == max_halvings) {
        done = true;
        break;
      }
      t *= 0.5;
    }
    if (done) break;
  }
  return out;
}

}  // namespace

multi_msp_equilibrium solve_price_competition(
    const multi_msp_market& market, const price_competition_options& options) {
  VTM_EXPECTS(options.tol > 0.0);
  VTM_EXPECTS(options.warm_start.empty() ||
              options.warm_start.size() == market.msp_count());
  VTM_EXPECTS(options.pinned == price_competition_options::no_pin ||
              options.pinned < market.msp_count());
  const auto& params = market.params();
  const std::size_t msps = market.msp_count();

  multi_msp_equilibrium result;
  result.prices.resize(msps);
  if (options.warm_start.empty()) {
    // Cold start from each MSP's cap midpoint (any interior point works);
    // this is the bitwise-stable path for the first clearing of a run.
    for (std::size_t m = 0; m < msps; ++m)
      result.prices[m] =
          0.5 * (params.msps[m].unit_cost + params.msps[m].price_cap);
  } else {
    result.warm_started = true;
    for (std::size_t m = 0; m < msps; ++m)
      result.prices[m] = std::clamp(options.warm_start[m],
                                    params.msps[m].unit_cost,
                                    params.msps[m].price_cap);
  }

  // Dampened simultaneous best response: every sweep computes all BR_m at
  // the current vector, then relaxes p ← p + θ(BR(p) − p). The residual
  // max_m |BR_m − p_m| is the fixed-point defect; its ratio across sweeps is
  // the empirical contraction factor q. When q stalls near 1 for two
  // consecutive sweeps (Edgeworth cycling under sharp λ + binding caps), θ
  // is halved — a deterministic bisection on the dampening factor — until
  // the iteration contracts again. When the iteration *is* contracting, the
  // update is Anderson(1)-accelerated: with defect f_k = BR(p_k) − p_k, the
  // mixing weight γ = <f_k, f_k − f_{k−1}> / ‖f_k − f_{k−1}‖² minimizes the
  // extrapolated defect, and p ← BR(p_k) − γ(BR(p_k) − BR(p_{k−1})) damps
  // the coupled cross-seller error modes a per-component rule would miss.
  //
  // Search cost control: each sweep's best responses are solved only to a
  // forcing tolerance proportional to the current defect (precision the
  // iterate cannot use yet is not paid for), and after the first sweep —
  // or immediately, on a warm start — each seller's search is bracketed
  // around its previous response (`best_response_local`), whose expansion
  // rule restores the full-range search whenever the bracket goes stale.
  //
  // Warm starts first try the joint Newton solve: the first sweep fixes
  // each seller's row kind, Newton solves the joint system from the
  // responses, and one verification sweep in tight brackets around the
  // Newton prices must certify the result (residual <= tol, ratio to the
  // first residual < 1) with an unchanged active set. Otherwise the
  // iteration above continues from whichever of the two iterates has the
  // smaller residual.
  constexpr double stall_ratio = 0.95;
  constexpr double theta_min = 1.0 / 64.0;
  constexpr double inner_cap = 1e-3;
  constexpr double inner_floor = 1e-9;
  double theta = 1.0;
  double prev_residual = std::numeric_limits<double>::infinity();
  double ratio = 0.0;
  std::size_t stalled = 0;
  std::vector<double> response(msps);
  std::vector<response_kind> kinds(msps, response_kind::interior);
  std::vector<double> prev_prices(msps, 0.0);
  std::vector<double> prev_response(msps, 0.0);
  bool have_prev = false;
  std::vector<double> center(msps, 0.0);
  std::vector<double> halfwidth(msps, 0.0);
  bool local = result.warm_started;
  if (local) {
    // The warm prices sit near the previous fixed point, where they *are*
    // the best responses — a tight initial bracket around them.
    for (std::size_t m = 0; m < msps; ++m) {
      center[m] = result.prices[m];
      halfwidth[m] = (params.msps[m].price_cap - params.msps[m].unit_cost) /
                     static_cast<double>(47);
    }
  }
  bool try_newton = result.warm_started && options.max_sweeps > 1;

  // One simultaneous best-response sweep at `at`; returns the residual.
  const auto sweep = [&](std::span<const double> at, double inner,
                         std::span<double> out,
                         std::span<response_kind> out_kinds) {
    double residual = 0.0;
    for (std::size_t m = 0; m < msps; ++m) {
      if (m == options.pinned) {
        out[m] = at[m];
        continue;
      }
      const auto br =
          local ? market.best_response_local(m, at, center[m], halfwidth[m],
                                             inner)
                : market.best_response_to(m, at, inner);
      out[m] = br.price;
      out_kinds[m] = br.kind;
      result.objective_evals += br.evaluations;
      residual = std::max(residual, std::abs(br.price - at[m]));
    }
    ++result.iterations;
    return residual;
  };

  while (result.iterations < options.max_sweeps) {
    const double inner =
        std::isinf(prev_residual)
            ? inner_cap
            : std::clamp(0.01 * prev_residual, inner_floor, inner_cap);
    double residual = sweep(result.prices, inner, response, kinds);
    ratio = std::isinf(prev_residual)
                ? 0.0
                : (prev_residual > 0.0 ? residual / prev_residual : 0.0);
    result.residual = residual;
    if (residual <= options.tol) {
      // Land exactly on the best responses so the fixed point is exact up
      // to tol regardless of θ.
      result.prices = response;
      result.converged = true;
      break;
    }
    if (try_newton) {
      try_newton = false;
      std::vector<std::size_t> free;
      for (std::size_t m = 0; m < msps; ++m)
        if (m != options.pinned && (kinds[m] == response_kind::kink ||
                                    kinds[m] == response_kind::interior))
          free.push_back(m);
      joint_system system(market, kinds, std::move(free));
      std::vector<double> newton_prices(response);
      const double verify_inner =
          std::clamp(0.01 * options.tol, inner_floor, inner_cap);
      const auto newton = newton_solve(market, system, newton_prices,
                                       verify_inner);
      result.newton_steps = newton.steps;
      result.objective_evals += newton.evals;
      const double spread = newton.steps > 0 ? newton.last_step : residual;
      for (std::size_t m = 0; m < msps; ++m) {
        center[m] = newton_prices[m];
        halfwidth[m] = 1.5 * spread + 16.0 * verify_inner;
      }
      std::vector<double> verified(msps);
      std::vector<response_kind> verified_kinds(kinds);
      const double verify_residual =
          sweep(newton_prices, verify_inner, verified, verified_kinds);
      const double verify_ratio = verify_residual / residual;
      if (verify_residual <= options.tol && verify_ratio < 1.0 &&
          verified_kinds == kinds) {
        result.prices = std::move(verified);
        result.residual = verify_residual;
        ratio = verify_ratio;
        result.converged = true;
        break;
      }
      result.fallback = true;
      if (verify_residual < residual) {
        result.prices = std::move(newton_prices);
        response = std::move(verified);
        kinds = std::move(verified_kinds);
        residual = verify_residual;
        result.residual = residual;
      }
      if (result.iterations >= options.max_sweeps) break;
    }
    local = true;
    // Distinguish a cycle from a crawl: a non-shrinking residual only calls
    // for dampening when the defect *reverses direction* (Edgeworth
    // undercut-and-jump oscillation, ⟨f_k, f_{k−1}⟩ < 0). A monotone drift
    // at ratio ≈ 1 — e.g. best responses marching toward a corner
    // equilibrium at the price cap — must keep the full step, or halving θ
    // freezes it short of the fixed point.
    double defect_dot = 0.0;
    double num = 0.0;
    double den = 0.0;
    for (std::size_t m = 0; m < msps; ++m) {
      const double f = response[m] - result.prices[m];
      const double f_prev = prev_response[m] - prev_prices[m];
      const double df = f - f_prev;
      defect_dot += f * f_prev;
      num += f * df;
      den += df * df;
    }
    const bool cycling =
        have_prev && defect_dot < 0.0 && ratio >= stall_ratio;
    if (cycling) {
      if (++stalled >= 2 && theta > theta_min) {
        theta = std::max(theta_min, 0.5 * theta);
        stalled = 0;
      }
    } else {
      stalled = 0;
    }
    double gamma = 0.0;
    if (!cycling && have_prev && theta == 1.0 && den > 1e-28)
      gamma = std::clamp(num / den, -2.0, 0.99);
    double max_step = 0.0;
    for (std::size_t m = 0; m < msps; ++m) {
      const double next =
          gamma != 0.0
              ? response[m] - gamma * (response[m] - prev_response[m])
              : result.prices[m] + theta * (response[m] - result.prices[m]);
      prev_prices[m] = result.prices[m];
      prev_response[m] = response[m];
      result.prices[m] = std::clamp(next, params.msps[m].unit_cost,
                                    params.msps[m].price_cap);
      max_step =
          std::max(max_step, std::abs(result.prices[m] - prev_prices[m]));
    }
    // Next sweep's search brackets: each best response sits near this
    // sweep's response, displaced by at most ~the largest price step (the
    // response map is 1-Lipschitz-ish in the rivals' prices); the 2× and
    // the 64·inner floor absorb the slack, and `best_response_local`'s
    // expansion rule covers the exceptions.
    for (std::size_t m = 0; m < msps; ++m) {
      center[m] = response[m];
      halfwidth[m] = 1.5 * max_step + 16.0 * inner;
    }
    have_prev = true;
    prev_residual = residual;
  }

  result.damping = theta;
  result.contraction_ratio = ratio;
  if (result.converged && ratio < 1.0) {
    result.certified = true;
    result.error_bound =
        ratio > 0.0 ? (ratio / (1.0 - ratio)) * result.residual : 0.0;
  } else {
    result.error_bound = std::numeric_limits<double>::infinity();
  }

  // Equilibrium summary: one softmin pass, then the per-VMU demand loop at
  // the effective price — the same arithmetic `msp_sales`/`msp_utilities`/
  // `effective_price` perform, without recomputing the shares per call.
  const auto w = market.shares(result.prices);
  double p_eff = 0.0;
  for (std::size_t m = 0; m < msps; ++m) p_eff += w[m] * result.prices[m];
  result.effective_price = p_eff;
  double cohort_demand = 0.0;
  for (std::size_t n = 0; n < market.vmu_count(); ++n)
    cohort_demand += market.vmu_demand_at(n, p_eff);
  result.sales.resize(msps);
  result.utilities.resize(msps);
  for (std::size_t m = 0; m < msps; ++m) {
    result.sales[m] =
        std::min(w[m] * cohort_demand, params.msps[m].bandwidth_cap_mhz);
    result.utilities[m] =
        (result.prices[m] - params.msps[m].unit_cost) * result.sales[m];
    result.total_demand += result.sales[m];
  }

  // Total VMU utility at the effective price (immersion minus payment).
  const double r = market.spectral_efficiency();
  for (std::size_t n = 0; n < market.vmu_count(); ++n) {
    const double b = market.vmu_demand_at(n, p_eff);
    if (b <= 0.0) continue;
    const auto& vmu = params.vmus[n];
    const double aotm = vmu.data_mb / (b * r);
    result.total_vmu_utility +=
        vmu.alpha * std::log(1.0 + 1.0 / aotm) - p_eff * b;
  }
  return result;
}

}  // namespace vtm::core
