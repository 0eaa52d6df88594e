#include "wireless/link.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/units.hpp"

namespace vtm::wireless {

link_budget::link_budget(const link_params& params) : params_(params) {
  // Non-finite levels or distances would otherwise surface as a NaN, infinite
  // or zero spectral efficiency, and transfer times would divide by it.
  const double distance_m = params.distance_m.value();
  VTM_EXPECTS(std::isfinite(params.tx_power_dbm.value()));
  VTM_EXPECTS(std::isfinite(params.unit_gain_db.value()));
  VTM_EXPECTS(std::isfinite(params.noise_power_dbm.value()));
  VTM_EXPECTS(std::isfinite(distance_m) && distance_m > 0.0);
  VTM_EXPECTS(std::isfinite(params.path_loss_exponent) &&
              params.path_loss_exponent >= 0.0);
  tx_watt_ = util::to_watts(params.tx_power_dbm).value();
  gain_ = util::to_linear(params.unit_gain_db) *
          std::pow(distance_m, -params.path_loss_exponent);
  noise_watt_ = util::to_watts(params.noise_power_dbm).value();
  VTM_ENSURES(noise_watt_ > 0.0);
  snr_ = tx_watt_ * gain_ / noise_watt_;
  spectral_efficiency_ = std::log2(1.0 + snr_);
  // Finite inputs can still overflow (4000 dBm: inf) or underflow (a 1e200 m
  // link: 0) the linear chain; either would make transfer times 0 or inf.
  VTM_ENSURES(std::isfinite(spectral_efficiency_) &&
              spectral_efficiency_ > 0.0);
}

double link_budget::rate_mbps(double bandwidth_mhz) const {
  VTM_EXPECTS(bandwidth_mhz >= 0.0);
  return bandwidth_mhz * spectral_efficiency_;
}

double link_budget::transfer_seconds(double data_bits,
                                     double bandwidth_hz) const {
  VTM_EXPECTS(data_bits >= 0.0);
  VTM_EXPECTS(bandwidth_hz > 0.0);
  return data_bits / (bandwidth_hz * spectral_efficiency_);
}

}  // namespace vtm::wireless
