#include "sim/vt.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace vtm::sim {

vehicular_twin::vehicular_twin(std::uint64_t vmu_id, const vt_config& config)
    : vmu_id_(vmu_id), config_(config) {
  VTM_EXPECTS(config.system_config_mb.value() >= 0.0);
  VTM_EXPECTS(config.runtime_state_mb.value() >= 0.0);
  VTM_EXPECTS(config.memory_pages == 0 ||
              config.page_mb.value() > 0.0);
}

vehicular_twin vehicular_twin::with_total_mb(std::uint64_t vmu_id,
                                             double total_mb, double page_mb) {
  VTM_EXPECTS(total_mb > 0.0);
  VTM_EXPECTS(page_mb > 0.0);
  vt_config config;
  config.system_config_mb = util::megabytes{0.02 * total_mb};
  config.runtime_state_mb = util::megabytes{0.03 * total_mb};
  const double memory_mb = total_mb - config.system_config_mb.value() -
                           config.runtime_state_mb.value();
  config.page_mb = util::megabytes{page_mb};
  config.memory_pages =
      static_cast<std::size_t>(std::llround(memory_mb / page_mb));
  // Absorb rounding into the state block so total_mb() matches the request.
  const double actual_memory =
      static_cast<double>(config.memory_pages) * page_mb;
  config.runtime_state_mb += util::megabytes{memory_mb - actual_memory};
  if (config.runtime_state_mb.value() < 0.0)
    config.runtime_state_mb = util::megabytes{0.0};
  return vehicular_twin(vmu_id, config);
}

double vehicular_twin::memory_mb() const noexcept {
  return static_cast<double>(config_.memory_pages) * config_.page_mb.value();
}

double vehicular_twin::total_mb() const noexcept {
  return config_.system_config_mb.value() + memory_mb() +
         config_.runtime_state_mb.value();
}

}  // namespace vtm::sim
