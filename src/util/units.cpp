#include "util/units.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace vtm::util {

watts to_watts(dbm power) noexcept {
  return watts{std::pow(10.0, (power.value() - 30.0) / 10.0)};
}

dbm to_dbm(watts power) {
  VTM_EXPECTS(power.value() > 0.0);
  return dbm{10.0 * std::log10(power.value()) + 30.0};
}

double to_linear(db gain) noexcept {
  return std::pow(10.0, gain.value() / 10.0);
}

db to_db(double linear) {
  VTM_EXPECTS(linear > 0.0);
  return db{10.0 * std::log10(linear)};
}

}  // namespace vtm::util
