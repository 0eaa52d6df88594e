// Radio-engineering unit conversions used across the wireless substrate.
//
// The paper states channel parameters in logarithmic units (dBm / dB); all
// internal computation is done in linear SI units (watts / unitless gains).
//
// One spelling per conversion: each function takes the typed quantity a
// `*_config`/`*_params` field holds (util/quantity.hpp), so the unit
// crossing — notably the only dbm → watts path — is explicit in the type
// system. Code past the config boundary works in raw unit-suffixed doubles
// (DESIGN.md §15).
#pragma once

#include "util/quantity.hpp"

namespace vtm::util {

/// dBm → watts, the explicit logarithmic → linear power conversion (there is
/// deliberately no arithmetic path between `dbm` and `watts`):
/// 10^((dbm−30)/10).
[[nodiscard]] watts to_watts(dbm power) noexcept;

/// Watts → dBm: 10·log10(w) + 30. Requires a positive power. The inverse of
/// `to_watts` (the round-trip property tests use it as the reference).
[[nodiscard]] dbm to_dbm(watts power);

/// dB gain → linear (dimensionless) ratio: 10^(db/10).
[[nodiscard]] double to_linear(db gain) noexcept;

/// Linear (dimensionless) ratio → dB: 10·log10(x). Requires a positive
/// ratio. The inverse of `to_linear`.
[[nodiscard]] db to_db(double linear);

}  // namespace vtm::util
