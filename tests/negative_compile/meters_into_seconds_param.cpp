// Negative-compile proof: a distance cannot be stored where a duration is
// expected. `fleet_config::duration_s` is util::seconds, and no quantity of
// another dimension converts into it. Must NOT compile.
#include "core/fleet_scenario.hpp"

int main() {
  vtm::core::fleet_config config;
  config.duration_s = vtm::util::meters{1.0};  // meters is not a duration
  return static_cast<int>(config.rsu_count);
}
