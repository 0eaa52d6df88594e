// OFDMA bandwidth pool with orthogonality bookkeeping.
//
// The MSP manages the channels between a source RSU and a destination RSU.
// This pool enforces the physical invariant behind the market's B_max
// constraint: the sum of simultaneously granted bandwidth never exceeds the
// pool capacity, and grants are disjoint (orthogonal subchannels).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

namespace vtm::wireless {

/// Identifier of an active bandwidth grant.
struct grant_id {
  std::uint64_t value = 0;
  [[nodiscard]] bool operator==(const grant_id&) const noexcept = default;
};

/// Allocator over a fixed amount of orthogonal bandwidth (MHz).
class ofdma_pool {
 public:
  /// Pool of `capacity_mhz` (> 0) with an optional subchannel granularity:
  /// when granularity > 0, grants are rounded *up* to whole subchannels.
  explicit ofdma_pool(double capacity_mhz, double granularity_mhz = 0.0);

  /// Total capacity in MHz.
  [[nodiscard]] double capacity_mhz() const noexcept { return capacity_; }

  /// Sum of currently granted bandwidth.
  [[nodiscard]] double allocated_mhz() const noexcept { return allocated_; }

  /// Remaining bandwidth.
  [[nodiscard]] double available_mhz() const noexcept {
    return capacity_ - allocated_;
  }

  /// Number of live grants.
  [[nodiscard]] std::size_t active_grants() const noexcept {
    return grants_.size();
  }

  /// Try to grant `mhz` (> 0) of bandwidth; nullopt when it does not fit.
  [[nodiscard]] std::optional<grant_id> allocate(double mhz);

  /// Bandwidth of a live grant; nullopt for unknown ids.
  [[nodiscard]] std::optional<double> grant_mhz(grant_id id) const;

  /// Release a live grant. Returns false for unknown ids (idempotent-safe).
  bool release(grant_id id);

  /// Effective size of a request after granularity rounding.
  [[nodiscard]] double rounded(double mhz) const;

 private:
  double capacity_;
  double granularity_;
  double allocated_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, double> grants_;
};

}  // namespace vtm::wireless
