// Deliberately drifted copy of src/host/lookback.hpp's protocol surface —
// the negative test for tools/satmc/conformance.py (ctest
// satmc_conformance_drift feeds it in via --lookback and requires the
// extractor to reject it). Two seeded drifts:
//
//   1. the lattice grows a second state below DONE (a waiter keyed on the
//      model's DONE = 1 would then accept a tile whose sums are only half
//      published);
//   2. publish() stores the flag relaxed with no satlint allow — the flag
//      can pass the data it guards.
//
// Never compiled; exists only as extractor input, so it keeps exactly the
// declarations the extractor parses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace sathost {

namespace hflag {
inline constexpr std::uint8_t kRows = 1;  ///< DRIFT: GRS published alone
inline constexpr std::uint8_t kDone = 2;  ///< DRIFT: DONE moved up
}  // namespace hflag

class StatusFlags {
 public:
  void publish(std::size_t idx, std::uint8_t state) noexcept {
    // DRIFT: relaxed publish, and no audited-exception allow directive.
    flags_[idx].store(state, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint8_t peek(std::size_t idx) const noexcept {
    return flags_[idx].load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint8_t>* flags_ = nullptr;
};

}  // namespace sathost
