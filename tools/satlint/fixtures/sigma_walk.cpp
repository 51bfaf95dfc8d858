// satlint fixture: a neighbour wait whose tile index steps toward *larger*
// indices.  Every wait must target a strictly smaller serial sigma (the
// left or the upper neighbour) — claimed-before implies published-
// eventually, which is the whole deadlock-freedom argument on a finite
// pool.  Waiting on the right neighbour waits on a tile nobody may have
// claimed yet.
//
// satlint-expect: sigma-direction
#include <cstddef>
#include <cstdint>

namespace sathost {
struct LookbackObs;
struct StatusFlags {
  bool wait_at_least(std::size_t idx, std::uint8_t want,
                     const LookbackObs& obs) const noexcept;
};
}  // namespace sathost

std::size_t tile_idx(std::size_t ti, std::size_t tj, std::size_t cols_tiles) {
  return ti * cols_tiles + tj;
}

void broken_wait(const sathost::StatusFlags& status, std::size_t ti,
                 std::size_t tj, std::size_t cols_tiles,
                 const sathost::LookbackObs& obs) {
  // BUG: `tj + 1` waits on the right neighbour, a tile with larger sigma.
  status.wait_at_least(tile_idx(ti, tj + 1, cols_tiles), 1, obs);
}
