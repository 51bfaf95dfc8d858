// satmc model: the host 1R1W-SKSS-LB tile protocol — the 1R1W-SKSS
// neighbour wait — as an explicit finite transition system.
//
// This is an *independent* encoding of the protocol — it deliberately does
// not include src/host/lookback.hpp or sat_skss_lb.hpp, so the conformance
// extractor (tools/satmc/conformance.py) can cross-check the real headers
// against the model's declarations and catch silent drift in either
// direction. The only shared code is the tile geometry (satalgo::TileGrid),
// so the model walks exactly the σ serial order the engine walks.
//
// Per tile the engine claims a serial, waits until its left neighbour is
// DONE, waits until its upper neighbour is DONE, reads what they published
// (the GRS of the left tile, the bottom table row of the upper tile), writes
// its own GRS, bottom row and dst, and releases its DONE flag. The model has one transition per visible step of that
// sequence: the claim, each neighbour observe, and the publish. No
// worker reads another tile's dst, so where the dst store sits relative to
// the release is invisible to the protocol (the residual encoder stores
// its tile after releasing DONE); the model stores it in the publish step.
//
// State = (claim counter) × (per-worker record) × (per-tile flag + value
// lattice). One reduction keeps 4×4 grids with 4 workers cheap: the
// explorer fires a neighbour observe whose flag is already DONE, and the
// exit step once nothing is left to claim, eagerly (Model::eager). Both
// touch only the worker's own record and stay enabled forever (flags are
// monotone, the counter never moves back), so they commute with every
// other transition and pruning their interleavings loses no reachable
// violation.
//
// Release/acquire is modeled with a per-value visibility lattice
// UNWRITTEN → LOCAL → VISIBLE: a worker's writes land as LOCAL (its store
// buffer, remembered in the worker record as its *pending* tile), a
// release-publish by that worker promotes them to VISIBLE, and every
// cross-tile read asserts VISIBLE — except a read of the reader's own
// pending tile, which store-to-load forwarding serves. The buffer also
// drains when the worker writes its next tile and when it exits (the pool
// join), so an unreleased value is only ever a *window*. A publish mutated
// to relaxed skips the promotion, so a reader on another worker that trusts
// the flag inside the window trips the read-before-release invariant — the
// model's rendering of "the flag passed the data on weakly ordered
// hardware".
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "sat/tiles.hpp"

namespace satmc {

// Flag lattice, independent re-declaration of the host's one-state lattice
// (cross-checked against sathost::hflag by the conformance extractor).
namespace flag {
inline constexpr std::uint8_t kDone = 1;
}  // namespace flag

/// Published per-tile quantities. Order is the value-lattice bit layout in
/// the packed tile byte.
enum Value : std::uint8_t {
  kValGrs = 0,
  kValBottom = 1,
  kValCount = 2,
};

inline const char* value_name(std::uint8_t v) {
  static const char* names[kValCount] = {"GRS", "bottom row"};
  return v < kValCount ? names[v] : "?";
}

/// Visibility lattice of one published value.
enum Vis : std::uint8_t {
  kUnwritten = 0,  ///< never stored
  kLocal = 1,      ///< stored, still in the writer's store buffer
  kVisible = 2,    ///< released — an acquiring reader sees it
};

/// Worker program counter: one value per visible step of the worker lambda
/// in src/host/sat_skss_lb.hpp.
enum class Phase : std::uint8_t {
  kClaim = 0,  ///< σ = counter++ (one fetch_add), or exit when σ ≥ tiles
  kWaitLeft,   ///< wait status[left] ≥ DONE
  kWaitUp,     ///< wait status[up] ≥ DONE
  kPublish,    ///< read the neighbours' sums, write own sums + dst,
               ///< release DONE → kClaim
  kLateData,   ///< flag-before-data only: the sums land after the flag
  kDone,       ///< worker exited (σ exhausted)
};

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kClaim: return "claim";
    case Phase::kWaitLeft: return "wait-left";
    case Phase::kWaitUp: return "wait-up";
    case Phase::kPublish: return "publish";
    case Phase::kLateData: return "late-data";
    case Phase::kDone: return "done";
  }
  return "?";
}

/// Seeded protocol bugs. Each must drive the clean-model invariants to a
/// counterexample — the checker's own mutation test suite.
enum class Mutation : std::uint8_t {
  kNone = 0,
  /// Release DONE *before* the tile's sums are written (they land in a
  /// later step). A neighbour that trusts the flag reads an unwritten GRS.
  kFlagBeforeData,
  /// The counter hands serials out in *decreasing* order. Neighbour waits
  /// then point at tiles claimed after the waiter; with fewer workers than
  /// tiles every worker ends up blocked on an unclaimed tile.
  kSigmaInversion,
  /// The DONE publish loses its release. The flag becomes observable while
  /// the sums are still in the writer's store buffer; a neighbour on
  /// another worker reads a value no release edge ever made visible.
  kDroppedRelease,
  /// The claim reads the counter and writes it back in a second step
  /// instead of one atomic RMW (a lost update): two workers can read the
  /// same σ and both process its tile.
  kRacyClaim,
};

inline const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kFlagBeforeData: return "flag-before-data";
    case Mutation::kSigmaInversion: return "sigma-order-inversion";
    case Mutation::kDroppedRelease: return "dropped-release";
    case Mutation::kRacyClaim: return "racy-claim";
  }
  return "?";
}

/// What a transition (or terminal check) can report.
enum class Verdict : std::uint8_t {
  kOk = 0,
  kDeadlock,            ///< live workers, no enabled transition
  kMonotonicity,        ///< a publish did not strictly raise the flag
  kReadUnwritten,       ///< read of a value nobody stored
  kReadUnreleased,      ///< read of a value no release edge published
  kDstRewrite,          ///< a tile's dst region stored twice
  kIncompleteTerminal,  ///< all workers exited with protocol state left over
};

inline const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kDeadlock: return "deadlock";
    case Verdict::kMonotonicity: return "flag-monotonicity-violation";
    case Verdict::kReadUnwritten: return "read-before-write";
    case Verdict::kReadUnreleased: return "read-before-release";
    case Verdict::kDstRewrite: return "dst-double-store";
    case Verdict::kIncompleteTerminal: return "sigma-progress-violation";
  }
  return "?";
}

/// A blocked wait, for deadlock diagnostics and the dynamic replay test.
struct BlockedWait {
  std::size_t worker = 0;
  std::size_t tile = 0;   ///< row-major index of the awaited neighbour
  std::uint8_t want = 0;  ///< wait threshold
};

/// The transition system for one (g_rows × g_cols tiles, nworkers) config.
///
/// Packed state layout (state_size() bytes):
///   [0]                       claim counter (serials handed out)
///   [1 + 3w .. 1 + 3w + 2]    worker w: phase, serial (0xFF = none),
///                             pending tile (0xFF = store buffer empty)
///   [base_t + t]              tile t: DONE (bit 0) | dst stored (bit 1) |
///                             value lattice (2 values × 2 bits, bits 2..5)
///
/// The claim layer mirrors sathost::ClaimScheduler: σ = counter++, one
/// fetch_add and so one model transition, and the worker exits once σ
/// passes the last serial. Claims carry no release edges in the model — a
/// serial is a pure work token, and the checker proves the DONE flags
/// alone guard every cross-tile read.
///
/// Workers are symmetric: no transition reads a worker index and tile
/// records name no worker, so permuting the worker records of any
/// reachable state yields a reachable state with the same future.
/// canonicalize() sorts the records; the explorer stores only canonical
/// representatives.
class Model {
 public:
  /// Bytes per packed worker record.
  static constexpr std::size_t kWRec = 3;
  static constexpr std::uint8_t kNoTile = 0xFF;

  Model(std::size_t g_rows, std::size_t g_cols, std::size_t nworkers,
        Mutation mutation = Mutation::kNone)
      : grid_(g_rows, g_cols, 1), nw_(nworkers), mut_(mutation) {}

  [[nodiscard]] std::size_t workers() const { return nw_; }
  [[nodiscard]] std::size_t tiles() const { return grid_.count(); }
  [[nodiscard]] const satalgo::TileGrid& grid() const { return grid_; }
  [[nodiscard]] Mutation mutation() const { return mut_; }

  [[nodiscard]] std::size_t state_size() const {
    return 1 + kWRec * nw_ + grid_.count();
  }

  void init(std::uint8_t* s) const {
    std::fill(s, s + state_size(), std::uint8_t{0});
    for (std::size_t w = 0; w < nw_; ++w) {
      wserial(s, w) = kNoTile;
      wpending(s, w) = kNoTile;
    }
  }

  // ── state accessors ──────────────────────────────────────────────────
  [[nodiscard]] std::uint8_t sigma(const std::uint8_t* s) const {
    return s[0];
  }
  [[nodiscard]] Phase phase(const std::uint8_t* s, std::size_t w) const {
    return static_cast<Phase>(s[1 + kWRec * w]);
  }
  [[nodiscard]] bool done(const std::uint8_t* s, std::size_t t) const {
    return (s[tile_base(t)] & 0x1) != 0;
  }
  [[nodiscard]] bool dst_written(const std::uint8_t* s, std::size_t t) const {
    return (s[tile_base(t)] & 0x2) != 0;
  }
  [[nodiscard]] Vis vis(const std::uint8_t* s, std::size_t t,
                        std::uint8_t val) const {
    return static_cast<Vis>((s[tile_base(t)] >> (2 + 2 * val)) & 0x3);
  }

  [[nodiscard]] bool all_done(const std::uint8_t* s) const {
    for (std::size_t w = 0; w < nw_; ++w)
      if (phase(s, w) != Phase::kDone) return false;
    return true;
  }

  [[nodiscard]] static bool is_wait(Phase p) {
    return p == Phase::kWaitLeft || p == Phase::kWaitUp;
  }

  /// Worker `w` can fire its next transition in `s`. Only the two wait
  /// phases ever block (on their neighbour's flag); kDone is final.
  [[nodiscard]] bool enabled(const std::uint8_t* s, std::size_t w) const {
    const Phase p = phase(s, w);
    if (p == Phase::kDone) return false;
    if (is_wait(p)) return done(s, wait_of(s, w).tile);
    return true;
  }

  /// Ample-set reduction hook: true when worker `w`'s next transition is
  /// outcome-deterministic and invisible to every other worker, so the
  /// explorer fires it immediately, fused into whatever transition exposed
  /// it (closure compression). Two cases:
  ///
  ///   * a neighbour observe whose flag is already DONE — the step only
  ///     advances `w`'s own phase, and the flag never falls again;
  ///   * the exit step once nothing is left to claim (σ never decreases) and
  ///     the worker's store buffer is empty.
  ///
  /// Such a transition commutes with every transition of every other
  /// worker, stays enabled forever, and cannot be part of a cycle (the
  /// whole system is acyclic: each step strictly advances a progress
  /// measure), so pruning the siblings loses no reachable violation.
  [[nodiscard]] bool eager(const std::uint8_t* s, std::size_t w) const {
    const Phase p = phase(s, w);
    if (p == Phase::kClaim) {
      // The exit step is forced (and invisible) once the counter has
      // passed the last serial. An exit that drains an unreleased store
      // buffer is visible and stays lazy (only a mutated publish leaves
      // one behind), and so does every exit under racy-claim, whose
      // write-back can move the counter back.
      return s[0] >= tiles() && wpending(s, w) == kNoTile &&
             mut_ != Mutation::kRacyClaim;
    }
    return is_wait(p) && done(s, wait_of(s, w).tile);
  }

  /// The wait a wait-phase worker is parked on (valid only for wait phases).
  [[nodiscard]] BlockedWait wait_of(const std::uint8_t* s,
                                    std::size_t w) const {
    const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
    BlockedWait bw;
    bw.worker = w;
    bw.want = flag::kDone;
    bw.tile = phase(s, w) == Phase::kWaitLeft ? grid_.idx(ti, tj - 1)
                                              : grid_.idx(ti - 1, tj);
    return bw;
  }

  /// Fires worker `w`'s next transition in place. Must only be called when
  /// enabled(s, w). Returns the first invariant violation, if any; when
  /// `desc` is non-null it receives a human-readable line for the schedule
  /// printout (filled for kOk steps too).
  Verdict apply(std::uint8_t* s, std::size_t w, std::string* desc) const {
    switch (phase(s, w)) {
      case Phase::kClaim:
        return claim(s, w, desc);
      case Phase::kWaitLeft:
      case Phase::kWaitUp:
        return observe(s, w, desc);
      case Phase::kPublish:
        return publish_tile(s, w, desc);
      case Phase::kLateData:
        return late_data(s, w, desc);
      case Phase::kDone:
        break;
    }
    return Verdict::kOk;
  }

  /// σ-progress: when every worker has exited, every serial must have been
  /// claimed, every tile must be DONE with its published values visible,
  /// and every dst region must be stored exactly once.
  Verdict check_terminal(const std::uint8_t* s, std::string* desc) const {
    if (s[0] != tiles()) {
      if (desc != nullptr)
        *desc = "all workers exited with unclaimed serials (sigma=" +
                std::to_string(s[0]) + " of " + std::to_string(tiles()) + ")";
      return Verdict::kIncompleteTerminal;
    }
    for (std::size_t t = 0; t < tiles(); ++t) {
      bool ok = done(s, t) && dst_written(s, t);
      for (std::uint8_t v = 0; v < kValCount; ++v)
        ok = ok && vis(s, t, v) == kVisible;
      if (!ok) {
        if (desc != nullptr)
          *desc = "tile " + std::to_string(t) +
                  " not retired at termination (done=" +
                  (done(s, t) ? "1" : "0") +
                  " dst=" + (dst_written(s, t) ? "1" : "0") + ")";
        return Verdict::kIncompleteTerminal;
      }
    }
    return Verdict::kOk;
  }

  /// Sorts the worker records so symmetric states share one representative.
  void canonicalize(std::uint8_t* s) const {
    std::array<std::array<std::uint8_t, kWRec>, 16> recs;
    for (std::size_t w = 0; w < nw_; ++w)
      std::copy(s + 1 + kWRec * w, s + 1 + kWRec * (w + 1), recs[w].begin());
    std::sort(recs.begin(), recs.begin() + nw_);
    for (std::size_t w = 0; w < nw_; ++w)
      std::copy(recs[w].begin(), recs[w].end(), s + 1 + kWRec * w);
  }

  /// Stable permutation that canonicalize() would apply: perm[slot] = the
  /// worker index currently holding what ends up at canonical `slot`. Used
  /// to replay a canonical trace against a concrete state.
  void canonical_perm(const std::uint8_t* s, std::size_t* perm) const {
    for (std::size_t w = 0; w < nw_; ++w) perm[w] = w;
    std::stable_sort(perm, perm + nw_, [&](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(
          s + 1 + kWRec * a, s + 1 + kWRec * (a + 1), s + 1 + kWRec * b,
          s + 1 + kWRec * (b + 1));
    });
  }

 private:
  [[nodiscard]] std::size_t tile_base(std::size_t t) const {
    return 1 + kWRec * nw_ + t;
  }
  [[nodiscard]] std::uint8_t& wserial(std::uint8_t* s, std::size_t w) const {
    return s[1 + kWRec * w + 1];
  }
  [[nodiscard]] std::uint8_t wserial(const std::uint8_t* s,
                                     std::size_t w) const {
    return s[1 + kWRec * w + 1];
  }
  [[nodiscard]] std::uint8_t& wpending(std::uint8_t* s, std::size_t w) const {
    return s[1 + kWRec * w + 2];
  }
  [[nodiscard]] std::uint8_t wpending(const std::uint8_t* s,
                                      std::size_t w) const {
    return s[1 + kWRec * w + 2];
  }
  void set_phase(std::uint8_t* s, std::size_t w, Phase p) const {
    s[1 + kWRec * w] = static_cast<std::uint8_t>(p);
  }

  /// The first step of a freshly claimed tile: its first neighbour wait, or
  /// the publish for the corner tile, which has no neighbours.
  [[nodiscard]] Phase first_phase(std::size_t ti, std::size_t tj) const {
    if (tj > 0) return Phase::kWaitLeft;
    if (ti > 0) return Phase::kWaitUp;
    return Phase::kPublish;
  }

  /// sathost::ClaimScheduler::next: σ = counter++ in one atomic RMW, or
  /// exit once the counter has passed the last serial. Under racy-claim a
  /// claim takes two steps: the first reads the counter into the worker's
  /// serial, the second (the worker still in kClaim with that serial set)
  /// writes it back.
  Verdict claim(std::uint8_t* s, std::size_t w, std::string* desc) const {
    if (mut_ == Mutation::kRacyClaim && wserial(s, w) != kNoTile)
      return claim_store(s, w, desc);
    const std::uint8_t at = s[0];
    if (at >= tiles()) {
      // Exiting joins the pool, which drains the worker's store buffer.
      drain(s, w);
      set_phase(s, w, Phase::kDone);
      note(desc, w, "exits (counter past the last serial)");
      return Verdict::kOk;
    }
    if (mut_ == Mutation::kRacyClaim) {
      wserial(s, w) = at;
      if (desc != nullptr) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "reads the counter: serial %u", at);
        note(desc, w, buf);
      }
      return Verdict::kOk;
    }
    s[0] = static_cast<std::uint8_t>(at + 1);
    return start_tile(s, w,
                      mut_ == Mutation::kSigmaInversion
                          ? static_cast<std::uint8_t>(tiles() - 1 - at)
                          : at,
                      desc);
  }

  /// racy-claim's second half: the read σ + 1 is stored back, overwriting
  /// whatever claims ran in between.
  Verdict claim_store(std::uint8_t* s, std::size_t w,
                      std::string* desc) const {
    const std::uint8_t serial = wserial(s, w);
    s[0] = static_cast<std::uint8_t>(serial + 1);
    return start_tile(s, w, serial, desc);
  }

  /// Worker `w` holds serial `serial` and moves to its tile's first step.
  Verdict start_tile(std::uint8_t* s, std::size_t w, std::uint8_t serial,
                     std::string* desc) const {
    wserial(s, w) = serial;
    const auto [ti, tj] = grid_.tile_of_serial(serial);
    set_phase(s, w, first_phase(ti, tj));
    if (desc != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "claims serial %u -> tile (%zu,%zu)",
                    serial, ti, tj);
      note(desc, w, buf);
    }
    return Verdict::kOk;
  }

  /// One neighbour observe: the caller guaranteed the flag is DONE.
  Verdict observe(std::uint8_t* s, std::size_t w, std::string* desc) const {
    const BlockedWait bw = wait_of(s, w);
    const bool left = phase(s, w) == Phase::kWaitLeft;
    if (desc != nullptr) {
      const auto [pi, pj] = tile_rc(bw.tile);
      char buf[96];
      std::snprintf(buf, sizeof buf, "observes %s neighbour (%zu,%zu) DONE",
                    left ? "left" : "upper", pi, pj);
      note(desc, w, buf);
    }
    const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
    set_phase(s, w, left && ti > 0 ? Phase::kWaitUp : Phase::kPublish);
    return Verdict::kOk;
  }

  /// The fused sweep and the DONE release: read the neighbours' sums, write
  /// the tile's own sums and dst, publish.
  Verdict publish_tile(std::uint8_t* s, std::size_t w,
                       std::string* desc) const {
    const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
    const std::size_t self = grid_.idx(ti, tj);
    if (tj > 0)
      if (Verdict v = read(s, grid_.idx(ti, tj - 1), kValGrs, w, desc);
          v != Verdict::kOk)
        return v;
    if (ti > 0)
      if (Verdict v = read(s, grid_.idx(ti - 1, tj), kValBottom, w, desc);
          v != Verdict::kOk)
        return v;
    if (mut_ == Mutation::kFlagBeforeData) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "publishes DONE[(%zu,%zu)] before writing its sums", ti,
                    tj);
      note(desc, w, buf);
      if (Verdict v = publish(s, w, self, true, desc); v != Verdict::kOk)
        return v;
      set_phase(s, w, Phase::kLateData);
      return Verdict::kOk;
    }
    if (Verdict v = write_sums(s, w, self, desc); v != Verdict::kOk) return v;
    const bool release = mut_ != Mutation::kDroppedRelease;
    char buf[112];
    std::snprintf(buf, sizeof buf,
                  "sweeps tile (%zu,%zu) into dst, publishes DONE (%s)", ti,
                  tj, release ? "release" : "RELAXED");
    note(desc, w, buf);
    if (Verdict v = publish(s, w, self, release, desc); v != Verdict::kOk)
      return v;
    wserial(s, w) = kNoTile;
    set_phase(s, w, Phase::kClaim);
    return Verdict::kOk;
  }

  /// flag-before-data: the sums and dst land after the flag went out.
  Verdict late_data(std::uint8_t* s, std::size_t w, std::string* desc) const {
    const auto [ti, tj] = grid_.tile_of_serial(wserial(s, w));
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "writes the sums of tile (%zu,%zu) after its flag", ti, tj);
    note(desc, w, buf);
    if (Verdict v = write_sums(s, w, grid_.idx(ti, tj), desc);
        v != Verdict::kOk)
      return v;
    wserial(s, w) = kNoTile;
    set_phase(s, w, Phase::kClaim);
    return Verdict::kOk;
  }

  void set_vis(std::uint8_t* s, std::size_t t, std::uint8_t val,
               Vis v) const {
    std::uint8_t& b = s[tile_base(t)];
    const unsigned shift = 2 + 2 * val;
    b = static_cast<std::uint8_t>((b & ~(0x3u << shift)) |
                                  (static_cast<unsigned>(v) << shift));
  }

  /// Promotes the LOCAL values of worker `w`'s pending tile to VISIBLE.
  void drain(std::uint8_t* s, std::size_t w) const {
    const std::uint8_t t = wpending(s, w);
    if (t == kNoTile) return;
    for (std::uint8_t v = 0; v < kValCount; ++v)
      if (vis(s, t, v) == kLocal) set_vis(s, t, v, kVisible);
    wpending(s, w) = kNoTile;
  }

  /// Worker `w` stores tile `t`'s GRS and bottom row into its store buffer
  /// (an older pending tile drains first) and stores the tile to dst.
  Verdict write_sums(std::uint8_t* s, std::size_t w, std::size_t t,
                     std::string* desc) const {
    drain(s, w);
    for (std::uint8_t v = 0; v < kValCount; ++v)
      if (vis(s, t, v) == kUnwritten) set_vis(s, t, v, kLocal);
    wpending(s, w) = static_cast<std::uint8_t>(t);
    return store_dst(s, t, w, desc);
  }

  /// An acquiring cross-tile read of `val` of tile `t` by worker `w`.
  Verdict read(std::uint8_t* s, std::size_t t, std::uint8_t val,
               std::size_t w, std::string* desc) const {
    const Vis v = vis(s, t, val);
    if (v == kVisible || (v == kLocal && wpending(s, w) == t))
      return Verdict::kOk;
    if (desc != nullptr) {
      const auto [ti, tj] = tile_rc(t);
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "reads %s of tile (%zu,%zu) which is %s",
                    value_name(val), ti, tj,
                    v == kUnwritten ? "not yet written"
                                    : "written but never released");
      note(desc, w, buf);
    }
    return v == kUnwritten ? Verdict::kReadUnwritten
                           : Verdict::kReadUnreleased;
  }

  Verdict store_dst(std::uint8_t* s, std::size_t t, std::size_t w,
                    std::string* desc) const {
    if (dst_written(s, t)) {
      if (desc != nullptr) note(desc, w, "stores an already-stored dst tile");
      return Verdict::kDstRewrite;
    }
    s[tile_base(t)] |= std::uint8_t{0x2};
    return Verdict::kOk;
  }

  /// Raises tile `t`'s DONE flag for worker `w` and — when `release` —
  /// drains the worker's store buffer.
  Verdict publish(std::uint8_t* s, std::size_t w, std::size_t t, bool release,
                  std::string* desc) const {
    if (done(s, t)) {
      if (desc != nullptr) {
        const auto [ti, tj] = tile_rc(t);
        char buf[112];
        std::snprintf(buf, sizeof buf,
                      "publishes DONE[(%zu,%zu)] over DONE -- flag did not "
                      "rise (monotonicity)",
                      ti, tj);
        note(desc, w, buf);
      }
      return Verdict::kMonotonicity;
    }
    s[tile_base(t)] |= std::uint8_t{0x1};
    if (release) drain(s, w);
    return Verdict::kOk;
  }

  [[nodiscard]] std::pair<std::size_t, std::size_t> tile_rc(
      std::size_t t) const {
    return {t / grid_.g_cols(), t % grid_.g_cols()};
  }

  static void note(std::string* desc, std::size_t w, const char* what) {
    if (desc == nullptr) return;
    *desc = "w" + std::to_string(w) + " " + what;
  }

  satalgo::TileGrid grid_;
  std::size_t nw_;
  Mutation mut_;
};

}  // namespace satmc
