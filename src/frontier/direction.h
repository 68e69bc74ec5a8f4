#ifndef GAL_FRONTIER_DIRECTION_H_
#define GAL_FRONTIER_DIRECTION_H_

#include <cstdint>

#include "graph/graph.h"

namespace gal {

/// Which way a traversal step walks the adjacency structure.
///   kPush — scatter from frontier vertices over their out-edges (the
///           classic top-down / message-passing step);
///   kPull — every candidate vertex gathers over its in-edges, stopping
///           at the first frontier hit (Beamer's bottom-up step).
enum class Direction : uint8_t { kPush, kPull };

/// How the per-step direction is chosen.
enum class DirectionMode : uint8_t {
  kAuto,      // Beamer scout-count heuristic (the default)
  kPushOnly,  // baseline: never pull (bit-identical reference)
  kPullOnly,  // always gather (for representation-parity testing)
};

/// Direction-optimizing knobs (Beamer, Asanović, Patterson, SC'12).
/// A step switches push→pull when the edges the frontier would scatter
/// over exceed 1/alpha of the edges still incident to unexplored
/// vertices, and pull→push when the frontier shrinks below |V|/beta.
struct DirectionConfig {
  DirectionMode mode = DirectionMode::kAuto;
  double alpha = 15.0;
  double beta = 18.0;

  /// Defaults with environment overrides applied (common/env.h):
  ///   GAL_FRONTIER_MODE  ∈ {auto, push, pull}
  ///   GAL_FRONTIER_ALPHA > 0 (push→pull aggressiveness; higher = later)
  ///   GAL_FRONTIER_BETA  > 0 (pull→push switch-back; higher = later)
  /// A malformed value warns once per process and keeps the default.
  static DirectionConfig FromEnv();
};

/// Per-run direction chooser with the hysteresis the two thresholds
/// encode: once pulling, keep pulling until the frontier is sparse again.
/// Trivially copyable, so a traversal checkpoint snapshots it by bytes.
class DirectionController {
 public:
  DirectionController() = default;  // a checkpoint restore target
  DirectionController(const DirectionConfig& config, VertexId num_vertices)
      : config_(config), num_vertices_(num_vertices) {}

  /// Direction for the step about to run. `frontier_edges` is Beamer's
  /// m_f (Σ out-degree of the frontier), `frontier_vertices` its n_f,
  /// `unexplored_edges` his m_u (Σ degree of not-yet-claimed vertices).
  Direction Next(uint64_t frontier_edges, uint64_t frontier_vertices,
                 uint64_t unexplored_edges);

  Direction current() const { return current_; }
  uint32_t switches() const { return switches_; }

 private:
  DirectionConfig config_;
  VertexId num_vertices_ = 0;
  Direction current_ = Direction::kPush;
  uint32_t switches_ = 0;
};

}  // namespace gal

#endif  // GAL_FRONTIER_DIRECTION_H_
