#include "frontier/direction.h"

namespace gal {
namespace {

// Beamer's alpha and beta (see DirectionConfig).
constexpr double kAlpha = 15.0;
constexpr double kBeta = 18.0;

}  // namespace

Direction DirectionController::Next(uint64_t frontier_edges,
                                    uint64_t frontier_vertices,
                                    uint64_t unexplored_edges) {
  switch (config_.mode) {
    case DirectionMode::kPushOnly:
      current_ = Direction::kPush;
      return current_;
    case DirectionMode::kPullOnly:
      current_ = Direction::kPull;
      return current_;
    case DirectionMode::kAuto:
      break;
  }
  if (current_ == Direction::kPush) {
    // Scatter would check more edges than 1/alpha of what is left to
    // claim: gathering over in-edges with early exit is cheaper.
    if (static_cast<double>(frontier_edges) >
        static_cast<double>(unexplored_edges) / kAlpha) {
      current_ = Direction::kPull;
      ++switches_;
    }
  } else {
    // The frontier thinned out: scanning every candidate's in-edges
    // costs more than scattering the few remaining frontier vertices.
    if (static_cast<double>(frontier_vertices) <
        static_cast<double>(num_vertices_) / kBeta) {
      current_ = Direction::kPush;
      ++switches_;
    }
  }
  return current_;
}

}  // namespace gal
