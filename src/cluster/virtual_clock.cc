#include "cluster/virtual_clock.h"

#include <algorithm>

#include "common/logging.h"

namespace gal {

double VirtualClock::AdvanceRound(std::span<const double> per_worker_compute,
                                  uint64_t comm_bytes,
                                  uint64_t comm_messages) {
  double max_compute = 0.0;
  for (double c : per_worker_compute) max_compute = std::max(max_compute, c);
  return AdvanceRound(max_compute, comm_bytes, comm_messages);
}

double VirtualClock::AdvanceRound(double max_compute_seconds,
                                  uint64_t comm_bytes,
                                  uint64_t comm_messages) {
  ClusterRound round;
  round.compute_seconds = max_compute_seconds;
  round.comm_bytes = comm_bytes;
  round.comm_messages = comm_messages;
  round.comm_seconds =
      (comm_bytes == 0 && comm_messages == 0)
          ? 0.0
          : cost_.TransferSeconds(comm_bytes, comm_messages);
  round.round_seconds = round.compute_seconds + round.comm_seconds;
  std::lock_guard<std::mutex> lock(mu_);
  rounds_.push_back(round);
  seconds_ += round.round_seconds;
  return round.round_seconds;
}

double VirtualClock::seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seconds_;
}

size_t VirtualClock::rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounds_.size();
}

double VirtualClock::SecondsSince(size_t first_round) const {
  std::lock_guard<std::mutex> lock(mu_);
  double s = 0.0;
  for (size_t r = first_round; r < rounds_.size(); ++r) {
    s += rounds_[r].round_seconds;
  }
  return s;
}

std::vector<ClusterRound> VirtualClock::RoundsSince(size_t first_round) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (first_round >= rounds_.size()) return {};
  return std::vector<ClusterRound>(rounds_.begin() + first_round,
                                   rounds_.end());
}

void VirtualClock::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  rounds_.clear();
  seconds_ = 0.0;
}

}  // namespace gal
