#ifndef GAL_NN_OPTIMIZER_H_
#define GAL_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace gal {

/// Adam (β1 = 0.9, β2 = 0.999, ε = 1e-8) over a fixed set of parameter
/// matrices. Step() consumes gradients aligned index-for-index with the
/// attached parameters.
class Adam {
 public:
  explicit Adam(float lr) : lr_(lr) {}
  /// Registers the parameters once, before the first Step.
  void Attach(std::vector<Matrix*> params);
  void Step(const std::vector<Matrix>& grads);

  /// Checkpoint access for the elastic cluster runtime: the step count
  /// and moment estimates are part of trainer state, so rollback must
  /// restore them bit-exactly for replayed epochs to match.
  uint64_t step_count() const { return t_; }
  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }
  void RestoreState(uint64_t t, std::vector<Matrix> m,
                    std::vector<Matrix> v) {
    t_ = t;
    m_ = std::move(m);
    v_ = std::move(v);
  }

 private:
  float lr_;
  std::vector<Matrix*> params_;
  uint64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace gal

#endif  // GAL_NN_OPTIMIZER_H_
