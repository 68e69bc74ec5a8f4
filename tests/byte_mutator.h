#ifndef GAL_TESTS_BYTE_MUTATOR_H_
#define GAL_TESTS_BYTE_MUTATOR_H_

#include <cstdint>
#include <string>

#include "common/rng.h"

namespace gal::testing_util {

/// A seeded byte mutator for hostile-input tests, in place of a fuzzing
/// framework: each Mutate applies one to `max_edits` edits to a copy of
/// `input`, each one of
///   - flip: xor one bit of one byte;
///   - insert: add a byte, half the time one that means something to a
///     parser (digits, signs, separators, whitespace, letters of
///     inf/nan/hex), else any non-NUL byte;
///   - delete: remove one byte;
///   - duplicate: repeat a run of the input in place;
///   - splice: replace a run with a run of `donor`.
/// The same seed yields the same sequence of mutants on every host.
class ByteMutator {
 public:
  explicit ByteMutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(const std::string& input, const std::string& donor,
                     int max_edits = 3) {
    std::string out = input;
    const int edits = 1 + static_cast<int>(rng_.Uniform(max_edits));
    for (int e = 0; e < edits; ++e) Edit(&out, donor);
    return out;
  }

 private:
  size_t Pos(size_t size) { return rng_.Uniform(size + 1); }

  char Byte() {
    static constexpr char kMeaningful[] = "0123456789.eE+-,@:x \tnaif";
    if (rng_.Uniform(2) == 0) {
      return kMeaningful[rng_.Uniform(sizeof(kMeaningful) - 1)];
    }
    return static_cast<char>(1 + rng_.Uniform(255));
  }

  void Edit(std::string* s, const std::string& donor) {
    switch (rng_.Uniform(5)) {
      case 0:  // a NUL ends the value, as it would in the environment
        if (!s->empty()) {
          const size_t at = rng_.Uniform(s->size());
          (*s)[at] = static_cast<char>((*s)[at] ^ (1 << rng_.Uniform(8)));
          if ((*s)[at] == '\0') s->resize(at);
        }
        return;
      case 1:
        s->insert(Pos(s->size()), 1, Byte());
        return;
      case 2:
        if (!s->empty()) s->erase(rng_.Uniform(s->size()), 1);
        return;
      case 3: {
        if (s->empty()) return;
        const size_t from = rng_.Uniform(s->size());
        const size_t len = 1 + rng_.Uniform(s->size() - from);
        s->insert(Pos(s->size()), s->substr(from, len));
        return;
      }
      default: {
        const size_t at = Pos(s->size());
        const size_t cut = rng_.Uniform(s->size() - at + 1);
        const size_t from = Pos(donor.size());
        const size_t len = rng_.Uniform(donor.size() - from + 1);
        s->replace(at, cut, donor.substr(from, len));
        return;
      }
    }
  }

  Rng rng_;
};

}  // namespace gal::testing_util

#endif  // GAL_TESTS_BYTE_MUTATOR_H_
