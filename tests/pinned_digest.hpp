// FNV-1a stream over the bytes of a run's observables, for tests that pin a
// simulated schedule to a constant recorded from a known-good build.
//
// Integral values and padding-free structs are hashed as their object bytes,
// doubles as their bit patterns, strings as their characters. A pin that
// fails prints the fresh digest so an intended schedule change can re-pin it
// in the same commit; an unintended one is a determinism regression.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "util/json.hpp"

namespace anton {

class PinnedDigest {
 public:
  template <typename T>
  PinnedDigest& add(const T& v) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "hash only padding-free values (doubles: use add(double))");
    h_ = util::fnv1a64({reinterpret_cast<const char*>(&v), sizeof v}, h_);
    return *this;
  }
  PinnedDigest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  PinnedDigest& add(std::string_view s) {
    h_ = util::fnv1a64(s, h_);
    return *this;
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = util::kFnvOffsetBasis;
};

}  // namespace anton
