// Argument preconditions that hold in every build. Release builds
// compile `assert` out, so a class that must refuse bad arguments there
// routes them through checked(); a constructor does it in its first
// member initializer, so it throws before any member allocates.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace mwllsc::util {

/// Returns `v` if `ok`, else throws std::invalid_argument(`what`).
template <class T>
T checked(T v, bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
  return v;
}

/// Throws std::invalid_argument(`what`) unless [first, first+count) is a
/// nonempty range of [0, size). Written so first+count cannot overflow.
inline void check_range(std::uint32_t first, std::uint32_t count,
                        std::uint32_t size, const char* what) {
  if (count == 0 || first > size || count > size - first) {
    throw std::invalid_argument(what);
  }
}

}  // namespace mwllsc::util
