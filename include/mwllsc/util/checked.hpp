// Argument preconditions that hold in every build. Release builds
// compile `assert` out, so a class that must refuse bad arguments there
// routes them through checked(); a constructor does it in its first
// member initializer, so it throws before any member allocates.
#pragma once

#include <stdexcept>

namespace mwllsc::util {

/// Returns `v` if `ok`, else throws std::invalid_argument(`what`).
template <class T>
T checked(T v, bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
  return v;
}

}  // namespace mwllsc::util
