/// \file layouted_system.hpp
/// \brief The retired owner of a system's derived coefficient stores.
///
/// The solver reads one copy of the coefficients: the fp64 row records
/// of `SystemMatrix`, uploaded once by `core::Aprod`. The derived
/// layouts and the reduced-precision copies this class used to build are
/// gone (DESIGN.md §14, §15). The class stays, empty, until ROADMAP
/// item 8, because the end-to-end benchmark's layout sweep constructs it
/// and calls `build`.
#pragma once

#include "matrix/storage_layout.hpp"
#include "matrix/system_matrix.hpp"

namespace gaia::matrix {

class LayoutedSystem {
 public:
  explicit LayoutedSystem(const SystemMatrix&) {}

  /// No-op: there is nothing to derive.
  void build(StorageLayout) {}
};

}  // namespace gaia::matrix
