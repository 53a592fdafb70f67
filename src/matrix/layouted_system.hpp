/// \file layouted_system.hpp
/// \brief Reduced-precision copies of a system's coefficient records.
///
/// `LayoutedSystem` owns the down-converted coefficient stores of one
/// system: the seed's row-record arrays stay the source of truth
/// (checkpoints, I/O, and the generator all speak them), and the fp32 /
/// bf16s copies are built on demand. Kernels never see this class —
/// they read raw pointers via `SystemView` — so the device story stays
/// pointer-based.
///
/// Conversion is serial and deterministic: same matrix, same converted
/// bytes, bit for bit, so fixed-config runs are bit-identical across
/// repeats.
#pragma once

#include <span>
#include <vector>

#include "matrix/precision.hpp"
#include "matrix/storage_layout.hpp"
#include "matrix/system_matrix.hpp"
#include "util/types.hpp"

namespace gaia::matrix {

/// Reduced-precision copy of the coefficient records, one instance per
/// storage scalar (float / bf16s). Indices are shared with the FP64
/// arrays — only the coefficient payload shrinks. Down-conversion
/// happens once at build time and is deterministic (round-to-nearest for
/// float, truncate-FP32 for bf16s; see matrix/precision.hpp), so
/// repeated builds are bit-identical.
template <typename T>
struct PrecisionStore {
  std::vector<T> values;  ///< row records, n_rows * kNnzPerRow

  [[nodiscard]] bool built() const { return !values.empty(); }
  [[nodiscard]] byte_size bytes() const { return values.size() * sizeof(T); }
};

/// Owner of the precision stores of one system. The name outlived the
/// derived layouts it used to build; it stays until ROADMAP item 8, as
/// the end-to-end benchmark constructs it. Holds a reference to the
/// source matrix; the matrix must outlive it. The coefficients are
/// read from `values` when given — a copy shaped like `A.values()`, such
/// as a column-scaled device copy, which must outlive the builds — and
/// from the matrix otherwise.
class LayoutedSystem {
 public:
  explicit LayoutedSystem(const SystemMatrix& A,
                          std::span<const real> values = {})
      : A_(&A), values_(values.empty() ? A.values() : values) {}

  /// No-op: there are no derived layouts to build. Stays until ROADMAP
  /// item 8, for the end-to-end benchmark's layout sweep.
  void build(StorageLayout) {}

  /// Down-converts the coefficient records into the store for `p`
  /// (idempotent; `kFp64` is a no-op).
  void build_precision(Precision p);

  /// True when the records have a `p` conversion (always for kFp64).
  [[nodiscard]] bool has_precision(Precision p) const;

  [[nodiscard]] const SystemMatrix& matrix() const { return *A_; }
  [[nodiscard]] const PrecisionStore<float>& f32() const { return f32_; }
  [[nodiscard]] const PrecisionStore<bf16s>& b16() const { return b16_; }

  /// Bytes the converted stores occupy on top of the seed storage.
  [[nodiscard]] byte_size derived_bytes() const {
    return f32_.bytes() + b16_.bytes();
  }

 private:
  template <typename T>
  void convert_into(PrecisionStore<T>& store);

  const SystemMatrix* A_;
  std::span<const real> values_;
  PrecisionStore<float> f32_{};
  PrecisionStore<bf16s> b16_{};
};

}  // namespace gaia::matrix
