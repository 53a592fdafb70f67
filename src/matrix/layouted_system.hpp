/// \file layouted_system.hpp
/// \brief Derived coefficient layouts built once from a SystemMatrix.
///
/// `LayoutedSystem` owns the alternative storage layouts of one system:
/// the seed's row-record arrays stay the source of truth (checkpoints,
/// I/O, and the generator all speak it), and the SoA-tiled streams and
/// the sliced instrumental format are derived views built on demand.
/// Kernels never see this class — they read raw pointers + scalars via
/// the layout descriptors `SystemView` carries — so the device/GPU
/// story stays pointer-based.
///
/// Build is serial and deterministic: same matrix, same derived bytes,
/// bit for bit. Determinism matters because the sliced format fixes the
/// lane->row permutation that the instrumental kernels iterate in, and
/// fixed-config runs must be bit-identical across repeats.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "matrix/precision.hpp"
#include "matrix/storage_layout.hpp"
#include "matrix/system_matrix.hpp"
#include "util/types.hpp"

namespace gaia::matrix {

/// Structure-of-arrays coefficient streams, plane-major within row
/// tiles of `kSoaTileRows`: coefficient i of row r lives at
///
///   stream[(tile(r) * planes + i) * kSoaTileRows + (r % kSoaTileRows)]
///
/// so a kernel sweeping one tile touches `planes` contiguous 2 KiB
/// plane segments instead of striding through 192 B AoS records. The
/// final partial tile is zero-padded to the full tile height; padded
/// rows carry zero coefficients and are never indexed by kernels (they
/// iterate r < n_rows), but the padding keeps every plane segment
/// aligned and the addressing branch-free.
struct SoaStreams {
  std::vector<real> astro;  ///< kAstroNnzPerRow planes
  std::vector<real> att;    ///< kAttNnzPerRow planes
  std::vector<real> instr;  ///< kInstrNnzPerRow planes
  std::vector<real> glob;   ///< 1 plane
  row_index n_rows = 0;
  row_index padded_rows = 0;  ///< n_tiles * kSoaTileRows

  [[nodiscard]] bool built() const { return padded_rows > 0; }
  [[nodiscard]] byte_size bytes() const {
    return (astro.size() + att.size() + instr.size() + glob.size()) *
           sizeof(real);
  }
};

/// SELL-C-sigma-style storage of the irregular instrumental block.
///
/// Rows are stable-sorted by their first instrumental column within
/// sigma windows of `kSliceSigmaWindow` rows, then grouped into slices
/// of `kSliceHeight` lanes. Values and columns are stored lane-major,
///
///   slice_values[(s * kInstrNnzPerRow + j) * kSliceHeight + lane]
///
/// so `kSliceHeight` consecutive workers read consecutive memory and —
/// thanks to the sort — gather/scatter nearby instrumental columns,
/// which is what turns the block's ~90 % miss rate into cache reuse.
/// Padded lanes carry row -1 and zeroed values/columns.
struct SlicedInstr {
  std::vector<real> slice_values;        ///< n_slices * 6 * kSliceHeight
  std::vector<std::int32_t> slice_cols;  ///< same shape, section-local
  std::vector<row_index> slice_rows;     ///< n_slices * kSliceHeight, -1 pad
  /// Inverse permutation: row r occupies flat lane slot `row_slot[r]`
  /// (= slice * kSliceHeight + lane). Lets the privatized scatter keep
  /// iterating rows in ascending order — the fold stays bit-identical
  /// to the seed layout's worker partitioning.
  std::vector<row_index> row_slot;
  row_index n_rows = 0;
  row_index n_slices = 0;

  [[nodiscard]] bool built() const { return n_slices > 0; }
  [[nodiscard]] byte_size bytes() const {
    return slice_values.size() * sizeof(real) +
           slice_cols.size() * sizeof(std::int32_t) +
           (slice_rows.size() + row_slot.size()) * sizeof(row_index);
  }
};

/// Reduced-precision copies of the coefficient streams, one instance
/// per storage scalar (float / bf16s). Indices are shared with the
/// FP64 arrays — only the coefficient payloads shrink. Down-conversion
/// happens once at build time and is deterministic (round-to-nearest
/// for float, truncate-FP32 for bf16s; see matrix/precision.hpp), so
/// repeated builds are bit-identical.
template <typename T>
struct PrecisionStore {
  std::vector<T> values;  ///< seed AoS records, n_rows * kNnzPerRow
  std::vector<T> soa_astro, soa_att, soa_instr, soa_glob;  ///< SoA planes
  std::vector<T> slice_values;  ///< sliced instrumental payload

  [[nodiscard]] bool built() const { return !values.empty(); }
  [[nodiscard]] byte_size bytes() const {
    return (values.size() + soa_astro.size() + soa_att.size() +
            soa_instr.size() + soa_glob.size() + slice_values.size()) *
           sizeof(T);
  }
};

/// Owner of the derived layouts of one system. Holds a reference to the
/// source matrix; the matrix must outlive it and must not be resized
/// while layouts are attached to views. The coefficients are read from
/// `values` when given — a copy shaped like `A.values()`, such as a
/// column-scaled device copy, which must outlive the builds — and from
/// the matrix otherwise; indices and structure always come from `A`.
class LayoutedSystem {
 public:
  explicit LayoutedSystem(const SystemMatrix& A,
                          std::span<const real> values = {})
      : A_(&A), values_(values.empty() ? A.values() : values) {}

  /// Builds the derived arrays a layout needs (idempotent; `kSeedAos`
  /// is a no-op). `kSlicedInstr` implies the SoA streams too: it uses
  /// them for the regular astro/att/glob blocks.
  void build(StorageLayout layout);

  /// True when every array `layout` needs has been built.
  [[nodiscard]] bool has(StorageLayout layout) const;

  /// Down-converts every *currently built* coefficient stream (the seed
  /// AoS records always; SoA planes / sliced payload when built) into
  /// the store for `p`. Idempotent per stream and safe to call again
  /// after building a new layout — only streams whose conversion is
  /// missing or stale are (re)converted. `kFp64` is a no-op.
  void build_precision(Precision p);

  /// True when every stream `layout` reads has a `p` conversion.
  [[nodiscard]] bool has_precision(
      Precision p, StorageLayout layout = StorageLayout::kSeedAos) const;

  [[nodiscard]] const SystemMatrix& matrix() const { return *A_; }
  [[nodiscard]] const SoaStreams& soa() const { return soa_; }
  [[nodiscard]] const SlicedInstr& sliced() const { return sliced_; }
  [[nodiscard]] const PrecisionStore<float>& f32() const { return f32_; }
  [[nodiscard]] const PrecisionStore<bf16s>& b16() const { return b16_; }

  /// Bytes the derived arrays occupy on top of the seed storage.
  [[nodiscard]] byte_size derived_bytes() const {
    return soa_.bytes() + sliced_.bytes() + f32_.bytes() + b16_.bytes();
  }

  /// Coefficient bytes a full sweep of `layout` streams, padding
  /// included; the seed layout charges the whole 24-wide record.
  [[nodiscard]] byte_size padded_coefficient_bytes(StorageLayout layout) const;

  /// Coefficient bytes actually carrying information (n_rows * 24
  /// doubles) — identical for every layout; the padded/compacted ratio
  /// is the price of the regularized addressing.
  [[nodiscard]] byte_size compacted_coefficient_bytes() const;

 private:
  void build_soa();
  void build_sliced();
  template <typename T>
  void convert_into(PrecisionStore<T>& store);
  template <typename T>
  [[nodiscard]] bool store_has(const PrecisionStore<T>& store,
                               StorageLayout layout) const;

  const SystemMatrix* A_;
  std::span<const real> values_;
  SoaStreams soa_{};
  SlicedInstr sliced_{};
  PrecisionStore<float> f32_{};
  PrecisionStore<bf16s> b16_{};
};

}  // namespace gaia::matrix
