#include "matrix/layouted_system.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>

namespace gaia::matrix {

void LayoutedSystem::build(StorageLayout layout) {
  switch (layout) {
    case StorageLayout::kSeedAos:
      return;
    case StorageLayout::kSoaTiled:
      if (!soa_.built()) build_soa();
      return;
    case StorageLayout::kSlicedInstr:
      if (!soa_.built()) build_soa();
      if (!sliced_.built()) build_sliced();
      return;
  }
}

bool LayoutedSystem::has(StorageLayout layout) const {
  switch (layout) {
    case StorageLayout::kSeedAos:
      return true;
    case StorageLayout::kSoaTiled:
      return soa_.built();
    case StorageLayout::kSlicedInstr:
      return soa_.built() && sliced_.built();
  }
  return false;
}

void LayoutedSystem::build_soa() {
  const SystemMatrix& A = *A_;
  const row_index n = A.n_rows();
  const row_index n_tiles = (n + kSoaTileRows - 1) / kSoaTileRows;
  const row_index padded = n_tiles * kSoaTileRows;
  soa_.n_rows = n;
  soa_.padded_rows = padded;
  soa_.astro.assign(static_cast<std::size_t>(padded) * kAstroNnzPerRow, 0);
  soa_.att.assign(static_cast<std::size_t>(padded) * kAttNnzPerRow, 0);
  soa_.instr.assign(static_cast<std::size_t>(padded) * kInstrNnzPerRow, 0);
  soa_.glob.assign(static_cast<std::size_t>(padded), 0);

  const real* values = values_.data();
  for (row_index t = 0; t < n_tiles; ++t) {
    const row_index row0 = t * kSoaTileRows;
    const row_index rows = std::min<row_index>(kSoaTileRows, n - row0);
    real* astro = soa_.astro.data() +
                  static_cast<std::size_t>(t) * kAstroNnzPerRow * kSoaTileRows;
    real* att = soa_.att.data() +
                static_cast<std::size_t>(t) * kAttNnzPerRow * kSoaTileRows;
    real* instr = soa_.instr.data() +
                  static_cast<std::size_t>(t) * kInstrNnzPerRow * kSoaTileRows;
    real* glob =
        soa_.glob.data() + static_cast<std::size_t>(t) * kSoaTileRows;
    for (row_index w = 0; w < rows; ++w) {
      const real* rec = values + (row0 + w) * kNnzPerRow;
      for (int i = 0; i < kAstroNnzPerRow; ++i)
        astro[i * kSoaTileRows + w] = rec[kAstroCoeffOffset + i];
      for (int i = 0; i < kAttNnzPerRow; ++i)
        att[i * kSoaTileRows + w] = rec[kAttCoeffOffset + i];
      for (int i = 0; i < kInstrNnzPerRow; ++i)
        instr[i * kSoaTileRows + w] = rec[kInstrCoeffOffset + i];
      glob[w] = rec[kGlobCoeffOffset];
    }
  }
}

void LayoutedSystem::build_sliced() {
  const SystemMatrix& A = *A_;
  const row_index n = A.n_rows();
  const std::int32_t* cols = A.instr_col().data();
  const real* values = values_.data();

  // Slice count: every sigma window pads independently, so the row ->
  // slot permutation of one window never depends on the others.
  row_index n_slices = 0;
  for (row_index w0 = 0; w0 < n; w0 += kSliceSigmaWindow) {
    const row_index wrows = std::min<row_index>(kSliceSigmaWindow, n - w0);
    n_slices += (wrows + kSliceHeight - 1) / kSliceHeight;
  }
  sliced_.n_rows = n;
  sliced_.n_slices = n_slices;
  const std::size_t lanes =
      static_cast<std::size_t>(n_slices) * kSliceHeight;
  sliced_.slice_values.assign(lanes * kInstrNnzPerRow, 0);
  sliced_.slice_cols.assign(lanes * kInstrNnzPerRow, 0);
  sliced_.slice_rows.assign(lanes, row_index{-1});
  sliced_.row_slot.assign(static_cast<std::size_t>(n), row_index{-1});

  std::vector<row_index> order(kSliceSigmaWindow);
  row_index slice_base = 0;
  for (row_index w0 = 0; w0 < n; w0 += kSliceSigmaWindow) {
    const row_index wrows = std::min<row_index>(kSliceSigmaWindow, n - w0);
    order.resize(static_cast<std::size_t>(wrows));
    std::iota(order.begin(), order.end(), w0);
    // Stable sort by the row's first instrumental column: rows landing
    // in the same slice then scatter into neighbouring columns, and
    // ties keep source order so the build is deterministic.
    std::stable_sort(order.begin(), order.end(),
                     [&](row_index a, row_index b) {
                       return cols[a * kInstrNnzPerRow] <
                              cols[b * kInstrNnzPerRow];
                     });
    for (row_index p = 0; p < wrows; ++p) {
      const row_index r = order[static_cast<std::size_t>(p)];
      const row_index s = slice_base + p / kSliceHeight;
      const row_index lane = p % kSliceHeight;
      const std::size_t slot =
          static_cast<std::size_t>(s) * kSliceHeight +
          static_cast<std::size_t>(lane);
      sliced_.slice_rows[slot] = r;
      sliced_.row_slot[static_cast<std::size_t>(r)] =
          static_cast<row_index>(slot);
      for (int j = 0; j < kInstrNnzPerRow; ++j) {
        const std::size_t at =
            (static_cast<std::size_t>(s) * kInstrNnzPerRow +
             static_cast<std::size_t>(j)) *
                kSliceHeight +
            static_cast<std::size_t>(lane);
        sliced_.slice_values[at] =
            values[r * kNnzPerRow + kInstrCoeffOffset + j];
        sliced_.slice_cols[at] = cols[r * kInstrNnzPerRow + j];
      }
    }
    slice_base += (wrows + kSliceHeight - 1) / kSliceHeight;
  }
}

namespace {

/// Deterministic element-wise down-conversion of one FP64 stream.
/// `Src` is a span (the matrix's AoS records) or a vector (derived
/// streams); only the size/indexing contract matters.
template <typename Src, typename T>
void convert_plane(const Src& src, std::vector<T>& dst) {
  if (dst.size() == src.size()) return;  // already converted, still fresh
  dst.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    if constexpr (std::is_same_v<T, bf16s>) {
      dst[i] = to_bf16s(src[i]);
    } else {
      dst[i] = static_cast<T>(src[i]);
    }
  }
}

}  // namespace

template <typename T>
void LayoutedSystem::convert_into(PrecisionStore<T>& store) {
  convert_plane(values_, store.values);
  if (soa_.built()) {
    convert_plane(soa_.astro, store.soa_astro);
    convert_plane(soa_.att, store.soa_att);
    convert_plane(soa_.instr, store.soa_instr);
    convert_plane(soa_.glob, store.soa_glob);
  }
  if (sliced_.built()) convert_plane(sliced_.slice_values, store.slice_values);
}

template <typename T>
bool LayoutedSystem::store_has(const PrecisionStore<T>& store,
                               StorageLayout layout) const {
  if (!store.built()) return false;
  switch (layout) {
    case StorageLayout::kSeedAos:
      return true;
    case StorageLayout::kSoaTiled:
      return soa_.built() && store.soa_astro.size() == soa_.astro.size();
    case StorageLayout::kSlicedInstr:
      return soa_.built() && sliced_.built() &&
             store.soa_astro.size() == soa_.astro.size() &&
             store.slice_values.size() == sliced_.slice_values.size();
  }
  return false;
}

void LayoutedSystem::build_precision(Precision p) {
  switch (p) {
    case Precision::kFp64:
      return;  // the source of truth; nothing to derive
    case Precision::kFp32:
      convert_into(f32_);
      return;
    case Precision::kBf16s:
      convert_into(b16_);
      return;
  }
}

bool LayoutedSystem::has_precision(Precision p, StorageLayout layout) const {
  switch (p) {
    case Precision::kFp64:
      return has(layout);
    case Precision::kFp32:
      return store_has(f32_, layout);
    case Precision::kBf16s:
      return store_has(b16_, layout);
  }
  return false;
}

byte_size LayoutedSystem::padded_coefficient_bytes(
    StorageLayout layout) const {
  const SystemMatrix& A = *A_;
  const auto rows = static_cast<byte_size>(A.n_rows());
  switch (layout) {
    case StorageLayout::kSeedAos:
      // Every kernel streams the full record regardless of its slice.
      return rows * kNnzPerRow * sizeof(real);
    case StorageLayout::kSoaTiled: {
      const auto padded = static_cast<byte_size>(
          soa_.built() ? soa_.padded_rows
                       : (A.n_rows() + kSoaTileRows - 1) / kSoaTileRows *
                             kSoaTileRows);
      return padded * kNnzPerRow * sizeof(real);
    }
    case StorageLayout::kSlicedInstr: {
      const auto padded = static_cast<byte_size>(
          soa_.built() ? soa_.padded_rows
                       : (A.n_rows() + kSoaTileRows - 1) / kSoaTileRows *
                             kSoaTileRows);
      byte_size n_slices = 0;
      if (sliced_.built()) {
        n_slices = static_cast<byte_size>(sliced_.n_slices);
      } else {
        for (row_index w0 = 0; w0 < A.n_rows(); w0 += kSliceSigmaWindow) {
          const row_index wrows =
              std::min<row_index>(kSliceSigmaWindow, A.n_rows() - w0);
          n_slices += static_cast<byte_size>(
              (wrows + kSliceHeight - 1) / kSliceHeight);
        }
      }
      // Regular blocks from the SoA streams, instrumental from slices
      // (values + explicit columns per padded lane).
      const byte_size regular =
          padded * (kNnzPerRow - kInstrNnzPerRow) * sizeof(real);
      const byte_size instr =
          n_slices * kSliceHeight * kInstrNnzPerRow *
          (sizeof(real) + sizeof(std::int32_t));
      return regular + instr;
    }
  }
  return 0;
}

byte_size LayoutedSystem::compacted_coefficient_bytes() const {
  return static_cast<byte_size>(A_->n_rows()) * kNnzPerRow * sizeof(real);
}

}  // namespace gaia::matrix
