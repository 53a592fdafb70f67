#include "matrix/layouted_system.hpp"

#include <type_traits>

namespace gaia::matrix {

template <typename T>
void LayoutedSystem::convert_into(PrecisionStore<T>& store) {
  if (store.built()) return;  // already converted
  store.values.resize(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if constexpr (std::is_same_v<T, bf16s>) {
      store.values[i] = to_bf16s(values_[i]);
    } else {
      store.values[i] = static_cast<T>(values_[i]);
    }
  }
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

bool LayoutedSystem::has_precision(Precision p) const {
  switch (p) {
    case Precision::kFp64:
      return true;
    case Precision::kFp32:
      return f32_.built();
    case Precision::kBf16s:
      return b16_.built();
  }
  return false;
}

}  // namespace gaia::matrix
