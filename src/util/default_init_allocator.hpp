/// \file default_init_allocator.hpp
/// \brief Allocator whose containers default-initialize their elements.
///
/// `std::vector<double>(n)` value-initializes: it zero-fills every page on
/// the allocating thread before the caller overwrites it. With this
/// allocator `resize(n)` leaves trivial elements uninitialized, so the
/// first write — a parallel fill, a zeroing on the pool, a copy — is the
/// first touch. Constructions with a value still copy that value.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace gaia::util {

template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace gaia::util
