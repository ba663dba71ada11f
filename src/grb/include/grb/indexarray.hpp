// grb/indexarray.hpp — width-erased index storage for container internals.
//
// The public API keeps 64-bit indices everywhere (grb::Index), but the CSR
// row-pointer / column-index arrays inside a Matrix are memory-bandwidth
// critical: on graphs whose dimensions and entry count fit below 2^31 —
// every graph in the bench suite — storing them as u32 halves index traffic.
// SuiteSparse:GraphBLAS retrofits the same 32/64 switch globally; here the
// width is a per-container property chosen at build/finalize time
// (select_index_width) and recorded in the storage itself:
//
//   - IndexArray: an owning buffer that is *either* a std::vector<uint32_t>
//     or a std::vector<uint64_t>. Element reads/writes go through
//     width-branching accessors (fine for cold maintenance paths); hot
//     kernels call as<I>() for a typed span after one dispatch_width() per
//     kernel invocation, so inner loops are monomorphic.
//   - IndexSpan: a width-erased read-only view with value-returning
//     iterators, the type Matrix::rowptr()/colidx() hand to generic callers
//     that only need operator[] / iteration (io, algorithms, tests).
//   - dispatch_width(w, f): calls f with a uint32_t{} or uint64_t{} tag;
//     kernels do `using I = decltype(tag)` and instantiate once per width.
//
// Widths never mix within one matrix: the rowptr and colidx arrays share
// the container's single IndexWidth invariant.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "grb/config.hpp"
#include "grb/types.hpp"

namespace grb {
namespace detail {

/// Dispatch once per kernel call: invokes f with a value-initialized tag of
/// the active index type. Kernels recover it via `using I = decltype(tag)`.
template <typename F>
decltype(auto) dispatch_width(IndexWidth w, F &&f) {
  if (w == IndexWidth::u32) return f(std::uint32_t{});
  return f(std::uint64_t{});
}

/// The width a container's storage should use, honouring the Config
/// override. In auto mode: u32 iff max(nrows, ncols, nvals) stays below the
/// (test-adjustable) limit. Forcing u32 on an out-of-range container throws
/// Info::index_out_of_bounds — the spec'd overflow guard, never truncation.
inline IndexWidth select_index_width(Index nrows, Index ncols, Index nvals) {
  const Index magnitude = std::max(nrows, std::max(ncols, nvals));
  // u32_index_limit defines the modeled u32 domain (tests lower it to reach
  // the promotion boundary with tiny containers); it is clamped to the
  // physical 2^31 ceiling.
  const Index limit = std::min(config().u32_index_limit, kU32IndexLimit);
  switch (config().force_index_width) {
    case ForceIndexWidth::u32:
      require(magnitude < limit, Info::index_out_of_bounds,
              "force_index_width=u32: container dimensions or nvals exceed "
              "the u32 storage limit");
      return IndexWidth::u32;
    case ForceIndexWidth::u64: return IndexWidth::u64;
    default: break;
  }
  return magnitude < limit ? IndexWidth::u32 : IndexWidth::u64;
}

/// Non-throwing companion used where storage must exist before the guard
/// can sensibly fire (constructors, adopt): forced-u32 overflow falls back
/// to u64 here, and the throwing guard fires at the next build/finalize.
inline IndexWidth select_index_width_lenient(Index nrows, Index ncols,
                                             Index nvals) noexcept {
  if (config().force_index_width == ForceIndexWidth::u64) {
    return IndexWidth::u64;
  }
  const Index magnitude = std::max(nrows, std::max(ncols, nvals));
  const Index limit = std::min(config().u32_index_limit, kU32IndexLimit);
  return magnitude < limit ? IndexWidth::u32 : IndexWidth::u64;
}

/// Owning, width-erased index buffer. Exactly one of the two vectors is
/// active (the other stays empty); `width_` says which. All value traffic
/// through the erased interface is grb::Index (u64) — narrowing to u32 only
/// happens under the container's width invariant, which guarantees every
/// stored value fits.
class IndexArray {
 public:
  IndexArray() = default;
  explicit IndexArray(IndexWidth w) : width_(w) {}

  [[nodiscard]] IndexWidth width() const noexcept { return width_; }

  [[nodiscard]] std::size_t size() const noexcept {
    return width_ == IndexWidth::u32 ? v32_.size() : v64_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Heap bytes the active buffer's *elements* occupy (capacity ignored:
  /// this feeds the bytes-per-edge accounting, which wants the steady-state
  /// cost, and finalized containers are shrink_to_fit anyway).
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return size() * index_width_bytes(width_);
  }

  void clear() noexcept {
    v32_.clear();
    v64_.clear();
  }

  void reserve(std::size_t n) {
    if (width_ == IndexWidth::u32) {
      v32_.reserve(n);
    } else {
      v64_.reserve(n);
    }
  }

  void shrink_to_fit() {
    v32_.shrink_to_fit();
    v64_.shrink_to_fit();
  }

  /// Reset to `n` copies of `x` at the current width.
  void assign(std::size_t n, Index x) {
    if (width_ == IndexWidth::u32) {
      assert(x < kU32IndexLimit);
      v64_.clear();
      v32_.assign(n, static_cast<std::uint32_t>(x));
    } else {
      v32_.clear();
      v64_.assign(n, x);
    }
  }

  void push_back(Index x) {
    if (width_ == IndexWidth::u32) {
      assert(x < kU32IndexLimit);
      v32_.push_back(static_cast<std::uint32_t>(x));
    } else {
      v64_.push_back(x);
    }
  }

  [[nodiscard]] Index operator[](std::size_t p) const noexcept {
    return width_ == IndexWidth::u32 ? Index{v32_[p]} : v64_[p];
  }

  [[nodiscard]] Index back() const noexcept {
    return width_ == IndexWidth::u32 ? Index{v32_.back()} : v64_.back();
  }

  void set(std::size_t p, Index x) noexcept {
    if (width_ == IndexWidth::u32) {
      assert(x < kU32IndexLimit);
      v32_[p] = static_cast<std::uint32_t>(x);
    } else {
      v64_[p] = x;
    }
  }

  /// Typed view for the hot kernels; I must match the active width (use
  /// dispatch_width on this array's width() to guarantee it).
  template <typename I>
  [[nodiscard]] std::span<const I> as() const noexcept {
    if constexpr (sizeof(I) == 4) {
      assert(width_ == IndexWidth::u32);
      return {reinterpret_cast<const I *>(v32_.data()), v32_.size()};
    } else {
      assert(width_ == IndexWidth::u64);
      return {reinterpret_cast<const I *>(v64_.data()), v64_.size()};
    }
  }

  /// Mutable typed view (in-place row sorts); same width contract as as<I>.
  template <typename I>
  [[nodiscard]] std::span<I> as_mut() noexcept {
    if constexpr (sizeof(I) == 4) {
      assert(width_ == IndexWidth::u32);
      return {reinterpret_cast<I *>(v32_.data()), v32_.size()};
    } else {
      assert(width_ == IndexWidth::u64);
      return {reinterpret_cast<I *>(v64_.data()), v64_.size()};
    }
  }

  /// Take ownership of a width-typed vector (zero-copy adopt).
  void adopt(std::vector<std::uint32_t> &&v) {
    width_ = IndexWidth::u32;
    v32_ = std::move(v);
    v64_.clear();
    v64_.shrink_to_fit();
  }
  void adopt(std::vector<std::uint64_t> &&v) {
    width_ = IndexWidth::u64;
    v64_ = std::move(v);
    v32_.clear();
    v32_.shrink_to_fit();
  }

  /// Convert the buffer to the target width in one pass. Widening is always
  /// safe; narrowing asserts the invariant (callers run select_index_width
  /// first, which throws on genuine overflow before any data moves).
  void convert(IndexWidth w) {
    if (w == width_) return;
    if (w == IndexWidth::u32) {
      std::vector<std::uint32_t> out;
      out.reserve(v64_.size());
      for (std::uint64_t x : v64_) {
        assert(x < kU32IndexLimit);
        out.push_back(static_cast<std::uint32_t>(x));
      }
      adopt(std::move(out));
    } else {
      std::vector<std::uint64_t> out(v32_.begin(), v32_.end());
      adopt(std::move(out));
    }
  }

  /// Copy out as u64 (for callers that splice index data into generic
  /// Index-typed buffers, e.g. the pending-merge path).
  [[nodiscard]] std::vector<Index> to_u64() const {
    if (width_ == IndexWidth::u32) {
      return std::vector<Index>(v32_.begin(), v32_.end());
    }
    return v64_;
  }

 private:
  IndexWidth width_ = IndexWidth::u64;
  std::vector<std::uint32_t> v32_;
  std::vector<std::uint64_t> v64_;
};

}  // namespace detail

/// Width-erased read-only view over an index array: what Matrix::rowptr()
/// and colidx() return. operator[] and the value-returning random-access
/// iterator widen every element to grb::Index, so generic callers (I/O,
/// algorithms, std::lower_bound, container constructors) compile unchanged;
/// width-aware kernels instead go through dispatch_width + as<I>() typed
/// spans and never pay the per-element branch.
class IndexSpan {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Index;
    using difference_type = std::ptrdiff_t;
    using pointer = const Index *;
    using reference = Index;

    iterator() = default;
    iterator(const void *base, IndexWidth w, std::size_t pos) noexcept
        : base_(base), pos_(pos), width_(w) {}

    Index operator*() const noexcept { return load(pos_); }
    Index operator[](difference_type d) const noexcept {
      return load(pos_ + static_cast<std::size_t>(d));
    }

    iterator &operator++() noexcept { ++pos_; return *this; }
    iterator operator++(int) noexcept { auto t = *this; ++pos_; return t; }
    iterator &operator--() noexcept { --pos_; return *this; }
    iterator operator--(int) noexcept { auto t = *this; --pos_; return t; }
    iterator &operator+=(difference_type d) noexcept {
      pos_ += static_cast<std::size_t>(d);
      return *this;
    }
    iterator &operator-=(difference_type d) noexcept {
      pos_ -= static_cast<std::size_t>(d);
      return *this;
    }
    friend iterator operator+(iterator it, difference_type d) noexcept {
      it += d;
      return it;
    }
    friend iterator operator+(difference_type d, iterator it) noexcept {
      it += d;
      return it;
    }
    friend iterator operator-(iterator it, difference_type d) noexcept {
      it -= d;
      return it;
    }
    friend difference_type operator-(const iterator &a,
                                     const iterator &b) noexcept {
      return static_cast<difference_type>(a.pos_) -
             static_cast<difference_type>(b.pos_);
    }
    friend bool operator==(const iterator &a, const iterator &b) noexcept {
      return a.pos_ == b.pos_;
    }
    friend auto operator<=>(const iterator &a, const iterator &b) noexcept {
      return a.pos_ <=> b.pos_;
    }

   private:
    Index load(std::size_t p) const noexcept {
      if (width_ == IndexWidth::u32) {
        return static_cast<const std::uint32_t *>(base_)[p];
      }
      return static_cast<const std::uint64_t *>(base_)[p];
    }

    const void *base_ = nullptr;
    std::size_t pos_ = 0;
    IndexWidth width_ = IndexWidth::u64;
  };

  IndexSpan() = default;
  IndexSpan(const void *base, std::size_t size, IndexWidth w) noexcept
      : base_(base), size_(size), width_(w) {}
  explicit IndexSpan(const detail::IndexArray &a) noexcept
      : size_(a.size()), width_(a.width()) {
    base_ = width_ == IndexWidth::u32
                ? static_cast<const void *>(a.as<std::uint32_t>().data())
                : static_cast<const void *>(a.as<std::uint64_t>().data());
  }
  /// A plain u64 span views as an IndexSpan (keeps old call sites working).
  IndexSpan(std::span<const Index> s) noexcept  // NOLINT(google-explicit-constructor)
      : base_(s.data()), size_(s.size()), width_(IndexWidth::u64) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] IndexWidth width() const noexcept { return width_; }

  [[nodiscard]] Index operator[](std::size_t p) const noexcept {
    if (width_ == IndexWidth::u32) {
      return static_cast<const std::uint32_t *>(base_)[p];
    }
    return static_cast<const std::uint64_t *>(base_)[p];
  }
  [[nodiscard]] Index front() const noexcept { return (*this)[0]; }
  [[nodiscard]] Index back() const noexcept { return (*this)[size_ - 1]; }

  [[nodiscard]] iterator begin() const noexcept {
    return {base_, width_, 0};
  }
  [[nodiscard]] iterator end() const noexcept { return {base_, width_, size_}; }

  [[nodiscard]] IndexSpan subspan(std::size_t off, std::size_t count) const {
    const std::size_t w = index_width_bytes(width_);
    return {static_cast<const std::byte *>(base_) + off * w, count, width_};
  }

  /// Typed view; I must match the active width (see IndexArray::as).
  template <typename I>
  [[nodiscard]] std::span<const I> as() const noexcept {
    assert(sizeof(I) == index_width_bytes(width_));
    return {static_cast<const I *>(base_), size_};
  }

 private:
  const void *base_ = nullptr;
  std::size_t size_ = 0;
  IndexWidth width_ = IndexWidth::u64;
};

}  // namespace grb
