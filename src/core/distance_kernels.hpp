// Blocked SIMD distance kernels with a pinned reduction order.
//
// `core/distance.hpp` defines *what* each metric computes; this layer
// defines *how* the dense arithmetic metrics (squared-L2, cosine, inner
// product over float / uint8 rows) are evaluated on the hot paths:
// batched one-query-vs-many-candidates kernels whose inner loops are
// 8-lane blocked so the compiler (or the AVX2 intrinsics variant) can
// vectorize them.
//
// Determinism contract
// --------------------
// Every kernel — scalar reference and AVX2 alike — accumulates into the
// SAME eight logical lanes and combines them with the SAME fixed tree:
//
//   lane l accumulates elements i with i mod 8 == l   (tail elements
//   land in lanes 0..rem-1, exactly like a zero-padded final block), and
//
//   reduce(acc) = ((acc0+acc4) + (acc2+acc6)) + ((acc1+acc5) + (acc3+acc7))
//
// which is precisely the lane order an AVX2 horizontal reduction
// (extract-high + add, movehl + add, shuffle + add) produces. Per-lane
// operations are plain IEEE mul/sub/add (no FMA contraction: the kernel
// translation units are compiled with -ffp-contract=off), so the scalar
// and SIMD paths execute the identical rounded operation sequence and
// return bit-identical Dist values. Zero elements past a row's end are
// covered by the same contract: a zero element contributes an exact +0.0
// to its lane, which never changes the sum.
//
// Because graph construction consumes only these values, a build is a
// pure function of (dataset, seed, config) regardless of dispatch — the
// chaos/recovery suites' bit-identical guarantees survive the SIMD path,
// and tests/distance_kernel_test.cpp proves equality bit-for-bit.
//
// Dispatch
// --------
// Compile time: -DDNND_SIMD=OFF drops the AVX2 translation unit and pins
// the scalar reference. Run time: the first kernel call resolves once to
// AVX2 iff the TU was compiled, the CPU reports AVX2, and
// DNND_FORCE_SCALAR is unset/0; tests may override with
// set_kernel_dispatch() (kForceScalar / kForceSimd / kAuto).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/types.hpp"

namespace dnnd::core {

/// Dispatch override, primarily a test hook; kAuto is the default and
/// re-reads DNND_FORCE_SCALAR on the next kernel call.
enum class KernelDispatch { kAuto, kForceScalar, kForceSimd };

namespace detail {

// ---- scalar reference (distance_kernels_scalar.cpp, -ffp-contract=off,
// -fno-tree-vectorize: an auditable plain-scalar baseline) ---------------
Dist scalar_squared_l2_f32(const float* a, const float* b, std::size_t dim);
Dist scalar_cosine_f32(const float* a, const float* b, std::size_t dim);
Dist scalar_inner_product_f32(const float* a, const float* b,
                              std::size_t dim);
Dist scalar_squared_l2_u8(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t dim);
Dist scalar_cosine_u8(const std::uint8_t* a, const std::uint8_t* b,
                      std::size_t dim);
Dist scalar_inner_product_u8(const std::uint8_t* a, const std::uint8_t* b,
                             std::size_t dim);

void scalar_batch_squared_l2_f32(const float* q, const float* const* rows,
                                 std::size_t count, std::size_t dim,
                                 Dist* out);
void scalar_batch_cosine_f32(const float* q, const float* const* rows,
                             std::size_t count, std::size_t dim, Dist* out);
void scalar_batch_inner_product_f32(const float* q, const float* const* rows,
                                    std::size_t count, std::size_t dim,
                                    Dist* out);
void scalar_batch_squared_l2_u8(const std::uint8_t* q,
                                const std::uint8_t* const* rows,
                                std::size_t count, std::size_t dim, Dist* out);
void scalar_batch_cosine_u8(const std::uint8_t* q,
                            const std::uint8_t* const* rows, std::size_t count,
                            std::size_t dim, Dist* out);
void scalar_batch_inner_product_u8(const std::uint8_t* q,
                                   const std::uint8_t* const* rows,
                                   std::size_t count, std::size_t dim,
                                   Dist* out);

// ---- dispatch state (distance_kernels_scalar.cpp) ----------------------
/// True when the resolved dispatch is the AVX2 path. Throws
/// std::runtime_error if kForceSimd is set on a build/host without it.
[[nodiscard]] bool simd_active();

#if DNND_SIMD_ENABLED
// ---- AVX2 variants (distance_kernels_avx2.cpp, -mavx2) -----------------
Dist avx2_squared_l2_f32(const float* a, const float* b, std::size_t dim);
Dist avx2_cosine_f32(const float* a, const float* b, std::size_t dim);
Dist avx2_inner_product_f32(const float* a, const float* b, std::size_t dim);
Dist avx2_squared_l2_u8(const std::uint8_t* a, const std::uint8_t* b,
                        std::size_t dim);
Dist avx2_cosine_u8(const std::uint8_t* a, const std::uint8_t* b,
                    std::size_t dim);
Dist avx2_inner_product_u8(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t dim);

void avx2_batch_squared_l2_f32(const float* q, const float* const* rows,
                               std::size_t count, std::size_t dim, Dist* out);
void avx2_batch_cosine_f32(const float* q, const float* const* rows,
                           std::size_t count, std::size_t dim, Dist* out);
void avx2_batch_inner_product_f32(const float* q, const float* const* rows,
                                  std::size_t count, std::size_t dim,
                                  Dist* out);
void avx2_batch_squared_l2_u8(const std::uint8_t* q,
                              const std::uint8_t* const* rows,
                              std::size_t count, std::size_t dim, Dist* out);
void avx2_batch_cosine_u8(const std::uint8_t* q,
                          const std::uint8_t* const* rows, std::size_t count,
                          std::size_t dim, Dist* out);
void avx2_batch_inner_product_u8(const std::uint8_t* q,
                                 const std::uint8_t* const* rows,
                                 std::size_t count, std::size_t dim,
                                 Dist* out);
#endif  // DNND_SIMD_ENABLED

}  // namespace detail

/// True when the AVX2 translation unit was compiled in (-DDNND_SIMD=ON
/// and the compiler accepted -mavx2).
[[nodiscard]] bool simd_kernels_compiled() noexcept;

/// True when the running CPU reports AVX2.
[[nodiscard]] bool simd_runtime_supported() noexcept;

/// Overrides the dispatch decision (and invalidates the cached one).
void set_kernel_dispatch(KernelDispatch mode) noexcept;
[[nodiscard]] KernelDispatch kernel_dispatch() noexcept;

/// Resolved dispatch for the next kernel call: true = AVX2.
[[nodiscard]] inline bool simd_kernels_active() { return detail::simd_active(); }

/// Element types the kernel layer accelerates; everything else (sparse
/// Jaccard ids, exotic scalar types) stays on core/distance.hpp.
template <typename T>
inline constexpr bool kIsKernelElement =
    std::is_same_v<T, float> || std::is_same_v<T, std::uint8_t>;

// ---- single-pair kernels (batch of one; same reduction order) ----------

#if DNND_SIMD_ENABLED
#define DNND_KERNEL_DISPATCH(fn, ...) \
  (detail::simd_active() ? detail::avx2_##fn(__VA_ARGS__) \
                         : detail::scalar_##fn(__VA_ARGS__))
#else
#define DNND_KERNEL_DISPATCH(fn, ...) detail::scalar_##fn(__VA_ARGS__)
#endif

template <typename T>
[[nodiscard]] inline Dist k_squared_l2(const T* a, const T* b,
                                       std::size_t dim) {
  static_assert(kIsKernelElement<T>);
  if constexpr (std::is_same_v<T, float>) {
    return DNND_KERNEL_DISPATCH(squared_l2_f32, a, b, dim);
  } else {
    return DNND_KERNEL_DISPATCH(squared_l2_u8, a, b, dim);
  }
}

template <typename T>
[[nodiscard]] inline Dist k_cosine(const T* a, const T* b, std::size_t dim) {
  static_assert(kIsKernelElement<T>);
  if constexpr (std::is_same_v<T, float>) {
    return DNND_KERNEL_DISPATCH(cosine_f32, a, b, dim);
  } else {
    return DNND_KERNEL_DISPATCH(cosine_u8, a, b, dim);
  }
}

template <typename T>
[[nodiscard]] inline Dist k_inner_product(const T* a, const T* b,
                                          std::size_t dim) {
  static_assert(kIsKernelElement<T>);
  if constexpr (std::is_same_v<T, float>) {
    return DNND_KERNEL_DISPATCH(inner_product_f32, a, b, dim);
  } else {
    return DNND_KERNEL_DISPATCH(inner_product_u8, a, b, dim);
  }
}

// ---- batched one-query-vs-many kernels ---------------------------------
// out[i] is bit-identical to the single-pair kernel on (q, rows[i]); the
// batch form exists so callers amortize the query load and dispatch.

template <typename T>
inline void k_batch_squared_l2(const T* q, const T* const* rows,
                               std::size_t count, std::size_t dim,
                               Dist* out) {
  static_assert(kIsKernelElement<T>);
  if constexpr (std::is_same_v<T, float>) {
    DNND_KERNEL_DISPATCH(batch_squared_l2_f32, q, rows, count, dim, out);
  } else {
    DNND_KERNEL_DISPATCH(batch_squared_l2_u8, q, rows, count, dim, out);
  }
}

template <typename T>
inline void k_batch_cosine(const T* q, const T* const* rows,
                           std::size_t count, std::size_t dim, Dist* out) {
  static_assert(kIsKernelElement<T>);
  if constexpr (std::is_same_v<T, float>) {
    DNND_KERNEL_DISPATCH(batch_cosine_f32, q, rows, count, dim, out);
  } else {
    DNND_KERNEL_DISPATCH(batch_cosine_u8, q, rows, count, dim, out);
  }
}

template <typename T>
inline void k_batch_inner_product(const T* q, const T* const* rows,
                                  std::size_t count, std::size_t dim,
                                  Dist* out) {
  static_assert(kIsKernelElement<T>);
  if constexpr (std::is_same_v<T, float>) {
    DNND_KERNEL_DISPATCH(batch_inner_product_f32, q, rows, count, dim, out);
  } else {
    DNND_KERNEL_DISPATCH(batch_inner_product_u8, q, rows, count, dim, out);
  }
}

#undef DNND_KERNEL_DISPATCH

// ---- drop-in DistanceFn functors with a batch entry point --------------
// A functor may add a `batch` member: one query against many gathered
// rows, with out[i] bit-identical to operator()(q, rows[i]).
// evaluate_rows() is the one caller that asks whether it has one, so
// every evaluation loop runs the same code for any functor.

template <typename Fn, typename T>
concept BatchDistance =
    requires(const Fn f, const T* q, const T* const* rows, std::size_t n,
             std::size_t dim, Dist* out) {
      { f.batch(q, rows, n, dim, out) };
    };

/// out[i] = fn(query, row_at(i)) for i in [0, count). A functor with a
/// batch kernel gets one `batch` call over the gathered rows (`rows` is
/// the caller's reused pointer buffer); any other functor is called once
/// per row. out[i] holds the same bits either way.
template <typename T, typename Fn, typename RowAt>
void evaluate_rows(Fn& fn, std::type_identity_t<std::span<const T>> query,
                   std::size_t count, RowAt&& row_at, Dist* out,
                   std::vector<const T*>& rows) {
  if constexpr (BatchDistance<Fn, T>) {
    rows.clear();
    for (std::size_t i = 0; i < count; ++i) rows.push_back(row_at(i).data());
    fn.batch(query.data(), rows.data(), count, query.size(), out);
  } else {
    for (std::size_t i = 0; i < count; ++i) out[i] = fn(query, row_at(i));
  }
}

template <typename T>
struct SquaredL2Kernel {
  Dist operator()(std::span<const T> a, std::span<const T> b) const {
    return k_squared_l2(a.data(), b.data(), a.size());
  }
  void batch(const T* q, const T* const* rows, std::size_t count,
             std::size_t dim, Dist* out) const {
    k_batch_squared_l2(q, rows, count, dim, out);
  }
};

template <typename T>
struct L2Kernel {
  Dist operator()(std::span<const T> a, std::span<const T> b) const {
    return std::sqrt(k_squared_l2(a.data(), b.data(), a.size()));
  }
  void batch(const T* q, const T* const* rows, std::size_t count,
             std::size_t dim, Dist* out) const {
    k_batch_squared_l2(q, rows, count, dim, out);
    // sqrtf is correctly rounded, so applying it after the batch keeps
    // out[i] bit-identical to the single-pair operator().
    for (std::size_t i = 0; i < count; ++i) out[i] = std::sqrt(out[i]);
  }
};

template <typename T>
struct CosineKernel {
  Dist operator()(std::span<const T> a, std::span<const T> b) const {
    return k_cosine(a.data(), b.data(), a.size());
  }
  void batch(const T* q, const T* const* rows, std::size_t count,
             std::size_t dim, Dist* out) const {
    k_batch_cosine(q, rows, count, dim, out);
  }
};

/// RAII dispatch override for tests: pins a mode, restores on scope exit.
class ScopedKernelDispatch {
 public:
  explicit ScopedKernelDispatch(KernelDispatch mode)
      : previous_(kernel_dispatch()) {
    set_kernel_dispatch(mode);
  }
  ~ScopedKernelDispatch() { set_kernel_dispatch(previous_); }
  ScopedKernelDispatch(const ScopedKernelDispatch&) = delete;
  ScopedKernelDispatch& operator=(const ScopedKernelDispatch&) = delete;

 private:
  KernelDispatch previous_;
};

}  // namespace dnnd::core
