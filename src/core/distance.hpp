// Distance metrics.
//
// NN-Descent's selling point is metric genericity: the algorithm only ever
// calls θ(v₁, v₂) (paper §3.1), so every functor here has the same shape —
// two element spans in, a float out, smaller = closer. These are the
// metrics of the evaluation datasets (Table 1): L2, cosine and Jaccard.
//
// Variable-length spans make sparse metrics (Jaccard over sorted id sets,
// Kosarak-style) first-class rather than a bolt-on.
#pragma once

#include <cmath>
#include <span>
#include <string_view>

#include "core/distance_kernels.hpp"
#include "core/types.hpp"

namespace dnnd::core {

// The dense arithmetic metrics (squared-L2 / cosine over float or uint8
// elements) route through core/distance_kernels.hpp: the blocked 8-lane
// reduction there is the canonical definition of these distances,
// identical bit-for-bit between the scalar reference and the
// runtime-dispatched AVX2 variant. Other element types and Jaccard keep
// the straightforward element loops below.

/// Squared Euclidean distance. Monotone in L2, so k-NN ranking under it is
/// identical while skipping the sqrt; construction uses this internally.
template <typename T>
[[nodiscard]] Dist squared_l2(std::span<const T> a, std::span<const T> b) {
  if constexpr (kIsKernelElement<T>) {
    return k_squared_l2(a.data(), b.data(), a.size());
  } else {
    Dist sum = 0;
    const std::size_t n = a.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Dist d = static_cast<Dist>(a[i]) - static_cast<Dist>(b[i]);
      sum += d * d;
    }
    return sum;
  }
}

template <typename T>
[[nodiscard]] Dist l2(std::span<const T> a, std::span<const T> b) {
  return std::sqrt(squared_l2(a, b));
}

/// Cosine distance: 1 - cos(a, b). Zero-norm vectors are treated as
/// maximally distant from everything (distance 1).
template <typename T>
[[nodiscard]] Dist cosine(std::span<const T> a, std::span<const T> b) {
  if constexpr (kIsKernelElement<T>) {
    return k_cosine(a.data(), b.data(), a.size());
  } else {
    Dist dot = 0, na = 0, nb = 0;
    const std::size_t n = a.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Dist x = static_cast<Dist>(a[i]);
      const Dist y = static_cast<Dist>(b[i]);
      dot += x * y;
      na += x * x;
      nb += y * y;
    }
    if (na == 0 || nb == 0) return Dist{1};
    return Dist{1} - dot / std::sqrt(na * nb);
  }
}

/// Jaccard distance over *sorted* sparse id sets: 1 - |a∩b| / |a∪b|.
/// This is the Kosarak representation (each point is the set of item ids).
template <typename T>
[[nodiscard]] Dist jaccard_sorted(std::span<const T> a, std::span<const T> b) {
  if (a.empty() && b.empty()) return Dist{0};
  std::size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  const std::size_t uni = a.size() + b.size() - common;
  return Dist{1} - static_cast<Dist>(common) / static_cast<Dist>(uni);
}

/// A dataset's metric in the registry (data/datasets.hpp).
enum class Metric { kL2, kCosine, kJaccard };

[[nodiscard]] constexpr std::string_view metric_name(Metric m) noexcept {
  switch (m) {
    case Metric::kL2: return "L2";
    case Metric::kCosine: return "Cosine";
    case Metric::kJaccard: return "Jaccard";
  }
  return "?";
}

}  // namespace dnnd::core
