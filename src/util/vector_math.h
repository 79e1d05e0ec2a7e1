#ifndef IBSEG_UTIL_VECTOR_MATH_H_
#define IBSEG_UTIL_VECTOR_MATH_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace ibseg {

/// Dense numeric vector helpers shared by the segmentation, clustering and
/// retrieval layers. All functions require equal-length inputs (asserted).

/// Dot product.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean (L2) norm.
double l2_norm(const std::vector<double>& v);

/// Euclidean distance.
double euclidean_distance(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Euclidean distance between two arrays of `n` coordinates. The vector
/// overload computes exactly this (same operations, same order), so both
/// return the same double.
inline double euclidean_distance(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

/// Manhattan (L1) distance.
double manhattan_distance(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Cosine similarity; 0 when either vector is all-zero.
double cosine_similarity(const std::vector<double>& a,
                         const std::vector<double>& b);

/// 1 - cosine_similarity.
double cosine_dissimilarity(const std::vector<double>& a,
                            const std::vector<double>& b);

/// Element-wise sum accumulated into `into`.
void add_into(std::vector<double>& into, const std::vector<double>& v);

/// Scales `v` in place by `factor`.
void scale(std::vector<double>& v, double factor);

/// Arithmetic mean of `values`; 0 when empty.
double mean(const std::vector<double>& values);

/// Population standard deviation of `values`; 0 when fewer than 2 entries.
double stddev(const std::vector<double>& values);

/// Natural-log entropy of a (not necessarily normalized) non-negative
/// histogram. Zero bins are skipped; returns 0 for an empty/all-zero input.
double shannon_entropy(const std::vector<double>& histogram);

/// log(x) that returns 0 for x <= 0 (the convention used by the diversity
/// index computations where 0 * log(0) := 0).
double safe_log(double x);

}  // namespace ibseg

#endif  // IBSEG_UTIL_VECTOR_MATH_H_
