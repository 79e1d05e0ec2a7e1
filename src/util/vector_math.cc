#include "util/vector_math.h"

#include <cassert>
#include <cmath>

namespace ibseg {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double l2_norm(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

double euclidean_distance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  assert(a.size() == b.size());
  return euclidean_distance(a.data(), b.data(), a.size());
}

double manhattan_distance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += std::fabs(a[i] - b[i]);
  return s;
}

double cosine_similarity(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double na = l2_norm(a);
  double nb = l2_norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

double cosine_dissimilarity(const std::vector<double>& a,
                            const std::vector<double>& b) {
  return 1.0 - cosine_similarity(a, b);
}

void add_into(std::vector<double>& into, const std::vector<double>& v) {
  assert(into.size() == v.size());
  for (size_t i = 0; i < v.size(); ++i) into[i] += v[i];
}

void scale(std::vector<double>& v, double factor) {
  for (double& x : v) x *= factor;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double m = mean(values);
  double s = 0.0;
  for (double v : values) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values.size()));
}

double shannon_entropy(const std::vector<double>& histogram) {
  double total = 0.0;
  for (double v : histogram) {
    assert(v >= 0.0);
    total += v;
  }
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double v : histogram) {
    if (v <= 0.0) continue;
    double p = v / total;
    h -= p * std::log(p);
  }
  return h;
}

double safe_log(double x) { return x > 0.0 ? std::log(x) : 0.0; }

}  // namespace ibseg
