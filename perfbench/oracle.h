// Independent ground truth for the serving benchmark.
//
// The oracle keeps the benchmark's own column copy of every row the
// cluster holds (ingested rows are appended in arrival order) and answers
// a query with a plain row loop. It shares no code with the program's
// selection kernels, aggregate state or executors: only the query
// description (sea::AnalyticalQuery) crosses over. Sums are carried in
// long double and the second-order statistics are computed in two passes,
// so the oracle is far more accurate than the single-pass double
// arithmetic it checks.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sea/query.h"

namespace perfbench {

/// Column-major copy of the base data, in the order rows were loaded and
/// appended. Rows [0, prefix) are the data a query issued when the copy
/// held `prefix` rows saw (ingest only ever appends).
struct OracleRows {
  std::vector<std::vector<double>> cols;

  std::size_t rows() const noexcept {
    return cols.empty() ? 0 : cols.front().size();
  }
};

/// What the oracle derives from one query: the exact answer and the
/// a-priori bound on the rounding error any summation order of the
/// executor's single-pass double arithmetic can incur (see tolerance()).
struct OracleAnswer {
  double value = 0.0;
  double tolerance = 0.0;
  std::uint64_t count = 0;
};

namespace detail {

inline bool selected(const OracleRows& d, const sea::AnalyticalQuery& q,
                     std::size_t r) {
  const std::size_t dims = q.subspace_cols.size();
  if (q.selection == sea::SelectionType::kRange) {
    for (std::size_t i = 0; i < dims; ++i) {
      const double v = d.cols[q.subspace_cols[i]][r];
      if (v < q.range.lo[i] || v > q.range.hi[i]) return false;
    }
    return true;
  }
  // Radius: the same closed-ball predicate the query model defines,
  // squared distance accumulated in dimension order.
  double s = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    const double diff = d.cols[q.subspace_cols[i]][r] - q.ball.center[i];
    s += diff * diff;
  }
  return s <= q.ball.radius * q.ball.radius;
}

}  // namespace detail

/// Unit roundoff of double.
inline constexpr double kUnitRoundoff =
    std::numeric_limits<double>::epsilon() / 2.0;

/// Exact answer of `q` over rows [0, prefix) of `d`, with its tolerance.
///
/// Tolerance: the executor accumulates n qualifying tuples into double
/// sums S_t, S_tt, S_u, S_uu, S_tu in some order and merges partial states
/// in some tree. Any such order satisfies the recursive-summation bound
/// |error(S)| <= n * u * sum(|terms|) (Higham, Accuracy and Stability of
/// Numerical Algorithms, §4.2). The bounds on each sum are propagated to
/// first order through the finalize formulas, with a factor 4 of headroom
/// for the rounding of the formulas themselves. Counts are integers and
/// must match exactly.
inline OracleAnswer oracle_answer(const OracleRows& d,
                                  const sea::AnalyticalQuery& q,
                                  std::size_t prefix) {
  if (q.selection == sea::SelectionType::kNearestNeighbors)
    throw std::invalid_argument("oracle: kNN selections are not benchmarked");
  const bool has_t = sea::needs_target(q.analytic);
  const bool has_u = sea::needs_second_target(q.analytic);
  const std::vector<double>* tc = has_t ? &d.cols[q.target_col] : nullptr;
  const std::vector<double>* uc = has_u ? &d.cols[q.target_col2] : nullptr;

  // Pass 1: count, sums, and the absolute sums the error bound needs.
  std::uint64_t n = 0;
  long double st = 0, su = 0;
  long double abs_t = 0, abs_u = 0, sq_t = 0, sq_u = 0, abs_tu = 0;
  for (std::size_t r = 0; r < prefix; ++r) {
    if (!detail::selected(d, q, r)) continue;
    ++n;
    if (tc) {
      const long double t = (*tc)[r];
      st += t;
      abs_t += std::fabs(t);
      sq_t += t * t;
      if (uc) {
        const long double u = (*uc)[r];
        su += u;
        abs_u += std::fabs(u);
        sq_u += u * u;
        abs_tu += std::fabs(t * u);
      }
    }
  }
  OracleAnswer out;
  out.count = n;
  const long double nn = static_cast<long double>(n);
  const long double g = nn * kUnitRoundoff;  // n*u, the summation factor
  switch (q.analytic) {
    case sea::AnalyticType::kCount:
      out.value = static_cast<double>(n);
      return out;
    case sea::AnalyticType::kSum:
      out.value = static_cast<double>(st);
      out.tolerance = static_cast<double>(4 * g * abs_t) +
                      4 * kUnitRoundoff * std::fabs(out.value);
      return out;
    case sea::AnalyticType::kAvg:
      if (n == 0) return out;
      out.value = static_cast<double>(st / nn);
      out.tolerance = static_cast<double>(4 * g * abs_t / nn) +
                      4 * kUnitRoundoff * std::fabs(out.value);
      return out;
    default:
      break;
  }
  if (n < 2) return out;

  // Pass 2: centred second moments (two-pass, long double).
  const long double mt = st / nn;
  const long double mu = uc ? su / nn : 0;
  long double ctt = 0, cuu = 0, ctu = 0;
  for (std::size_t r = 0; r < prefix; ++r) {
    if (!detail::selected(d, q, r)) continue;
    const long double dt = (*tc)[r] - mt;
    ctt += dt * dt;
    if (uc) {
      const long double du = (*uc)[r] - mu;
      cuu += du * du;
      ctu += dt * du;
    }
  }
  // First-order error of the executor's un-centred forms, e.g.
  // V_t = S_tt - S_t^2/n: |dV_t| <= dS_tt + 2|S_t| dS_t / n.
  const long double dvt = g * (sq_t + 2 * std::fabs(st) * abs_t / nn);
  if (q.analytic == sea::AnalyticType::kVariance) {
    out.value = static_cast<double>(ctt / (nn - 1));
    out.tolerance = static_cast<double>(4 * dvt / (nn - 1)) +
                    4 * kUnitRoundoff * std::fabs(out.value);
    return out;
  }
  if (q.analytic != sea::AnalyticType::kCorrelation)
    throw std::invalid_argument("oracle: analytic not benchmarked");
  const long double dvu = g * (sq_u + 2 * std::fabs(su) * abs_u / nn);
  const long double dc =
      g * (abs_tu + (std::fabs(st) * abs_u + std::fabs(su) * abs_t) / nn);
  const long double denom = std::sqrt(ctt * cuu);
  if (denom <= 0) return out;
  const long double r = ctu / denom;
  out.value = static_cast<double>(r);
  // r = C / sqrt(V_t V_u): |dr| <= dC/D + |r| (dV_t/2V_t + dV_u/2V_u).
  out.tolerance = static_cast<double>(
      4 * (dc / denom + std::fabs(r) * (dvt / (2 * ctt) + dvu / (2 * cuu))) +
      4 * kUnitRoundoff);
  return out;
}

}  // namespace perfbench
