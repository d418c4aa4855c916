// Differential-testing utilities for the learned-index harness: adversarial
// workload generators (the distributions learned structures historically
// get wrong) and canonicalizers/fingerprints so "byte-identical" is an
// EXPECT_EQ, not a prose claim. Shared by test_learned_index.cpp,
// test_index.cpp regressions and the test_properties.cpp invariant sweep.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/point.h"
#include "data/table.h"
#include "index/learned.h"

namespace sea::testing {

// ---------------------------------------------------------------------------
// Adversarial scored relations (key, score, payload) for the score-index
// differential suite.
// ---------------------------------------------------------------------------

enum class KeyDist {
  kUniform,      ///< distinct-ish keys over a wide range
  kConstant,     ///< every row has the same key (one giant duplicate run)
  kExponential,  ///< exponentially skewed key values (hard for linear models)
  kHeavyDup,     ///< a handful of distinct keys, huge duplicate runs
  kEmpty,        ///< zero rows
  kSingleton,    ///< exactly one row
};

inline const char* to_string(KeyDist d) {
  switch (d) {
    case KeyDist::kUniform: return "uniform";
    case KeyDist::kConstant: return "constant";
    case KeyDist::kExponential: return "exponential";
    case KeyDist::kHeavyDup: return "heavy_dup";
    case KeyDist::kEmpty: return "empty";
    case KeyDist::kSingleton: return "singleton";
  }
  return "?";
}

inline Table adversarial_scored_table(KeyDist dist, std::size_t rows,
                                      std::uint64_t seed) {
  if (dist == KeyDist::kEmpty) rows = 0;
  if (dist == KeyDist::kSingleton) rows = 1;
  Rng rng(seed);
  std::vector<double> key(rows), score(rows), payload(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    switch (dist) {
      case KeyDist::kConstant:
        key[r] = 42.0;
        break;
      case KeyDist::kExponential:
        // Exponentially spaced magnitudes: clusters near zero, a long
        // sparse tail — the worst case for a single linear CDF.
        key[r] = std::floor(std::exp(rng.uniform(0.0, 18.0)));
        break;
      case KeyDist::kHeavyDup:
        key[r] = static_cast<double>(rng.uniform_index(5));
        break;
      default:
        key[r] = static_cast<double>(rng.uniform_index(1u << 20));
        break;
    }
    score[r] = rng.uniform();
    payload[r] = rng.uniform(0.0, 100.0);
  }
  return Table::from_columns(
      Schema({"key", "score", "payload"}),
      {std::move(key), std::move(score), std::move(payload)});
}

/// Probe set for a scored table: every distinct present key plus misses on
/// both sides and in the middle of the key range.
inline std::vector<std::uint64_t> probe_keys_for(const Table& t,
                                                 std::uint64_t seed) {
  std::vector<std::uint64_t> keys;
  if (t.num_rows()) {
    const auto col = t.column(0);
    keys.reserve(t.num_rows());
    for (const double v : col)
      keys.push_back(static_cast<std::uint64_t>(std::llround(v)));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  // Guaranteed misses: below, above, and random keys (mostly absent).
  std::vector<std::uint64_t> probes = keys;
  probes.push_back(0);
  probes.push_back(keys.empty() ? 1 : keys.back() + 1);
  probes.push_back(std::uint64_t{1} << 62);
  Rng rng(seed ^ 0xabcdefULL);
  for (int i = 0; i < 32; ++i) probes.push_back(rng.uniform_index(1u << 21));
  return probes;
}

// ---------------------------------------------------------------------------
// Adversarial spatial datasets for the grid differential suite.
// ---------------------------------------------------------------------------

enum class PointDist {
  kUniform,    ///< uniform in the unit cube
  kClustered,  ///< tight gaussian blobs (skewed mass, mostly empty space)
  kConstant,   ///< all points identical (degenerate lo==hi domain)
  kCollinear,  ///< all on one axis-parallel line (degenerate in d-1 dims)
  kEmpty,      ///< zero points
  kSingleton,  ///< exactly one point
};

inline const char* to_string(PointDist d) {
  switch (d) {
    case PointDist::kUniform: return "uniform";
    case PointDist::kClustered: return "clustered";
    case PointDist::kConstant: return "constant";
    case PointDist::kCollinear: return "collinear";
    case PointDist::kEmpty: return "empty";
    case PointDist::kSingleton: return "singleton";
  }
  return "?";
}

inline std::vector<Point> adversarial_points(PointDist dist, std::size_t n,
                                             std::size_t dims,
                                             std::uint64_t seed) {
  if (dist == PointDist::kEmpty) n = 0;
  if (dist == PointDist::kSingleton) n = 1;
  Rng rng(seed);
  std::vector<Point> pts(n, Point(dims));
  // Blob centres for the clustered case.
  std::vector<Point> centres(3, Point(dims));
  for (auto& c : centres)
    for (auto& v : c) v = rng.uniform();
  for (std::size_t i = 0; i < n; ++i) {
    switch (dist) {
      case PointDist::kConstant:
        for (auto& v : pts[i]) v = 0.25;
        break;
      case PointDist::kCollinear:
        pts[i][0] = rng.uniform();
        for (std::size_t d = 1; d < dims; ++d) pts[i][d] = 0.5;
        break;
      case PointDist::kClustered: {
        const Point& c = centres[i % centres.size()];
        for (std::size_t d = 0; d < dims; ++d)
          pts[i][d] = c[d] + rng.normal(0.0, 0.02);
        break;
      }
      default:
        for (auto& v : pts[i]) v = rng.uniform();
        break;
    }
  }
  return pts;
}

/// Domain of a point set, padded on the upper edge the way
/// ExactExecutor's build_grid pads it (maxima land inside the last
/// cell); unit cube when empty.
inline Rect domain_of(const std::vector<Point>& pts, std::size_t dims) {
  Rect dom;
  dom.lo.assign(dims, 0.0);
  dom.hi.assign(dims, 1.0);
  if (!pts.empty()) {
    dom.lo = dom.hi = pts[0];
    for (const auto& p : pts)
      for (std::size_t d = 0; d < dims; ++d) {
        dom.lo[d] = std::min(dom.lo[d], p[d]);
        dom.hi[d] = std::max(dom.hi[d], p[d]);
      }
  }
  for (std::size_t d = 0; d < dims; ++d)
    dom.hi[d] = std::nextafter(dom.hi[d] + 1e-12,
                               std::numeric_limits<double>::max());
  return dom;
}

// ---------------------------------------------------------------------------
// Canonicalizers / fingerprints.
// ---------------------------------------------------------------------------

/// Result-set canonical form: ids sorted ascending (range/radius queries
/// promise a set, not an order).
inline std::vector<std::uint64_t> canon(std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Exact bit pattern of a double (NaN-safe, -0.0 != 0.0): the unit of
/// "byte-identical" comparisons.
inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Full bit-level fingerprint of a LearnedScoreIndex: every model
/// parameter and every array element. Two fingerprints compare equal iff
/// the structures are byte-identical.
inline std::vector<std::uint64_t> fingerprint(const LearnedScoreIndex& idx) {
  std::vector<std::uint64_t> fp;
  fp.push_back(idx.size());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    const ScoredTuple& t = idx.by_rank(r);
    fp.push_back(t.key);
    fp.push_back(bits(t.score));
    fp.push_back(bits(t.payload));
    fp.push_back(t.row);
  }
  for (const auto k : idx.sorted_keys()) fp.push_back(k);
  for (const auto r : idx.ranks_by_key()) fp.push_back(r);
  const RmiModel& m = idx.rmi();
  fp.push_back(m.num_segments());
  fp.push_back(m.max_error());
  for (std::size_t s = 0; s < m.num_segments(); ++s) {
    const RmiSegment& seg = m.segment(s);
    fp.push_back(bits(seg.slope));
    fp.push_back(bits(seg.intercept));
    fp.push_back(seg.err);
    fp.push_back(seg.begin);
    fp.push_back(seg.end);
  }
  return fp;
}

/// Bit-level fingerprint of a LearnedGrid: CSR layout plus every CDF knot.
inline std::vector<std::uint64_t> fingerprint(const LearnedGrid& g) {
  std::vector<std::uint64_t> fp;
  fp.push_back(g.size());
  fp.push_back(g.num_cells());
  for (const auto o : g.cell_offsets()) fp.push_back(o);
  for (std::size_t d = 0; d < g.dims(); ++d) {
    const LearnedCdf& c = g.cdf(d);
    fp.push_back(c.num_knots());
    for (double u = 0.0; u <= 1.0; u += 0.125) fp.push_back(bits(c.inverse(u)));
  }
  return fp;
}

}  // namespace sea::testing
