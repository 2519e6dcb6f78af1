// CSV and binary point IO.
//
// The binary format is a small fixed header followed by row-major doubles,
// so the dataset registry can load large datasets without CSV parsing:
//   uint32 magic  = kPointsBinMagic ("PHCB")
//   uint32 dim
//   uint64 count
//   count * dim doubles (native little-endian byte order)
//
// The *readers* throw std::runtime_error on non-finite coordinates (NaN
// or +-Inf: no exact MST kernel is defined over them), and the binary
// readers also on unreadable, malformed, truncated, or wrong-dimension
// files — bad input data is a serving-path error the caller reports, not
// a program invariant (PARHC_CHECK remains for programmer errors like
// ragged rows passed to a writer).
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/point.h"
#include "util/check.h"

namespace parhc {

/// Writes one point per line, comma-separated coordinates.
void WritePointsCsv(const std::string& path,
                    const std::vector<std::vector<double>>& rows);

/// Reads a CSV of doubles; returns rows. Blank lines and lines starting
/// with '#' are skipped. Throws on a cell that is not a finite number.
std::vector<std::vector<double>> ReadPointsCsv(const std::string& path);

/// "PHCB" little-endian.
inline constexpr uint32_t kPointsBinMagic = 0x42434850u;

/// Dimension and point count read from a binary point file's header.
struct PointsBinHeader {
  uint32_t dim;
  uint64_t count;
};

/// Writes the binary point format. All rows must share one dimension >= 1.
void WritePointsBin(const std::string& path,
                    const std::vector<std::vector<double>>& rows);

/// Reads just the header of a binary point file (for dimension dispatch).
/// Throws std::runtime_error on unreadable or malformed files.
PointsBinHeader ReadPointsBinHeader(const std::string& path);

/// Reads a binary point file; returns rows. Throws std::runtime_error on
/// unreadable, malformed, or truncated files.
std::vector<std::vector<double>> ReadPointsBin(const std::string& path);

/// Typed helpers.
template <int D>
void WritePointsCsv(const std::string& path,
                    const std::vector<Point<D>>& pts) {
  std::vector<std::vector<double>> rows(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    rows[i].assign(pts[i].x.begin(), pts[i].x.end());
  }
  WritePointsCsv(path, rows);
}

template <int D>
std::vector<Point<D>> ReadPointsCsvAs(const std::string& path) {
  auto rows = ReadPointsCsv(path);
  std::vector<Point<D>> pts(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    PARHC_CHECK_MSG(rows[i].size() == static_cast<size_t>(D),
                    "CSV row dimension mismatch");
    for (int d = 0; d < D; ++d) pts[i][d] = rows[i][d];
  }
  return pts;
}

namespace internal {
/// Streaming binary write shared by the typed and row overloads: `coord`
/// maps (point index, dim) to the coordinate value.
void WritePointsBinStream(const std::string& path, uint32_t dim,
                          uint64_t count,
                          double (*coord)(const void*, uint64_t, uint32_t),
                          const void* ctx);
/// Opens `path`, reads and validates the header (including that the payload
/// size matches dim * count doubles), and leaves the stream positioned at
/// the first coordinate. Throws std::runtime_error on any problem.
PointsBinHeader OpenPointsBin(std::ifstream& in, const std::string& path);
/// Throws std::runtime_error naming `where` (file and line or row) if any
/// of v[0, n) is NaN or +-Inf.
void RequireFinite(const double* v, size_t n, const std::string& where);
}  // namespace internal

template <int D>
void WritePointsBin(const std::string& path,
                    const std::vector<Point<D>>& pts) {
  internal::WritePointsBinStream(
      path, static_cast<uint32_t>(D), pts.size(),
      [](const void* ctx, uint64_t i, uint32_t d) {
        return (*static_cast<const std::vector<Point<D>>*>(ctx))[i][static_cast<int>(d)];
      },
      &pts);
}

/// Reads a binary point file directly into typed points: one contiguous
/// read into the Point<D> array, no per-row allocation — the fast path the
/// registry uses for large datasets. Throws std::runtime_error on
/// unreadable, malformed, truncated, or wrong-dimension files.
template <int D>
std::vector<Point<D>> ReadPointsBinAs(const std::string& path) {
  static_assert(sizeof(Point<D>) == D * sizeof(double),
                "Point<D> must be a bare coordinate array for bulk IO");
  std::ifstream in;
  PointsBinHeader h = internal::OpenPointsBin(in, path);
  if (h.dim != static_cast<uint32_t>(D)) {
    throw std::runtime_error(path + ": binary point file has dimension " +
                             std::to_string(h.dim) + ", expected " +
                             std::to_string(D));
  }
  std::vector<Point<D>> pts(h.count);
  in.read(reinterpret_cast<char*>(pts.data()),
          static_cast<std::streamsize>(h.count * sizeof(Point<D>)));
  if (!in.good() && h.count > 0) {
    throw std::runtime_error(path + ": binary point file truncated");
  }
  for (size_t i = 0; i < pts.size(); ++i) {
    internal::RequireFinite(pts[i].x.data(), D,
                            path + " row " + std::to_string(i));
  }
  return pts;
}

}  // namespace parhc
