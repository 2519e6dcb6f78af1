#include "data/io.h"

#include <cmath>
#include <fstream>
#include <sstream>

namespace parhc {

void WritePointsCsv(const std::string& path,
                    const std::vector<std::vector<double>>& rows) {
  std::ofstream out(path);
  PARHC_CHECK_MSG(out.good(), "cannot open output file");
  out.precision(17);
  for (const auto& row : rows) {
    for (size_t d = 0; d < row.size(); ++d) {
      if (d) out << ',';
      out << row[d];
    }
    out << '\n';
  }
}

void WritePointsBin(const std::string& path,
                    const std::vector<std::vector<double>>& rows) {
  uint32_t dim = rows.empty() ? 0 : static_cast<uint32_t>(rows[0].size());
  PARHC_CHECK_MSG(dim >= 1, "binary point file needs dimension >= 1");
  for (const auto& row : rows) {
    PARHC_CHECK_MSG(row.size() == dim, "rows must share one dimension");
  }
  internal::WritePointsBinStream(
      path, dim, rows.size(),
      [](const void* ctx, uint64_t i, uint32_t d) {
        return (*static_cast<const std::vector<std::vector<double>>*>(ctx))[i][d];
      },
      &rows);
}

namespace internal {

void WritePointsBinStream(const std::string& path, uint32_t dim,
                          uint64_t count,
                          double (*coord)(const void*, uint64_t, uint32_t),
                          const void* ctx) {
  std::ofstream out(path, std::ios::binary);
  PARHC_CHECK_MSG(out.good(), "cannot open output file");
  uint32_t magic = kPointsBinMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  std::vector<double> row(dim);
  for (uint64_t i = 0; i < count; ++i) {
    for (uint32_t d = 0; d < dim; ++d) row[d] = coord(ctx, i, d);
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(dim * sizeof(double)));
  }
  PARHC_CHECK_MSG(out.good(), "binary point write failed");
}

PointsBinHeader OpenPointsBin(std::ifstream& in, const std::string& path) {
  in.open(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  uint32_t magic = 0;
  PointsBinHeader h{0, 0};
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(&h.dim), sizeof(h.dim));
  in.read(reinterpret_cast<char*>(&h.count), sizeof(h.count));
  if (!in.good() || magic != kPointsBinMagic) {
    throw std::runtime_error(path + ": not a parhc binary point file");
  }
  if (h.dim < 1) {
    throw std::runtime_error(path + ": binary point file has dimension 0");
  }
  // Validate the payload size up front so a corrupt count neither truncates
  // mid-read nor provokes a huge allocation. Compare by division: the
  // multiplication count * dim * 8 could wrap for a crafted count.
  std::streampos payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  uint64_t payload = static_cast<uint64_t>(in.tellg() - payload_start);
  in.seekg(payload_start);
  uint64_t row_bytes = static_cast<uint64_t>(h.dim) * sizeof(double);
  if (payload % row_bytes != 0 || h.count != payload / row_bytes) {
    throw std::runtime_error(path +
                             ": binary point file truncated or corrupt");
  }
  return h;
}

void RequireFinite(const double* v, size_t n, const std::string& where) {
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) {
      throw std::runtime_error(where + ": non-finite coordinate");
    }
  }
}

}  // namespace internal

PointsBinHeader ReadPointsBinHeader(const std::string& path) {
  std::ifstream in;
  return internal::OpenPointsBin(in, path);
}

std::vector<std::vector<double>> ReadPointsBin(const std::string& path) {
  std::ifstream in;
  PointsBinHeader h = internal::OpenPointsBin(in, path);
  std::vector<std::vector<double>> rows(h.count);
  std::vector<double> row(h.dim);
  for (uint64_t i = 0; i < h.count; ++i) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(h.dim * sizeof(double)));
    if (!in.good()) {
      throw std::runtime_error(path + ": binary point file truncated");
    }
    internal::RequireFinite(row.data(), row.size(),
                            path + " row " + std::to_string(i));
    rows[i].assign(row.begin(), row.end());
  }
  return rows;
}

std::vector<std::vector<double>> ReadPointsCsv(const std::string& path) {
  std::ifstream in(path);
  PARHC_CHECK_MSG(in.good(), "cannot open input file");
  std::vector<std::vector<double>> rows;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<double> row;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      row.push_back(std::stod(cell));
      internal::RequireFinite(&row.back(), 1,
                              path + " line " + std::to_string(line_no));
    }
    if (!row.empty()) rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace parhc
