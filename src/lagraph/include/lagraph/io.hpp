// lagraph/io.hpp — graph I/O (paper §V "Graph I/O"): Matrix Market text
// format (MMRead / MMWrite) and a fast binary format (BinRead / BinWrite).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lagraph/graph.hpp"

namespace lagraph {

namespace detail {

inline bool next_data_line(std::istream &in, std::string &line) {
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') return true;
  }
  return false;
}

/// Read `count` raw elements in chunks of at most 1 MiB, so the storage
/// grows only as data arrives: a short stream fails (returns false) before
/// an allocation sized from an untrusted header is made.
template <typename X>
bool read_array(std::istream &in, std::uint64_t count, std::vector<X> &out) {
  constexpr std::uint64_t kChunk = (std::uint64_t{1} << 20) / sizeof(X);
  out.clear();
  while (out.size() < count) {
    const std::size_t at = out.size();
    const std::size_t len =
        static_cast<std::size_t>(std::min(kChunk, count - at));
    out.resize(at + len);
    in.read(reinterpret_cast<char *>(out.data() + at),
            static_cast<std::streamsize>(len * sizeof(X)));
    if (!in) return false;
  }
  return true;
}

/// An empty nrows×ncols matrix, or nullopt when its row pointer cannot be
/// allocated (a dimension read from an untrusted header).
template <typename T>
std::optional<grb::Matrix<T>> empty_matrix(std::uint64_t nrows,
                                           std::uint64_t ncols) {
  try {
    return grb::Matrix<T>(nrows, ncols);
  } catch (const std::bad_alloc &) {
    return std::nullopt;
  } catch (const std::length_error &) {
    return std::nullopt;
  }
}

}  // namespace detail

/// LAGraph_MMRead: read a GrB_Matrix from a Matrix Market stream. Supports
/// coordinate real/integer/pattern matrices, general or symmetric.
template <typename T>
int mm_read(grb::Matrix<T> &a, std::istream &in, char *msg) {
  return detail::guarded(msg, [&]() {
    std::string line;
    if (!std::getline(in, line) ||
        line.rfind("%%MatrixMarket", 0) != 0) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "mm_read: missing MatrixMarket banner");
    }
    std::istringstream banner(line);
    std::string tag, object, format, field, symmetry;
    banner >> tag >> object >> format >> field >> symmetry;
    if (object != "matrix" || format != "coordinate") {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "mm_read: only coordinate matrices supported");
    }
    const bool is_pattern = field == "pattern";
    const bool is_symmetric = symmetry == "symmetric";
    if (field != "real" && field != "integer" && !is_pattern) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "mm_read: unsupported field type");
    }
    if (symmetry != "general" && !is_symmetric) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "mm_read: unsupported symmetry");
    }
    if (!detail::next_data_line(in, line)) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR, "mm_read: missing sizes");
    }
    std::istringstream sizes(line);
    std::uint64_t nrows = 0, ncols = 0, nvals = 0;
    sizes >> nrows >> ncols >> nvals;
    // A dimension of 2^64-1 has no n+1-entry row pointer. nvals is not
    // trusted either: nothing is reserved from it, the entries must exist.
    if (sizes.fail() || nrows == UINT64_MAX || ncols == UINT64_MAX) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR, "mm_read: bad size line");
    }
    std::vector<grb::Index> ri, ci;
    std::vector<T> vx;
    for (std::uint64_t e = 0; e < nvals; ++e) {
      if (!detail::next_data_line(in, line)) {
        return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                               "mm_read: truncated entry list");
      }
      std::istringstream entry(line);
      std::uint64_t i = 0, j = 0;
      double x = 1.0;
      entry >> i >> j;
      if (!is_pattern) entry >> x;
      if (entry.fail() || i == 0 || j == 0 || i > nrows || j > ncols) {
        return detail::set_msg(msg, LAGRAPH_IO_ERROR, "mm_read: bad entry");
      }
      ri.push_back(i - 1);  // Matrix Market is 1-based
      ci.push_back(j - 1);
      vx.push_back(static_cast<T>(x));
      if (is_symmetric && i != j) {
        ri.push_back(j - 1);
        ci.push_back(i - 1);
        vx.push_back(static_cast<T>(x));
      }
    }
    // Built aside and moved in only on success: a failed read leaves `a`.
    auto out = detail::empty_matrix<T>(nrows, ncols);
    if (!out) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "mm_read: dimensions too large to allocate");
    }
    out->build(std::span<const grb::Index>(ri),
               std::span<const grb::Index>(ci), std::span<const T>(vx),
               grb::Second{});
    a = std::move(*out);
    return LAGRAPH_OK;
  });
}

/// LAGraph_MMWrite: write a GrB_Matrix in Matrix Market coordinate form.
template <typename T>
int mm_write(const grb::Matrix<T> &a, std::ostream &out, char *msg) {
  return detail::guarded(msg, [&]() {
    const bool integral = std::is_integral_v<T>;
    out << "%%MatrixMarket matrix coordinate "
        << (integral ? "integer" : "real") << " general\n";
    out << "% written by lagraph (lagraph-repro)\n";
    out << a.nrows() << " " << a.ncols() << " " << a.nvals() << "\n";
    a.for_each([&](grb::Index i, grb::Index j, const T &x) {
      out << (i + 1) << " " << (j + 1) << " " << +x << "\n";
    });
    if (!out) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR, "mm_write: write failed");
    }
    return LAGRAPH_OK;
  });
}

/// Convenience overloads on file paths.
template <typename T>
int mm_read(grb::Matrix<T> &a, const std::string &path, char *msg) {
  std::ifstream in(path);
  if (!in) return detail::set_msg(msg, LAGRAPH_IO_ERROR, "cannot open file");
  return mm_read(a, in, msg);
}

template <typename T>
int mm_write(const grb::Matrix<T> &a, const std::string &path, char *msg) {
  std::ofstream out(path);
  if (!out) return detail::set_msg(msg, LAGRAPH_IO_ERROR, "cannot open file");
  return mm_write(a, out, msg);
}

// -- binary format ---------------------------------------------------------------

inline constexpr char kBinMagic[8] = {'L', 'A', 'G', 'R', 'B', 'I', 'N', '1'};

/// LAGraph_BinWrite: dump a matrix as raw CSR.
template <typename T>
int bin_write(const grb::Matrix<T> &a, std::ostream &out, char *msg) {
  return detail::guarded(msg, [&]() {
    a.wait();
    a.to_csr();
    out.write(kBinMagic, sizeof(kBinMagic));
    std::uint64_t header[4] = {a.nrows(), a.ncols(), a.nvals(), sizeof(T)};
    out.write(reinterpret_cast<const char *>(header), sizeof(header));
    auto rp = a.rowptr();
    auto cx = a.colidx();
    auto vx = a.values();
    // The on-disk format is fixed at 64-bit indices regardless of the
    // in-memory storage width; widen u32 snapshots on the way out.
    std::vector<grb::Index> rp64(rp.begin(), rp.end());
    std::vector<grb::Index> cx64(cx.begin(), cx.end());
    out.write(reinterpret_cast<const char *>(rp64.data()),
              static_cast<std::streamsize>(rp64.size() * sizeof(grb::Index)));
    out.write(reinterpret_cast<const char *>(cx64.data()),
              static_cast<std::streamsize>(cx64.size() * sizeof(grb::Index)));
    out.write(reinterpret_cast<const char *>(vx.data()),
              static_cast<std::streamsize>(vx.size() * sizeof(T)));
    if (!out) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR, "bin_write: write failed");
    }
    return LAGRAPH_OK;
  });
}

/// LAGraph_BinRead: load a matrix written by bin_write.
template <typename T>
int bin_read(grb::Matrix<T> &a, std::istream &in, char *msg) {
  return detail::guarded(msg, [&]() {
    char magic[8];
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kBinMagic, sizeof(magic)) != 0) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR, "bin_read: bad magic");
    }
    std::uint64_t header[4];
    in.read(reinterpret_cast<char *>(header), sizeof(header));
    if (!in || header[3] != sizeof(T)) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "bin_read: header/type mismatch");
    }
    const std::uint64_t nrows = header[0];
    const std::uint64_t ncols = header[1];
    const std::uint64_t nvals = header[2];
    if (nrows == UINT64_MAX) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "bin_read: row count overflows");
    }
    // The header's counts are untrusted: the arrays grow only as the
    // stream delivers their data.
    std::vector<grb::Index> rp;
    std::vector<grb::Index> cx;
    std::vector<T> vx;
    if (!detail::read_array(in, nrows + 1, rp) ||
        !detail::read_array(in, nvals, cx) ||
        !detail::read_array(in, nvals, vx)) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR, "bin_read: truncated");
    }
    // adopt_csr checks only array sizes; the file's CSR structure is
    // untrusted, so every row range and column index is checked here.
    if (rp.front() != 0 || rp.back() != nvals ||
        std::adjacent_find(rp.begin(), rp.end(), std::greater<>()) !=
            rp.end()) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "bin_read: malformed row pointer");
    }
    if (std::any_of(cx.begin(), cx.end(),
                    [&](grb::Index j) { return j >= ncols; })) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "bin_read: column index out of range");
    }
    // Built aside and moved in only on success: a failed read leaves `a`.
    auto out = detail::empty_matrix<T>(nrows, ncols);
    if (!out) {
      return detail::set_msg(msg, LAGRAPH_IO_ERROR,
                             "bin_read: dimensions too large to allocate");
    }
    out->adopt_csr(std::move(rp), std::move(cx), std::move(vx), false);
    a = std::move(*out);
    return LAGRAPH_OK;
  });
}

template <typename T>
int bin_write(const grb::Matrix<T> &a, const std::string &path, char *msg) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return detail::set_msg(msg, LAGRAPH_IO_ERROR, "cannot open file");
  return bin_write(a, out, msg);
}

template <typename T>
int bin_read(grb::Matrix<T> &a, const std::string &path, char *msg) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return detail::set_msg(msg, LAGRAPH_IO_ERROR, "cannot open file");
  return bin_read(a, in, msg);
}

}  // namespace lagraph
