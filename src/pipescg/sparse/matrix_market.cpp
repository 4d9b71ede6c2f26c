#include "pipescg/sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "pipescg/base/error.hpp"
#include "pipescg/sparse/coo_builder.hpp"

namespace pipescg::sparse {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in, std::string name) {
  std::string line;
  PIPESCG_CHECK(static_cast<bool>(std::getline(in, line)),
                "matrix market: empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  PIPESCG_CHECK(banner == "%%MatrixMarket", "matrix market: missing banner");
  PIPESCG_CHECK(lower(object) == "matrix", "matrix market: object not matrix");
  PIPESCG_CHECK(lower(format) == "coordinate",
                "matrix market: only coordinate format is supported");
  const std::string f = lower(field);
  PIPESCG_CHECK(f == "real" || f == "integer",
                "matrix market: only real/integer fields are supported");
  const std::string sym = lower(symmetry);
  PIPESCG_CHECK(sym == "general" || sym == "symmetric",
                "matrix market: only general/symmetric supported");

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream dims(line);
  std::size_t nrows = 0, ncols = 0, nnz = 0;
  PIPESCG_CHECK(static_cast<bool>(dims >> nrows >> ncols >> nnz) &&
                    nrows > 0 && ncols > 0,
                "matrix market: bad dimensions line");
  PIPESCG_CHECK(nrows > std::numeric_limits<std::size_t>::max() / ncols ||
                    nnz <= nrows * ncols,
                "matrix market: header declares more entries than the "
                "matrix has");

  // The header is untrusted: reserve no more entries than the rest of the
  // input can hold (an entry line takes at least 6 bytes, "i j v\n").  An
  // unseekable stream grows on demand instead.
  std::size_t fits = 0;
  if (const std::istream::pos_type here = in.tellg(); here != -1) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type last = in.tellg();
    in.seekg(here);
    if (last != -1) fits = static_cast<std::size_t>(last - here) / 6 + 1;
  }
  const std::size_t reserve = std::min(nnz, fits);
  CooBuilder builder(nrows, ncols);
  builder.reserve(sym == "symmetric" ? 2 * reserve : reserve);
  std::size_t read_count = 0;
  while (read_count < nnz && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream entry(line);
    std::size_t i = 0, j = 0;
    std::string token;
    PIPESCG_CHECK(static_cast<bool>(entry >> i >> j >> token),
                  "matrix market: malformed entry line '" + line + "'");
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    PIPESCG_CHECK(end != token.c_str() && *end == '\0',
                  "matrix market: unparsable value '" + token + "'");
    PIPESCG_CHECK(std::isfinite(v),
                  "matrix market: non-finite value '" + token + "'");
    PIPESCG_CHECK(i >= 1 && i <= nrows && j >= 1 && j <= ncols,
                  "matrix market: entry index out of range");
    if (sym == "symmetric") {
      builder.add_symmetric(i - 1, j - 1, v);
    } else {
      builder.add(i - 1, j - 1, v);
    }
    ++read_count;
  }
  PIPESCG_CHECK(read_count == nnz,
                "matrix market: fewer entries than header declared");
  return builder.build(std::move(name));
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  PIPESCG_CHECK(in.good(), "cannot open matrix market file: " + path);
  std::string name = path;
  if (auto pos = name.find_last_of('/'); pos != std::string::npos)
    name = name.substr(pos + 1);
  return read_matrix_market(in, name);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& m) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  const auto rp = m.row_ptr();
  const auto ci = m.col_indices();
  const auto v = m.values();
  out.precision(17);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (auto k = rp[i]; k < rp[i + 1]; ++k)
      out << (i + 1) << " " << (ci[static_cast<std::size_t>(k)] + 1) << " "
          << v[static_cast<std::size_t>(k)] << "\n";
}

}  // namespace pipescg::sparse
