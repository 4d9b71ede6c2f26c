// File-level I/O tests: Matrix Market round trips through the filesystem,
// error paths for malformed files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "pipescg/base/error.hpp"
#include "pipescg/sparse/matrix_market.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg::sparse {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(MatrixMarketFileTest, WriteThenReadRoundTrips) {
  const CsrMatrix m = make_serena_like(6);
  TempFile file("roundtrip.mtx");
  {
    std::ofstream out(file.path());
    ASSERT_TRUE(out.good());
    write_matrix_market(out, m);
  }
  const CsrMatrix back = read_matrix_market_file(file.path());
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.nnz(), m.nnz());
  const auto va = m.values();
  const auto vb = back.values();
  for (std::size_t k = 0; k < m.nnz(); ++k)
    EXPECT_NEAR(va[k], vb[k], 1e-15 * (1.0 + std::abs(va[k])));
}

TEST(MatrixMarketFileTest, LoadedMatrixBehavesLikeOriginal) {
  const CsrMatrix m = make_thermal2_like(9, 9);
  TempFile file("spmv.mtx");
  {
    std::ofstream out(file.path());
    write_matrix_market(out, m);
  }
  const CsrMatrix back = read_matrix_market_file(file.path());
  std::vector<double> x(m.rows());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.5 + 0.01 * static_cast<double>(i);
  std::vector<double> y1(m.rows()), y2(m.rows());
  m.apply(x, y1);
  back.apply(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(MatrixMarketFileTest, MalformedHeadersThrow) {
  struct Case {
    const char* label;
    const char* content;
  };
  const Case cases[] = {
      {"wrong banner", "%%NotMatrixMarket matrix coordinate real general\n"},
      {"array format", "%%MatrixMarket matrix array real general\n2 2\n1\n"},
      {"complex field",
       "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"},
      {"skew symmetry",
       "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n"},
      {"index out of range",
       "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
  };
  for (const Case& c : cases) {
    TempFile file("bad.mtx");
    {
      std::ofstream out(file.path());
      out << c.content;
    }
    EXPECT_THROW(read_matrix_market_file(file.path()), Error) << c.label;
  }
}

// Untrusted input fails with a typed Error, never with a bad allocation or
// a silently substituted value.
void expect_rejected(const std::string& content, const std::string& label) {
  TempFile file("untrusted.mtx");
  {
    std::ofstream out(file.path());
    out << content;
  }
  EXPECT_THROW(read_matrix_market_file(file.path()), Error) << label;
}

TEST(MatrixMarketFileTest, HugeHeaderCountIsRejectedWithoutAllocating) {
  // 9e18 entries fit the 4e9 x 4e9 bound, but one line cannot hold them.
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n"
      "4000000000 4000000000 9000000000000000000\n1 1 1.0\n",
      "huge nnz");
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n",
      "nnz above rows x cols");
}

TEST(MatrixMarketFileTest, UnparsableValueIsRejected) {
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
      "value abc");
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.5x\n",
      "value 2.5x");
  expect_rejected(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
      "missing value");
}

TEST(MatrixMarketFileTest, NonFiniteValueIsRejected) {
  for (const char* v : {"inf", "-inf", "nan", "1e999"})
    expect_rejected(
        std::string("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n1 1 ") +
            v + "\n",
        v);
}

TEST(MatrixMarketFileTest, IntegerFieldIsAccepted) {
  TempFile file("int.mtx");
  {
    std::ofstream out(file.path());
    out << "%%MatrixMarket matrix coordinate integer symmetric\n"
        << "2 2 2\n1 1 4\n2 1 -1\n";
  }
  const CsrMatrix m = read_matrix_market_file(file.path());
  EXPECT_DOUBLE_EQ(m.entry(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.entry(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.entry(1, 0), -1.0);
}

}  // namespace
}  // namespace pipescg::sparse
