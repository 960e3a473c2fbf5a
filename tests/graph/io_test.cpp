#include "mel/graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "mel/gen/generators.hpp"

namespace mel::graph {
namespace {

TEST(MatrixMarket, ParsesSymmetricReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% a comment\n"
      "4 4 3\n"
      "2 1 1.5\n"
      "3 2 2.5\n"
      "4 4 9.0\n");  // diagonal: dropped
  const Csr g = read_matrix_market(in);
  EXPECT_EQ(g.nverts(), 4);
  EXPECT_EQ(g.nedges(), 2);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].w, 1.5);
}

TEST(MatrixMarket, ParsesPatternGeneral) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 2\n"
      "1 2\n"
      "2 3\n");
  const Csr g = read_matrix_market(in);
  EXPECT_EQ(g.nedges(), 2);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].w, 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::istringstream bad_banner("hello\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad_banner), std::runtime_error);
  std::istringstream rect(
      "%%MatrixMarket matrix coordinate real general\n2 3 0\n");
  EXPECT_THROW(read_matrix_market(rect), std::runtime_error);
  std::istringstream oob(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n");
  EXPECT_THROW(read_matrix_market(oob), std::runtime_error);
  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n");
  EXPECT_THROW(read_matrix_market(truncated), std::runtime_error);
}

/// The reader's own error, with `what` in its message.
template <class Read>
void expect_reader_error(Read read, const std::string& what) {
  try {
    read();
    ADD_FAILURE() << "expected std::runtime_error containing '" << what << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type: " << e.what();
  }
}

TEST(MatrixMarket, RejectsNegativeSizes) {
  for (const char* size : {"3 3 -1", "-3 -3 1", "3 -3 1"}) {
    std::istringstream in(
        std::string("%%MatrixMarket matrix coordinate real general\n") + size +
        "\n1 2 1.0\n");
    expect_reader_error([&] { return read_matrix_market(in); }, "bad size line");
  }
}

TEST(MatrixMarket, HugeEntryCountFailsOnTheMissingEntries) {
  // The count is a claim about the file, not an allocation request.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 100000000000000\n"
      "1 2 1.0\n");
  expect_reader_error([&] { return read_matrix_market(in); },
                      "unexpected end of entries");
}

TEST(MatrixMarket, VertexCountAboveTheLimitIsRejected) {
  // 2^40 vertices: the reader refuses the count before allocating rows.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "1099511627776 1099511627776 1\n"
      "1 2 1.0\n");
  expect_reader_error([&] { return read_matrix_market(in); },
                      "1099511627776 vertices, above the limit of " +
                          std::to_string(kMaxFileVertices));
}

TEST(MatrixMarket, RoundTrip) {
  const Csr g = gen::erdos_renyi(100, 500, 7);
  std::stringstream buf;
  write_matrix_market(g, buf);
  const Csr back = read_matrix_market(buf);
  EXPECT_EQ(back.nverts(), g.nverts());
  EXPECT_EQ(back.nedges(), g.nedges());
  EXPECT_NEAR(back.total_weight(), g.total_weight(), 1e-6);
}

TEST(Binary, RoundTripExact) {
  const Csr g = gen::rmat(9, 8, 3);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, buf);
  const Csr back = read_binary(buf);
  EXPECT_EQ(back.nverts(), g.nverts());
  EXPECT_EQ(back.nedges(), g.nedges());
  EXPECT_DOUBLE_EQ(back.total_weight(), g.total_weight());
}

TEST(Binary, RejectsBadMagic) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf << "NOPE and more";
  EXPECT_THROW(read_binary(buf), std::runtime_error);
}

TEST(Binary, RejectsTruncation) {
  const Csr g = gen::erdos_renyi(50, 200, 1);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, buf);
  const std::string full = buf.str();
  std::stringstream cut(std::ios::in | std::ios::out | std::ios::binary);
  cut << full.substr(0, full.size() / 2);
  EXPECT_THROW(read_binary(cut), std::runtime_error);
}

std::string binary_header(std::uint64_t nverts, std::uint64_t nedges) {
  std::string out = "MELG";
  out.append(reinterpret_cast<const char*>(&nverts), sizeof nverts);
  out.append(reinterpret_cast<const char*>(&nedges), sizeof nedges);
  return out;
}

TEST(Binary, HugeEdgeCountFailsOnTheMissingEdges) {
  // A 20-byte header claiming 2^40 edges, and one edge behind it.
  std::string bytes = binary_header(3, std::uint64_t{1} << 40);
  const Edge e{0, 1, 1.0};
  bytes.append(reinterpret_cast<const char*>(&e), sizeof e);
  std::istringstream in(bytes, std::ios::in | std::ios::binary);
  expect_reader_error([&] { return read_binary(in); }, "truncated edges");
}

TEST(Binary, VertexCountAboveTheLimitIsRejected) {
  // 2^40 would be a huge allocation; 2^63 does not fit VertexId at all.
  for (const std::uint64_t n :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 63}) {
    std::istringstream in(binary_header(n, 0),
                          std::ios::in | std::ios::binary);
    expect_reader_error([&] { return read_binary(in); },
                        std::to_string(n) + " vertices, above the limit of " +
                            std::to_string(kMaxFileVertices));
  }
}

TEST(Binary, RejectsNanWeight) {
  std::string bytes = binary_header(3, 2);
  const Edge edges[] = {{0, 1, 1.0}, {1, 2, std::numeric_limits<double>::quiet_NaN()}};
  bytes.append(reinterpret_cast<const char*>(edges), sizeof edges);
  std::istringstream in(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(read_binary(in), std::invalid_argument);
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/x.mtx"),
               std::runtime_error);
  EXPECT_THROW(read_binary_file("/nonexistent/x.melg"), std::runtime_error);
}

}  // namespace
}  // namespace mel::graph
