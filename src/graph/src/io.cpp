#include "mel/graph/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace mel::graph {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("matrix market: " + what);
}

/// Reject a declared vertex count above kMaxFileVertices.
void check_vertex_count(const char* format, std::uint64_t nverts) {
  if (nverts <= static_cast<std::uint64_t>(kMaxFileVertices)) return;
  throw std::runtime_error(std::string(format) + ": the header declares " +
                           std::to_string(nverts) +
                           " vertices, above the limit of " +
                           std::to_string(kMaxFileVertices));
}

}  // namespace

Csr read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) fail("empty input");
  std::istringstream header(lower(line));
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%matrixmarket") fail("missing %%MatrixMarket banner");
  if (object != "matrix" || format != "coordinate") {
    fail("only `matrix coordinate` is supported");
  }
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer") {
    fail("unsupported field type: " + field);
  }
  if (symmetry != "general" && symmetry != "symmetric") {
    fail("unsupported symmetry: " + symmetry);
  }

  // Skip comments, read the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  std::int64_t rows = 0, cols = 0, entries = 0;
  if (!(size_line >> rows >> cols >> entries) || rows < 0 || cols < 0 ||
      entries < 0) {
    fail("bad size line");
  }
  if (rows != cols) fail("matrix must be square to be a graph");
  check_vertex_count("matrix market", static_cast<std::uint64_t>(rows));

  // `entries` is a claim about the file, not an allocation size: the list
  // grows only as entries actually arrive.
  std::vector<Edge> edges;
  for (std::int64_t k = 0; k < entries; ++k) {
    if (!std::getline(in, line)) fail("unexpected end of entries");
    std::istringstream e(line);
    std::int64_t i = 0, j = 0;
    double w = 1.0;
    if (!(e >> i >> j)) fail("bad entry line");
    if (!pattern) {
      if (!(e >> w)) fail("missing value on entry line");
    }
    if (i < 1 || i > rows || j < 1 || j > cols) fail("entry out of range");
    if (i == j) continue;  // drop the diagonal
    edges.push_back(Edge{i - 1, j - 1, w});
  }
  return Csr::from_edges(rows, edges);
}

Csr read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(const Csr& g, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate real symmetric\n";
  out << "% written by mel++\n";
  out << g.nverts() << ' ' << g.nverts() << ' ' << g.nedges() << '\n';
  for (VertexId v = 0; v < g.nverts(); ++v) {
    for (const Adj& a : g.neighbors(v)) {
      // Lower triangle: row >= column, 1-based.
      if (a.to < v) out << (v + 1) << ' ' << (a.to + 1) << ' ' << a.w << '\n';
    }
  }
}

namespace {
constexpr char kMagic[4] = {'M', 'E', 'L', 'G'};
}

Csr read_binary(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("binary graph: bad magic");
  }
  std::uint64_t nverts = 0, nedges = 0;
  in.read(reinterpret_cast<char*>(&nverts), sizeof nverts);
  in.read(reinterpret_cast<char*>(&nedges), sizeof nedges);
  if (!in) throw std::runtime_error("binary graph: truncated header");
  check_vertex_count("binary graph", nverts);
  // Read in bounded chunks, so a header that claims more edges than the
  // stream holds fails as truncated instead of allocating for the claim.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  std::vector<Edge> edges;
  while (edges.size() < nedges) {
    const std::size_t done = edges.size();
    const auto chunk = static_cast<std::size_t>(std::min(kChunk, nedges - done));
    edges.resize(done + chunk);
    in.read(reinterpret_cast<char*>(edges.data() + done),
            static_cast<std::streamsize>(chunk * sizeof(Edge)));
    if (!in) throw std::runtime_error("binary graph: truncated edges");
  }
  return Csr::from_edges(static_cast<VertexId>(nverts), edges);
}

Csr read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_binary(in);
}

void write_binary(const Csr& g, std::ostream& out) {
  out.write(kMagic, 4);
  const std::uint64_t nverts = static_cast<std::uint64_t>(g.nverts());
  const auto edges = g.to_edges();
  const std::uint64_t nedges = edges.size();
  out.write(reinterpret_cast<const char*>(&nverts), sizeof nverts);
  out.write(reinterpret_cast<const char*>(&nedges), sizeof nedges);
  out.write(reinterpret_cast<const char*>(edges.data()),
            static_cast<std::streamsize>(edges.size() * sizeof(Edge)));
}

}  // namespace mel::graph
