#include "mel/net/network.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "mel/net/params_io.hpp"

namespace mel::net {

namespace {

/// Why `name = v` lies outside the cost model's domain (see the Network
/// constructor); empty when it lies inside.
std::string domain_error(std::string_view name, double v) {
  const bool positive = name == "ranks_per_node" || name == "alpha_intra" ||
                        name == "alpha_inter";
  const bool rate = name == "beta_intra" || name == "beta_inter" ||
                    name == "copy_per_byte" || name == "copy_per_kib";
  const char* rule = !std::isfinite(v)        ? "must be finite"
                     : positive && v <= 0.0   ? "must be positive"
                     : v < 0.0                ? "must be non-negative"
                     : rate && v > kMaxRateNs ? "must be at most"
                                              : nullptr;
  if (rule == nullptr) return {};
  std::ostringstream os;
  os << "Network: " << name << ' ' << rule;
  if (std::isfinite(v) && v > kMaxRateNs) {
    os << " net::kMaxRateNs = " << kMaxRateNs << " ns";
  }
  os << ", got " << v;
  return os.str();
}

}  // namespace

Network::Network(int nranks, const Params& params)
    : nranks_(nranks), params_(params) {
  if (nranks <= 0) throw std::invalid_argument("Network: nranks must be > 0");
  for (const ParamField& f : param_fields()) {
    double v = 0.0;
    (void)get_param(params, f.name, v);
    const std::string error = domain_error(f.name, v);
    if (!error.empty()) throw std::invalid_argument(error);
  }
  nnodes_ = (nranks + params.ranks_per_node - 1) / params.ranks_per_node;
}

Time Network::transfer_time(Rank src, Rank dst, std::size_t bytes) const {
  // A self send goes through the same shared-memory path as any other
  // same-node pair, so it is priced as a plain intra-node transfer (see
  // network.hpp). An earlier revision halved both terms here, which no
  // measurement justified and which made loopback mysteriously cheaper
  // than the LogGP model everywhere else.
  const bool intra = same_node(src, dst);
  const Time alpha = intra ? params_.alpha_intra : params_.alpha_inter;
  const double beta = intra ? params_.beta_intra : params_.beta_inter;
  return alpha + static_cast<Time>(static_cast<double>(bytes) * beta);
}

Time Network::collective_entry(int neighbors) const {
  return params_.o_coll_base +
         params_.o_coll_per_neighbor * static_cast<Time>(neighbors);
}

Time Network::reduction_time() const {
  int stages = 0;
  int span = 1;
  while (span < nranks_) {
    span <<= 1;
    ++stages;
  }
  return params_.o_reduce_hop * static_cast<Time>(stages == 0 ? 1 : stages);
}

Time Network::copy_time(std::size_t bytes) const {
  return params_.copy_per_byte * static_cast<Time>(bytes) +
         (params_.copy_per_kib * static_cast<Time>(bytes)) / 1024;
}

}  // namespace mel::net
