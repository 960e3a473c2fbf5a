#include "mel/net/params_io.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace mel::net {

namespace {

using Kind = ParamField::Kind;

/// Field accessor: maps a canonical name to a pointer into `p`. One list
/// drives get/set/serialize so the three can never disagree.
struct FieldRef {
  Kind kind = Kind::kTime;
  int* i = nullptr;
  Time* t = nullptr;
  double* d = nullptr;
};

FieldRef field_ref(Params& p, std::string_view name) {
  auto ti = [](Time& v) { return FieldRef{Kind::kTime, nullptr, &v, nullptr}; };
  if (name == "ranks_per_node") {
    return FieldRef{Kind::kInt, &p.ranks_per_node, nullptr, nullptr};
  }
  if (name == "alpha_intra") return ti(p.alpha_intra);
  if (name == "alpha_inter") return ti(p.alpha_inter);
  if (name == "beta_intra") {
    return FieldRef{Kind::kDouble, nullptr, nullptr, &p.beta_intra};
  }
  if (name == "beta_inter") {
    return FieldRef{Kind::kDouble, nullptr, nullptr, &p.beta_inter};
  }
  if (name == "o_send") return ti(p.o_send);
  if (name == "o_recv") return ti(p.o_recv);
  if (name == "o_iprobe") return ti(p.o_iprobe);
  if (name == "o_ack") return ti(p.o_ack);
  if (name == "o_send_intra") return ti(p.o_send_intra);
  if (name == "o_recv_intra") return ti(p.o_recv_intra);
  if (name == "nsr_handling_per_msg") return ti(p.nsr_handling_per_msg);
  if (name == "o_put") return ti(p.o_put);
  if (name == "o_get") return ti(p.o_get);
  if (name == "o_flush") return ti(p.o_flush);
  if (name == "o_coll_base") return ti(p.o_coll_base);
  if (name == "o_coll_per_neighbor") return ti(p.o_coll_per_neighbor);
  if (name == "o_reduce_hop") return ti(p.o_reduce_hop);
  if (name == "o_coll_persistent_start") return ti(p.o_coll_persistent_start);
  if (name == "compute_per_edge") return ti(p.compute_per_edge);
  if (name == "compute_per_vertex") return ti(p.compute_per_vertex);
  if (name == "copy_per_byte") return ti(p.copy_per_byte);
  if (name == "copy_per_kib") return ti(p.copy_per_kib);
  return FieldRef{Kind::kTime, nullptr, nullptr, nullptr};
}

bool ref_valid(const FieldRef& r) {
  return r.i != nullptr || r.t != nullptr || r.d != nullptr;
}

}  // namespace

const std::vector<ParamField>& param_fields() {
  static const std::vector<ParamField> kFields = {
      {"ranks_per_node", Kind::kInt},
      {"alpha_intra", Kind::kTime},
      {"alpha_inter", Kind::kTime},
      {"beta_intra", Kind::kDouble},
      {"beta_inter", Kind::kDouble},
      {"o_send", Kind::kTime},
      {"o_recv", Kind::kTime},
      {"o_iprobe", Kind::kTime},
      {"o_ack", Kind::kTime},
      {"o_send_intra", Kind::kTime},
      {"o_recv_intra", Kind::kTime},
      {"nsr_handling_per_msg", Kind::kTime},
      {"o_put", Kind::kTime},
      {"o_get", Kind::kTime},
      {"o_flush", Kind::kTime},
      {"o_coll_base", Kind::kTime},
      {"o_coll_per_neighbor", Kind::kTime},
      {"o_reduce_hop", Kind::kTime},
      {"o_coll_persistent_start", Kind::kTime},
      {"compute_per_edge", Kind::kTime},
      {"compute_per_vertex", Kind::kTime},
      {"copy_per_byte", Kind::kTime},
      {"copy_per_kib", Kind::kTime},
  };
  return kFields;
}

std::string canonical_param_name(std::string_view name_or_alias) {
  // LogGP spellings the paper and the replay CLI use.
  if (name_or_alias == "L_intra") return "alpha_intra";
  if (name_or_alias == "L_inter") return "alpha_inter";
  if (name_or_alias == "G_intra") return "beta_intra";
  if (name_or_alias == "G_inter") return "beta_inter";
  if (name_or_alias == "o") return "o_send";
  if (name_or_alias == "P") return "ranks_per_node";
  Params scratch;
  if (ref_valid(field_ref(scratch, name_or_alias))) {
    return std::string(name_or_alias);
  }
  return {};
}

bool get_param(const Params& p, std::string_view name, double& out) {
  const FieldRef r = field_ref(const_cast<Params&>(p), name);
  if (!ref_valid(r)) return false;
  switch (r.kind) {
    case Kind::kInt: out = static_cast<double>(*r.i); break;
    case Kind::kTime: out = static_cast<double>(*r.t); break;
    case Kind::kDouble: out = *r.d; break;
  }
  return true;
}

void set_param(Params& p, std::string_view name, double value) {
  const FieldRef r = field_ref(p, name);
  if (!ref_valid(r)) {
    throw std::invalid_argument("unknown net parameter: " + std::string(name));
  }
  // The range an integral field can hold: [lo, hi). NaN fails both tests.
  const double lo = r.kind == Kind::kInt ? std::numeric_limits<int>::min()
                                         : -0x1p63;
  const double hi = r.kind == Kind::kInt ? 0x1p31 : 0x1p63;
  if (r.kind != Kind::kDouble && !(value >= lo && value < hi)) {
    std::ostringstream os;
    os << "net parameter " << name << " does not fit its integral field, got "
       << value;
    throw std::invalid_argument(os.str());
  }
  if (r.kind != Kind::kDouble && value != std::floor(value)) {
    throw std::invalid_argument("net parameter " + std::string(name) +
                                " is integral (ns), got a fractional value");
  }
  switch (r.kind) {
    case Kind::kInt: *r.i = static_cast<int>(value); break;
    case Kind::kTime: *r.t = static_cast<Time>(value); break;
    case Kind::kDouble: *r.d = value; break;
  }
}

std::string params_to_json(const Params& p) {
  std::string out = "{";
  bool first = true;
  for (const ParamField& f : param_fields()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += f.name;
    out += "\":";
    double v = 0.0;
    (void)get_param(p, f.name, v);
    if (f.kind == Kind::kDouble) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += buf;
    } else {
      out += std::to_string(static_cast<long long>(v));
    }
  }
  out += "}";
  return out;
}

}  // namespace mel::net
