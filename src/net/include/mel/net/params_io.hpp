// Named-field access and canonical JSON serialization for net::Params.
//
// The observability layer embeds the full parameter set in every trace
// (obs::Recorder metadata header) so a trace file alone is replayable,
// and `meltrace replay --set net.KEY=VALUE` re-prices a recorded run
// under substituted values. Both sides go through this table, so the
// set of replayable knobs is exactly the set of serialized ones.
//
// The chaos config is deliberately NOT part of the table: chaos shows up
// in a trace as realized per-message residuals (jitter, retransmit
// delays), which the replayer carries verbatim rather than re-sampling.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mel/net/network.hpp"

namespace mel::net {

/// One serializable/settable Params field.
struct ParamField {
  const char* name;  // canonical key, e.g. "alpha_inter"
  enum class Kind { kInt, kTime, kDouble } kind;
};

/// Every named field, in canonical (serialization) order.
const std::vector<ParamField>& param_fields();

/// Resolve a canonical name or LogGP-style alias (L_intra/L_inter ->
/// alpha_*, G_intra/G_inter -> beta_*, o -> o_send, P -> ranks_per_node)
/// to the canonical field name; empty when unknown.
std::string canonical_param_name(std::string_view name_or_alias);

/// Read a field by canonical name into `out` (Time/int fields are exactly
/// representable as double at their calibrated magnitudes). False when
/// the name is unknown.
bool get_param(const Params& p, std::string_view name, double& out);

/// Set a field by canonical name. Throws std::invalid_argument on an
/// unknown name, or on a value an integral field cannot hold exactly
/// (fractional, non-finite or out of range). The cost model's domain is
/// checked where it is used: net::Network's constructor.
void set_param(Params& p, std::string_view name, double value);

/// Canonical JSON object: every field from param_fields() in order, Time
/// and int fields as JSON integers, double fields printed with %.17g so
/// a strtod round trip is bit-exact. Identical Params always produce
/// identical bytes.
std::string params_to_json(const Params& p);

}  // namespace mel::net
