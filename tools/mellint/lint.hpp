// mellint — determinism & concurrency static analysis for the mel tree.
//
// The multithreaded-DES roadmap item (ROADMAP.md item 1) requires
// bit-identical traces at any thread count. The trace-hash pin tests catch
// a determinism break only *after* it ships; mellint catches the hazard
// classes that cause them at lint time, before a backend or app ever runs:
//
//   R1 unordered-container  std::unordered_{map,set,multimap,multiset} in
//                           simulation-path code (iteration order is
//                           implementation-defined and seed-dependent)
//   R2 wallclock            wall-clock / entropy reads outside the
//                           host-profiling allowlist (src/prof)
//   R3 mutable-static       non-atomic shared state in the determinism
//                           core (src/runtime, src/mpi, src/net, src/ft):
//                           mutable namespace-scope / static storage,
//                           thread_local storage, atomics (race-free but
//                           order-nondeterministic), and classes owning
//                           worker threads whose other members are
//                           de-facto shared. Bare synchronization
//                           primitives (mutex, once_flag, barrier, ...)
//                           are exempt — they guard state, they are not
//                           state.
//   R4 pointer-order        ordering or hashing by pointer value
//                           (std::hash<T*>, map/set keyed on T*, ...)
//                           — address-dependent, differs run to run
//   R5 global-cache         the same hazards anywhere else, unless
//                           justified with a mellint suppression;
//                           non-core atomics are additionally exempt
//
// Findings can be silenced per line with
//     // mellint: allow(<rule>[, <rule>...]) — <reason>
// (same line, or a standalone comment on the line above). A suppression
// without a reason does not suppress and is itself reported
// (rule `bad-suppression`): the justification is the point.
//
// Like mel::obs's JSON layer, the analysis is dependency-free: a
// hand-rolled tokenizer plus a lightweight brace/scope tracker, no
// libclang. That costs precision (see the heuristics documented in
// lint.cpp) and buys a tool that builds anywhere the tree builds.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mel::lint {

// -- Rules -------------------------------------------------------------------

inline constexpr std::string_view kRuleUnordered = "unordered-container";
inline constexpr std::string_view kRuleWallclock = "wallclock";
inline constexpr std::string_view kRuleMutableStatic = "mutable-static";
inline constexpr std::string_view kRulePointerOrder = "pointer-order";
inline constexpr std::string_view kRuleGlobalCache = "global-cache";
inline constexpr std::string_view kRuleBadSuppression = "bad-suppression";

/// Every rule id, in R1..R5 + bad-suppression order.
const std::vector<std::string>& all_rules();

/// Canonical id for `name`, accepting the R1..R5 aliases (any case).
/// Returns "" for unknown names.
std::string canonical_rule(std::string_view name);

/// One-line human description of a rule id ("" for unknown).
std::string_view rule_description(std::string_view rule);

// -- Findings ----------------------------------------------------------------

struct Finding {
  std::string file;     ///< normalized path, as scanned
  int line = 0;         ///< 1-based
  std::string rule;     ///< canonical rule id
  std::string message;  ///< human diagnostic (no file:line prefix)
};

struct Options {
  /// Canonical rule ids to run; empty means all. `bad-suppression` always
  /// runs (a broken suppression must never silently pass).
  std::vector<std::string> rules;

  /// Path fragments whose files may read host clocks / entropy (R2).
  std::vector<std::string> wallclock_allowlist = {"src/prof/"};

  /// Path fragments forming the determinism core: mutable static state
  /// here is R3 (hard error class); elsewhere it is R5 (needs a reason).
  std::vector<std::string> core_dirs = {"src/runtime/", "src/mpi/",
                                        "src/net/", "src/ft/"};
};

/// Lint one translation unit. `path` is used for reporting and for the
/// dir-scoped rules (R2 allowlist, R3-vs-R5 split); it need not exist on
/// disk. Findings are sorted by line.
std::vector<Finding> lint_source(std::string_view path, std::string_view src,
                                 const Options& opts = {});

/// Lint files on disk. Unreadable files produce a diagnostic in `errors`.
std::vector<Finding> lint_files(const std::vector<std::string>& files,
                                const Options& opts,
                                std::vector<std::string>* errors);

/// Expand files/directories into the sorted list of lintable sources
/// (.cpp .cc .cxx .hpp .h .hh .ipp), normalized to forward slashes.
/// Nonexistent paths produce a diagnostic in `errors`.
std::vector<std::string> collect_files(const std::vector<std::string>& paths,
                                       std::vector<std::string>* errors);

// -- Output ------------------------------------------------------------------

/// Machine-readable report (stable field order, sorted findings).
std::string findings_to_json(const std::vector<Finding>& findings,
                             int files_scanned);

}  // namespace mel::lint
