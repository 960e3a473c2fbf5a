// Shared helpers for the per-table/figure bench binaries.
//
// Every bench prints the rows the corresponding paper table/figure
// reports. Absolute times come from the simulator's Cori-like cost model;
// EXPERIMENTS.md compares shapes against the paper. Every bench reads
//   --scale N    shift all input sizes by 2^N (default 0 = bench default)
// and every bench that prints through emit() reads
//   --csv        emit CSV instead of an aligned table
// Each bench names the options it reads when it builds its util::Cli, so
// any other option exits 2.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "mel/gen/generators.hpp"
#include "mel/gen/registry.hpp"
#include "mel/match/driver.hpp"
#include "mel/match/verify.hpp"
#include "mel/util/cli.hpp"
#include "mel/util/table.hpp"

namespace mel::bench {

/// The three models the paper's figures compare; match::kAllModels has all
/// ten.
inline const std::vector<match::Model> kPaperModels = {
    match::Model::kNsr, match::Model::kRma, match::Model::kNcl};

/// Run one model and verify the result against the serial matcher; abort
/// loudly if the distributed matching is wrong (a bench must never report
/// timings for an incorrect run).
inline match::RunResult run_verified(const graph::Csr& g, int ranks,
                                     match::Model model,
                                     const match::RunConfig& cfg = {}) {
  auto run = match::run_match(g, ranks, model, cfg);
  if (!match::is_valid_matching(g, run.matching.mate)) {
    std::fprintf(stderr, "FATAL: %s produced an invalid matching\n",
                 match::model_name(model));
    std::abort();
  }
  const auto serial = match::serial_half_approx(g);
  if (serial.mate != run.matching.mate) {
    std::fprintf(stderr, "FATAL: %s diverged from the serial matching\n",
                 match::model_name(model));
    std::abort();
  }
  return run;
}

inline void emit(const util::Cli& cli, const util::Table& table) {
  std::printf("%s", cli.get_bool("csv", false) ? table.to_csv().c_str()
                                               : table.to_string().c_str());
}

inline std::string fmt_speedup(double base, double t) {
  return util::fmt_double(base / t, 2) + "x";
}

}  // namespace mel::bench
