// mellint CLI — see lint.hpp for the rule set and suppression syntax.
//
// Exit codes: 0 clean, 1 findings reported, 2 usage / IO error. CI runs
// `mellint --json src tools bench` as a gate.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using namespace mel;

int usage(std::FILE* to) {
  std::fputs(
      "usage: mellint [options] <path>...\n"
      "\n"
      "Determinism & concurrency static analysis for the mel tree.\n"
      "Scans .cpp/.cc/.cxx/.hpp/.h/.hh/.ipp under the given paths.\n"
      "\n"
      "options:\n"
      "  --json                 machine-readable report on stdout\n"
      "  --rules <r1,r2,...>    run only these rules (ids or R1..R5)\n"
      "  --list-rules           print the rule table and exit\n"
      "  --help                 this text\n"
      "\n"
      "Suppress a finding in source with\n"
      "  // mellint: allow(<rule>) — <reason>\n"
      "on the offending line or a standalone comment just above it. A\n"
      "suppression without a reason is reported and does not suppress.\n",
      to);
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  lint::Options opts;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mellint: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--json") {
      json = true;
    } else if (arg == "--rules") {
      std::stringstream ss(value("--rules"));
      std::string name;
      while (std::getline(ss, name, ',')) {
        const std::string canon = lint::canonical_rule(name);
        if (canon.empty()) {
          std::fprintf(stderr, "mellint: unknown rule '%s'\n", name.c_str());
          return 2;
        }
        opts.rules.push_back(canon);
      }
    } else if (arg == "--list-rules") {
      for (const std::string& r : lint::all_rules()) {
        std::printf("%-20s %s\n", r.c_str(),
                    std::string(lint::rule_description(r)).c_str());
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mellint: unknown flag '%s'\n", arg.c_str());
      return usage(stderr);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fputs("mellint: no paths given\n", stderr);
    return usage(stderr);
  }

  std::vector<std::string> errors;
  const std::vector<std::string> files = lint::collect_files(paths, &errors);
  const std::vector<lint::Finding> findings =
      lint::lint_files(files, opts, &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "mellint: %s\n", e.c_str());
  }
  if (!errors.empty()) return 2;

  if (json) {
    std::fputs(
        lint::findings_to_json(findings, static_cast<int>(files.size()))
            .c_str(),
        stdout);
  } else {
    for (const lint::Finding& f : findings) {
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    }
    std::printf("mellint: %zu files, %zu finding%s reported\n", files.size(),
                findings.size(), findings.size() == 1 ? "" : "s");
  }
  return findings.empty() ? 0 : 1;
}
