#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "mel/obs/json.hpp"

namespace mel::lint {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer. Comments are kept as tokens (suppressions live there);
// strings, char literals, and preprocessor lines are kept too, so rules
// can deliberately skip them — a hazard identifier inside a string or an
// #include never fires.
// ---------------------------------------------------------------------------

enum class Tk {
  kIdent,
  kNumber,
  kPunct,
  kString,
  kChar,
  kComment,  // text excludes the // or /* */ markers
  kPp,       // whole directive, continuations folded in
};

struct Token {
  Tk kind;
  std::string text;
  int line;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  bool at_line_start = true;  // only whitespace seen so far on this line

  auto advance_line = [&](char c) {
    if (c == '\n') {
      ++line;
      at_line_start = true;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      advance_line(c);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: '#' first on the line, through continuations.
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          text += ' ';
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        text += src[i++];
      }
      out.push_back({Tk::kPp, std::move(text), start_line});
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      i += 2;
      std::string text;
      while (i < n && src[i] != '\n') text += src[i++];
      out.push_back({Tk::kComment, std::move(text), line});
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      i += 2;
      std::string text;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        advance_line(src[i]);
        text += src[i++];
      }
      i = (i + 1 < n) ? i + 2 : n;
      out.push_back({Tk::kComment, std::move(text), start_line});
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(' && src[j] != '\n') delim += src[j++];
      if (j < n && src[j] == '(') {
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = src.find(closer, j + 1);
        const std::size_t stop = end == std::string_view::npos
                                     ? n
                                     : end + closer.size();
        const int start_line = line;
        for (std::size_t k = i; k < stop; ++k) advance_line(src[k]);
        out.push_back({Tk::kString,
                       std::string(src.substr(i, stop - i)), start_line});
        i = stop;
        continue;
      }
    }
    // String / char literals (with escapes).
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      std::string text(1, quote);
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          text += src[i];
          text += src[i + 1];
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;  // unterminated; don't eat the file
        text += src[i++];
      }
      if (i < n && src[i] == quote) {
        text += quote;
        ++i;
      }
      out.push_back({quote == '"' ? Tk::kString : Tk::kChar, std::move(text),
                     start_line});
      continue;
    }
    if (ident_start(c)) {
      std::string text;
      while (i < n && ident_char(src[i])) text += src[i++];
      out.push_back({Tk::kIdent, std::move(text), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::string text;
      while (i < n && (ident_char(src[i]) || src[i] == '.' ||
                       src[i] == '\'')) {
        text += src[i++];
      }
      out.push_back({Tk::kNumber, std::move(text), line});
      continue;
    }
    // Punctuation: '::' and '->' matter as units; everything else single.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.push_back({Tk::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.push_back({Tk::kPunct, "->", line});
      i += 2;
      continue;
    }
    out.push_back({Tk::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scope tracking. A lightweight brace classifier: good enough to tell
// "namespace scope" (where a mutable declaration is a hazard) from class
// bodies, function bodies, and brace initializers. File scope counts as
// namespace scope.
// ---------------------------------------------------------------------------

enum class Scope { kNamespace, kClass, kFunction, kBlock, kInit };

bool is_code(const Token& t) {
  return t.kind == Tk::kIdent || t.kind == Tk::kNumber ||
         t.kind == Tk::kPunct;
}

struct ScopeInfo {
  /// Innermost scope enclosing token i (the '{' / '}' tokens themselves
  /// get the outer scope).
  std::vector<Scope> at;
  /// For '{' tokens only: the scope that brace opens.
  std::vector<Scope> opened;
};

ScopeInfo annotate_scopes(const std::vector<Token>& toks) {
  ScopeInfo info;
  info.at.assign(toks.size(), Scope::kNamespace);
  info.opened.assign(toks.size(), Scope::kBlock);
  std::vector<Scope>& out = info.at;
  std::vector<Scope> stack{Scope::kNamespace};
  bool saw_namespace = false;   // since last statement boundary
  bool saw_class = false;
  bool saw_extern_str = false;  // extern "C"
  std::string prev;             // previous significant code token text

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    out[i] = stack.back();
    if (t.kind == Tk::kString) {
      if (prev == "extern") saw_extern_str = true;
      continue;
    }
    if (!is_code(t)) continue;
    if (t.kind == Tk::kPunct && t.text == "{") {
      Scope kind;
      const Scope top = stack.back();
      if (prev == "=" || prev == "," || prev == "(" || prev == "{" ||
          prev == "return") {
        kind = Scope::kInit;
      } else if (saw_class) {
        kind = Scope::kClass;
      } else if (saw_namespace || saw_extern_str) {
        kind = Scope::kNamespace;
      } else if (top == Scope::kNamespace || top == Scope::kClass) {
        // Distinguish a function body from a braced variable initializer.
        const bool function_ish = prev == ")" || prev == "noexcept" ||
                                  prev == "const" || prev == "override" ||
                                  prev == "final" || prev == "try" ||
                                  prev == ">";
        kind = function_ish ? Scope::kFunction : Scope::kInit;
      } else {
        kind = Scope::kBlock;
      }
      info.opened[i] = kind;
      stack.push_back(kind);
      saw_namespace = saw_class = saw_extern_str = false;
      prev = "{";
      continue;
    }
    if (t.kind == Tk::kPunct && t.text == "}") {
      if (stack.size() > 1) stack.pop_back();
      saw_namespace = saw_class = saw_extern_str = false;
      prev = "}";
      continue;
    }
    if (t.kind == Tk::kIdent) {
      if (t.text == "namespace") saw_namespace = true;
      if (t.text == "struct" || t.text == "class" || t.text == "union" ||
          t.text == "enum") {
        saw_class = true;
      }
    }
    if (t.kind == Tk::kPunct && t.text == ";") {
      saw_namespace = saw_class = saw_extern_str = false;
    }
    prev = t.text;
  }
  return info;
}

// ---------------------------------------------------------------------------
// Suppressions:  // mellint: allow(rule[, rule...]) — reason
// ---------------------------------------------------------------------------

struct Suppression {
  int line;                        // line the suppression covers
  std::set<std::string> rules;     // canonical ids
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Strip leading separator junk from a reason: spaces, ASCII dashes and
/// colons, and the UTF-8 em/en dashes (E2 80 93/94).
std::string strip_reason(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size()) {
    const unsigned char c = static_cast<unsigned char>(s[b]);
    if (c == ' ' || c == '\t' || c == '-' || c == ':' || c == ',') {
      ++b;
      continue;
    }
    if (c == 0xE2 && b + 2 < s.size() &&
        static_cast<unsigned char>(s[b + 1]) == 0x80 &&
        (static_cast<unsigned char>(s[b + 2]) == 0x93 ||
         static_cast<unsigned char>(s[b + 2]) == 0x94)) {
      b += 3;
      continue;
    }
    break;
  }
  return trim(s.substr(b));
}

/// Parse suppressions out of comment tokens. A comment that shares its
/// line with code covers that line; a standalone comment covers the next
/// line that carries code. Malformed suppressions (unknown rule, missing
/// reason) do not suppress and are reported as `bad-suppression`.
std::vector<Suppression> parse_suppressions(const std::vector<Token>& toks,
                                            std::vector<Finding>* findings,
                                            std::string_view path) {
  // Lines that carry code, for standalone-comment targeting.
  std::set<int> code_lines;
  std::map<int, int> first_code_col;  // line -> index of first code token
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_code(toks[i]) || toks[i].kind == Tk::kString ||
        toks[i].kind == Tk::kChar) {
      if (code_lines.insert(toks[i].line).second) {
        first_code_col[toks[i].line] = static_cast<int>(i);
      }
    }
  }

  std::vector<Suppression> out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tk::kComment) continue;
    // A directive must start the comment (`// mellint: ...`); prose that
    // merely *mentions* the syntax (docs, this file) is not a directive.
    const std::string body = trim(t.text);
    if (body.rfind("mellint:", 0) != 0) continue;
    std::string rest = trim(std::string_view(body).substr(8));
    const bool is_allow = rest.rfind("allow", 0) == 0;
    if (!is_allow) {
      findings->push_back({std::string(path), t.line,
                           std::string(kRuleBadSuppression),
                           "unrecognized mellint directive (expected "
                           "`mellint: allow(<rule>) — <reason>`)"});
      continue;
    }
    const std::size_t open = rest.find('(');
    const std::size_t close = rest.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      findings->push_back({std::string(path), t.line,
                           std::string(kRuleBadSuppression),
                           "malformed allow(): missing rule list"});
      continue;
    }
    Suppression sup;
    bool ok = true;
    std::stringstream rules(rest.substr(open + 1, close - open - 1));
    std::string name;
    while (std::getline(rules, name, ',')) {
      const std::string canon = canonical_rule(trim(name));
      if (canon.empty()) {
        findings->push_back({std::string(path), t.line,
                             std::string(kRuleBadSuppression),
                             "allow() names unknown rule '" + trim(name) +
                                 "'"});
        ok = false;
        break;
      }
      sup.rules.insert(canon);
    }
    if (!ok) continue;
    if (sup.rules.empty()) {
      findings->push_back({std::string(path), t.line,
                           std::string(kRuleBadSuppression),
                           "allow() names no rules"});
      continue;
    }
    const std::string reason = strip_reason(rest.substr(close + 1));
    if (reason.empty()) {
      findings->push_back(
          {std::string(path), t.line, std::string(kRuleBadSuppression),
           "suppression has no justification — add `— <reason>` after "
           "allow(...); an unjustified suppression does not suppress"});
      continue;
    }
    // Standalone comment (no code earlier on its line) covers the next
    // code-bearing line; otherwise it covers its own line.
    const bool standalone =
        !code_lines.count(t.line) ||
        toks[static_cast<std::size_t>(first_code_col[t.line])].line !=
            t.line ||
        first_code_col[t.line] > static_cast<int>(i);
    sup.line = t.line;
    if (standalone) {
      const auto next = code_lines.upper_bound(t.line);
      if (next != code_lines.end()) sup.line = *next;
    }
    out.push_back(std::move(sup));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule helpers.
// ---------------------------------------------------------------------------

bool path_matches(std::string_view path, const std::vector<std::string>& frags) {
  for (const std::string& f : frags) {
    if (path.find(f) != std::string_view::npos) return true;
    // Also accept a fragment that is a prefix, e.g. allowlist "src/prof/"
    // matching the file "src/prof/prof.cpp" passed without a parent dir.
    if (!f.empty() && path.rfind(f, 0) == 0) return true;
  }
  return false;
}

const std::set<std::string>& unordered_names() {
  static const std::set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kNames;
}

const std::set<std::string>& clock_names() {
  static const std::set<std::string> kNames = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "random_device",  "gettimeofday", "clock_gettime",
      "timespec_get",   "mt19937",      "mt19937_64",
  };
  return kNames;
}

/// Pure synchronization primitives: a bare static mutex/flag/latch carries
/// no data, so it is not shared *state* — it is the synchronization that
/// guards state. These are exempt from R3/R5 everywhere. (Only top-level
/// type names count: `std::vector<std::mutex>` is still a container and
/// still fires.)
const std::set<std::string>& sync_only_names() {
  static const std::set<std::string> kNames = {
      "mutex",
      "timed_mutex",
      "recursive_mutex",
      "recursive_timed_mutex",
      "shared_mutex",
      "shared_timed_mutex",
      "once_flag",
      "condition_variable",
      "condition_variable_any",
      "barrier",
      "latch",
      "counting_semaphore",
      "binary_semaphore",
  };
  return kNames;
}

/// std::atomic and its aliases (atomic_flag, atomic_int, ...). Race-free
/// by construction, so outside the determinism core an atomic global needs
/// no justification (R5 exempt). Inside the core it stays reportable:
/// the *observed value* of an atomic still depends on host thread
/// interleaving, and if it feeds a virtual-time decision the trace
/// diverges between runs — the allow() must argue it never does.
bool atomic_name(const std::string& s) { return s.rfind("atomic", 0) == 0; }

/// Index of the previous / next code token (skipping comments, strings,
/// pp lines), or -1 / toks.size() when none.
int prev_code(const std::vector<Token>& toks, std::size_t i) {
  for (int j = static_cast<int>(i) - 1; j >= 0; --j) {
    if (is_code(toks[static_cast<std::size_t>(j)])) return j;
  }
  return -1;
}
std::size_t next_code(const std::vector<Token>& toks, std::size_t i) {
  for (std::size_t j = i + 1; j < toks.size(); ++j) {
    if (is_code(toks[j])) return j;
  }
  return toks.size();
}

struct RuleCtx {
  std::string_view path;
  const Options& opts;
  std::vector<Finding>* findings;
  bool in_core;  // path is under src/runtime, src/mpi, src/net, src/ft

  void add(std::string_view rule, int line, std::string message) const {
    findings->push_back(
        {std::string(path), line, std::string(rule), std::move(message)});
  }
};

// R1: std::unordered_* anywhere in simulation-path code. The rule fires
// on *use* rather than trying to prove iteration: a container that is
// genuinely membership-only should either become an ordered container
// (free determinism) or carry an allow() with the order-insensitivity
// argument written down.
void rule_unordered(const std::vector<Token>& toks, const RuleCtx& ctx) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tk::kIdent || !unordered_names().count(t.text)) continue;
    ctx.add(kRuleUnordered, t.line,
            "std::" + t.text +
                ": iteration order is implementation-defined and differs "
                "across runs/platforms; use an ordered container or sorted "
                "traversal, or allow() with an order-insensitivity argument");
  }
}

// R2: wall-clock / entropy reads outside the host-profiling allowlist.
void rule_wallclock(const std::vector<Token>& toks, const RuleCtx& ctx) {
  if (path_matches(ctx.path, ctx.opts.wallclock_allowlist)) return;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tk::kIdent) continue;
    if (clock_names().count(t.text)) {
      ctx.add(kRuleWallclock, t.line,
              t.text +
                  ": host clock / entropy makes runs irreproducible; "
                  "simulation code must use virtual time (sim::Time) and "
                  "util::Rng seeds (host profiling belongs in src/prof)");
      continue;
    }
    const bool rand_like = t.text == "rand" || t.text == "srand";
    const bool time_like = t.text == "time" || t.text == "clock";
    if (!rand_like && !time_like) continue;
    const std::size_t nx = next_code(toks, i);
    if (nx >= toks.size() || toks[nx].text != "(") continue;
    const int pv = prev_code(toks, i);
    const Token* prev = pv >= 0 ? &toks[static_cast<std::size_t>(pv)] : nullptr;
    if (prev != nullptr) {
      // `foo.time(...)` / `foo->clock(...)` are member calls on our own
      // types; `Time time(...)` / `int clock(...)` are declarations.
      if (prev->text == "." || prev->text == "->" ||
          prev->kind == Tk::kIdent || prev->text == ">" ||
          prev->text == "&" || prev->text == "*") {
        continue;
      }
      if (prev->text == "::") {
        const int pv2 = prev_code(toks, static_cast<std::size_t>(pv));
        if (pv2 >= 0 && toks[static_cast<std::size_t>(pv2)].kind ==
                            Tk::kIdent &&
            toks[static_cast<std::size_t>(pv2)].text != "std") {
          continue;  // some_namespace::time(...) — not libc
        }
      }
    }
    ctx.add(kRuleWallclock, t.line,
            t.text + "(): C wall-clock/PRNG call is nondeterministic "
                     "across runs; use sim::Time / util::Rng");
  }
}

// R3/R5 detector A: `static` storage that is not const/constexpr. A
// heuristic token scan: after `static`, the first of `(` `;` `=` `{`
// (ignoring template argument lists) decides — `(` means a function
// declaration, anything else a variable. Known blind spot, documented in
// README: function-style initializers `static Foo f(arg);` parse as
// declarations and are missed; brace-init `static Foo f{arg};` is caught.
void rule_static(const std::vector<Token>& toks, const RuleCtx& ctx) {
  const std::string_view rule =
      ctx.in_core ? kRuleMutableStatic : kRuleGlobalCache;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tk::kIdent || t.text != "static") continue;
    int angle = 0;
    bool immutable = false;
    bool is_function = false;
    bool terminated = false;
    bool sync_only = false;
    bool is_atomic = false;
    bool is_tls = false;
    for (std::size_t j = i + 1; j < toks.size() && j < i + 64; ++j) {
      const Token& u = toks[j];
      if (!is_code(u)) continue;
      if (u.text == "<") ++angle;
      if (u.text == ">") angle = std::max(0, angle - 1);
      if (angle > 0) continue;
      if (u.kind == Tk::kIdent &&
          (u.text == "const" || u.text == "constexpr")) {
        immutable = true;
        break;
      }
      if (u.kind == Tk::kIdent) {
        if (u.text == "thread_local") is_tls = true;
        if (sync_only_names().count(u.text)) sync_only = true;
        if (atomic_name(u.text)) is_atomic = true;
      }
      if (u.text == "(") {
        is_function = true;
        terminated = true;
        break;
      }
      if (u.text == ";" || u.text == "=" || u.text == "{") {
        terminated = true;
        break;
      }
    }
    if (immutable || is_function || !terminated) continue;
    if (is_tls) continue;  // rule_thread_local owns thread_local storage
    if (sync_only) continue;
    if (is_atomic && !ctx.in_core) continue;
    if (is_atomic) {
      ctx.add(rule, t.line,
              "atomic static in the determinism core: race-free, but the "
              "observed value still depends on host thread interleaving — "
              "if it ever feeds a virtual-time decision the trace diverges; "
              "allow() must argue it never does");
      continue;
    }
    ctx.add(rule, t.line,
            ctx.in_core
                ? "mutable static storage in the determinism core: shared "
                  "state breaks bit-identical traces the moment DES shards "
                  "run concurrently; thread it through an explicit context"
                : "mutable static (cache/registry?) — fine single-threaded, "
                  "a data race under the threaded DES; justify with "
                  "allow(global-cache) and a thread-safety plan, or remove");
  }
}

// R3/R5 detector C: thread_local storage. Per-host-thread state in the
// determinism core means behaviour can depend on the rank -> shard -> host
// thread mapping, which changes with --threads; even routing-only uses
// must carry the no-virtual-time-effect argument in an allow().
void rule_thread_local(const std::vector<Token>& toks, const RuleCtx& ctx) {
  const std::string_view rule =
      ctx.in_core ? kRuleMutableStatic : kRuleGlobalCache;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tk::kIdent || t.text != "thread_local") continue;
    // const/constexpr may precede the keyword (`const thread_local ...`).
    bool immutable = false;
    for (int j = static_cast<int>(i) - 1; j >= 0; --j) {
      const Token& u = toks[static_cast<std::size_t>(j)];
      if (!is_code(u)) continue;
      if (u.text == ";" || u.text == "{" || u.text == "}") break;
      if (u.text == "const" || u.text == "constexpr") immutable = true;
    }
    int angle = 0;
    bool terminated = false;
    for (std::size_t j = i + 1; j < toks.size() && j < i + 64; ++j) {
      const Token& u = toks[j];
      if (!is_code(u)) continue;
      if (u.text == "<") ++angle;
      if (u.text == ">") angle = std::max(0, angle - 1);
      if (angle > 0) continue;
      if (u.kind == Tk::kIdent &&
          (u.text == "const" || u.text == "constexpr")) {
        immutable = true;
        break;
      }
      if (u.text == ";" || u.text == "=" || u.text == "{") {
        terminated = true;
        break;
      }
    }
    if (immutable || !terminated) continue;
    ctx.add(rule, t.line,
            ctx.in_core
                ? "thread_local in the determinism core: per-host-thread "
                  "state ties behaviour to the rank->shard mapping, which "
                  "changes with --threads; routing-only state needs an "
                  "allow() arguing it never affects virtual time"
                : "thread_local global: hidden per-thread state that "
                  "diverges under the threaded DES; justify with "
                  "allow(global-cache) or pass explicit context");
  }
}

// R3/R5 detector D: a class that owns worker threads (std::thread /
// std::jthread members). Every other member of such a class is de-facto
// shared state across those threads; the allow() on the member should
// name the synchronization discipline (barriers, phases, mutex) that
// keeps non-atomic members race-free.
void rule_thread_owner(const std::vector<Token>& toks,
                       const ScopeInfo& scopes, const RuleCtx& ctx) {
  const std::string_view rule =
      ctx.in_core ? kRuleMutableStatic : kRuleGlobalCache;
  int last_line = -1;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tk::kIdent ||
        (t.text != "thread" && t.text != "jthread")) {
      continue;
    }
    if (scopes.at[i] != Scope::kClass) continue;
    // Only the type use `std::thread` / `std::jthread` counts; plain
    // identifiers named `thread` and member functions do not.
    const int pv = prev_code(toks, i);
    if (pv < 0 || toks[static_cast<std::size_t>(pv)].text != "::") continue;
    // Member *data* only: a '(' or ')' before the declaration ends marks
    // a member function (factory returning std::thread, or a parameter).
    int angle = 0;
    bool is_function = false;
    bool terminated = false;
    for (std::size_t j = i + 1; j < toks.size() && j < i + 64; ++j) {
      const Token& u = toks[j];
      if (!is_code(u)) continue;
      if (u.text == "<") ++angle;
      if (u.text == ">") angle = std::max(0, angle - 1);
      if (angle > 0) continue;
      if (u.text == "(" || u.text == ")") {
        is_function = true;
        terminated = true;
        break;
      }
      if (u.text == ";" || u.text == "=" || u.text == "{") {
        terminated = true;
        break;
      }
    }
    if (is_function || !terminated) continue;
    if (t.line == last_line) continue;
    last_line = t.line;
    ctx.add(rule, t.line,
            "class owns worker threads (std::" + t.text +
                " member): its other members are shared state across those "
                "threads; allow() here must name the synchronization "
                "discipline that keeps non-atomic members race-free");
  }
}

// R3/R5 detector B: mutable non-static declarations at namespace scope.
void rule_namespace_globals(const std::vector<Token>& toks,
                            const ScopeInfo& scopes, const RuleCtx& ctx) {
  const std::string_view rule =
      ctx.in_core ? kRuleMutableStatic : kRuleGlobalCache;
  std::size_t stmt_begin = 0;
  int init_depth = 0;  // inside `= { ... }` / `T x{...}` initializer braces
  for (std::size_t i = 0; i <= toks.size(); ++i) {
    const bool at_end = i == toks.size();
    if (!at_end && toks[i].kind == Tk::kPunct) {
      // Initializer braces belong to the statement; only scope-opening
      // braces (namespace/class/function bodies) terminate it.
      if (toks[i].text == "{" && scopes.opened[i] == Scope::kInit) {
        ++init_depth;
        continue;
      }
      if (toks[i].text == "}" && init_depth > 0) {
        --init_depth;
        continue;
      }
    }
    const bool boundary =
        at_end || (init_depth == 0 && toks[i].kind == Tk::kPunct &&
                   (toks[i].text == ";" || toks[i].text == "{" ||
                    toks[i].text == "}"));
    if (!boundary) continue;
    const bool ends_with_semi = !at_end && toks[i].text == ";";
    // Analyze the statement [stmt_begin, i) if it sits at namespace scope.
    do {
      if (!ends_with_semi) break;  // declarations of interest end in ';'
      // Collect the statement's code tokens at namespace scope (skipping
      // the contents of initializer braces).
      std::vector<const Token*> stmt;
      bool ns_scope = true;
      for (std::size_t j = stmt_begin; j < i; ++j) {
        if (!is_code(toks[j])) continue;
        if (scopes.at[j] == Scope::kInit) continue;
        if (scopes.at[j] != Scope::kNamespace) ns_scope = false;
        stmt.push_back(&toks[j]);
      }
      if (!ns_scope || stmt.size() < 2) break;
      static const std::set<std::string> kSkipLead = {
          "namespace", "using",   "typedef", "template", "struct",
          "class",     "union",   "enum",    "concept",  "static_assert",
          "friend",    "extern",  "static",  "asm",      "requires",
      };
      if (kSkipLead.count(stmt.front()->text)) break;
      int paren_at = -1, assign_at = -1;
      bool immutable = false;
      bool sync_only = false;
      bool is_atomic = false;
      bool is_tls = false;
      int idents = 0;
      int angle = 0;
      for (std::size_t k = 0; k < stmt.size(); ++k) {
        const Token& u = *stmt[k];
        if (u.text == "<") ++angle;
        if (u.text == ">") angle = std::max(0, angle - 1);
        if (u.kind == Tk::kIdent) {
          ++idents;
          if (u.text == "const" || u.text == "constexpr") immutable = true;
          if (u.text == "operator" || kSkipLead.count(u.text)) {
            immutable = true;  // not a plain variable declaration
          }
          if (u.text == "thread_local") is_tls = true;
          if (angle == 0) {
            if (sync_only_names().count(u.text)) sync_only = true;
            if (atomic_name(u.text)) is_atomic = true;
          }
        }
        if (angle > 0) continue;
        if (u.text == "(" && paren_at < 0) paren_at = static_cast<int>(k);
        if (u.text == "=" && assign_at < 0) assign_at = static_cast<int>(k);
      }
      if (immutable || idents < 2) break;
      if (is_tls) break;  // rule_thread_local owns thread_local storage
      if (sync_only) break;
      if (is_atomic && !ctx.in_core) break;
      // A '(' before any '=' marks a function declaration/prototype.
      if (paren_at >= 0 && (assign_at < 0 || paren_at < assign_at)) break;
      ctx.add(rule, stmt.front()->line,
              ctx.in_core
                  ? "mutable namespace-scope variable in the determinism "
                    "core: implicit cross-rank/cross-shard state; pass it "
                    "through an explicit context"
                  : "mutable namespace-scope variable — hidden global "
                    "state; justify with allow(global-cache) or scope it "
                    "into an owning object");
    } while (false);
    stmt_begin = i + 1;
  }
}

// R4: ordering/hashing by pointer value.
void rule_pointer_order(const std::vector<Token>& toks, const RuleCtx& ctx) {
  static const std::set<std::string> kHashers = {"hash", "less", "greater"};
  static const std::set<std::string> kKeyed = {
      "map", "set", "multimap", "multiset",
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tk::kIdent) continue;
    const bool hasher = kHashers.count(t.text) != 0;
    const bool keyed = kKeyed.count(t.text) != 0;
    if (!hasher && !keyed) continue;
    const std::size_t open = next_code(toks, i);
    if (open >= toks.size() || toks[open].text != "<") continue;
    // Walk the template argument list. For hashers any '*' anywhere is
    // the hazard; for keyed containers only a pointer in the *first*
    // argument (the key type) is.
    int depth = 1;
    bool in_first_arg = true;
    bool star = false;
    for (std::size_t j = open + 1; j < toks.size() && depth > 0; ++j) {
      const Token& u = toks[j];
      if (!is_code(u)) continue;
      if (u.text == "<") ++depth;
      if (u.text == ">") --depth;
      if (depth == 1 && u.text == ",") in_first_arg = false;
      if (u.text == "*" && (hasher || in_first_arg)) star = true;
      if (u.text == ";" || u.text == "{") break;  // not a template list
    }
    if (!star) continue;
    ctx.add(kRulePointerOrder, t.line,
            "std::" + t.text +
                " over a pointer key orders/hashes by address — addresses "
                "differ every run (ASLR, allocator), so iteration and "
                "bucket order are nondeterministic; key by a stable id");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kAll = {
      std::string(kRuleUnordered),     std::string(kRuleWallclock),
      std::string(kRuleMutableStatic), std::string(kRulePointerOrder),
      std::string(kRuleGlobalCache),   std::string(kRuleBadSuppression)};
  return kAll;
}

std::string canonical_rule(std::string_view name) {
  std::string s(name);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (s == "r1") return std::string(kRuleUnordered);
  if (s == "r2") return std::string(kRuleWallclock);
  if (s == "r3") return std::string(kRuleMutableStatic);
  if (s == "r4") return std::string(kRulePointerOrder);
  if (s == "r5") return std::string(kRuleGlobalCache);
  for (const std::string& r : all_rules()) {
    if (s == r) return r;
  }
  return "";
}

std::string_view rule_description(std::string_view rule) {
  if (rule == kRuleUnordered)
    return "R1: std::unordered_* in simulation-path code";
  if (rule == kRuleWallclock)
    return "R2: wall-clock/entropy use outside the host-profiling allowlist";
  if (rule == kRuleMutableStatic)
    return "R3: mutable static/global state in the determinism core";
  if (rule == kRulePointerOrder)
    return "R4: ordering or hashing by pointer value";
  if (rule == kRuleGlobalCache)
    return "R5: mutable global/cache state without a justification";
  if (rule == kRuleBadSuppression)
    return "malformed or unjustified mellint suppression";
  return "";
}

std::vector<Finding> lint_source(std::string_view path, std::string_view src,
                                 const Options& opts) {
  const std::vector<Token> toks = tokenize(src);
  const ScopeInfo scopes = annotate_scopes(toks);

  std::vector<Finding> findings;
  const std::vector<Suppression> sups =
      parse_suppressions(toks, &findings, path);

  RuleCtx ctx{path, opts, &findings, path_matches(path, opts.core_dirs)};
  auto enabled = [&](std::string_view rule) {
    if (opts.rules.empty()) return true;
    return std::find(opts.rules.begin(), opts.rules.end(), rule) !=
           opts.rules.end();
  };
  if (enabled(kRuleUnordered)) rule_unordered(toks, ctx);
  if (enabled(kRuleWallclock)) rule_wallclock(toks, ctx);
  if (enabled(ctx.in_core ? kRuleMutableStatic : kRuleGlobalCache)) {
    rule_static(toks, ctx);
    rule_namespace_globals(toks, scopes, ctx);
    rule_thread_local(toks, ctx);
    rule_thread_owner(toks, scopes, ctx);
  }
  if (enabled(kRulePointerOrder)) rule_pointer_order(toks, ctx);

  // Apply suppressions (bad-suppression findings are never suppressible).
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool suppressed = false;
    if (f.rule != kRuleBadSuppression) {
      for (const Suppression& s : sups) {
        if (s.line == f.line && s.rules.count(f.rule)) {
          suppressed = true;
          break;
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return kept;
}

std::vector<Finding> lint_files(const std::vector<std::string>& files,
                                const Options& opts,
                                std::vector<std::string>* errors) {
  std::vector<Finding> out;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      if (errors) errors->push_back("cannot read " + file);
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string src = ss.str();
    std::vector<Finding> fs = lint_source(file, src, opts);
    out.insert(out.end(), std::make_move_iterator(fs.begin()),
               std::make_move_iterator(fs.end()));
  }
  return out;
}

std::vector<std::string> collect_files(const std::vector<std::string>& paths,
                                       std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExts = {".cpp", ".cc", ".cxx", ".hpp",
                                              ".h",   ".hh", ".ipp"};
  std::set<std::string> out;  // set: sorted + deduped — the scan order must
                              // itself be deterministic
  for (const std::string& p : paths) {
    std::error_code ec;
    const fs::file_status st = fs::status(p, ec);
    if (ec || st.type() == fs::file_type::not_found) {
      if (errors) errors->push_back("no such file or directory: " + p);
      continue;
    }
    if (fs::is_regular_file(st)) {
      out.insert(fs::path(p).lexically_normal().generic_string());
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(
             p, fs::directory_options::skip_permission_denied, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      const fs::path& fp = it->path();
      const std::string name = fp.filename().generic_string();
      if (it->is_directory() &&
          (name == "build" || name.rfind("build-", 0) == 0 ||
           (!name.empty() && name[0] == '.'))) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      if (kExts.count(fp.extension().generic_string())) {
        out.insert(fp.lexically_normal().generic_string());
      }
    }
    if (ec && errors) {
      errors->push_back("error walking " + p + ": " + ec.message());
    }
  }
  return {out.begin(), out.end()};
}

std::string findings_to_json(const std::vector<Finding>& findings,
                             int files_scanned) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"mellint\",\n  \"version\": 1,\n"
      << "  \"files_scanned\": " << files_scanned << ",\n"
      << "  \"reported\": " << findings.size() << ",\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"file\": \"" << obs::json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \""
        << obs::json_escape(f.rule) << "\", \"message\": \""
        << obs::json_escape(f.message) << "\"}";
  }
  out << (first ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

}  // namespace mel::lint
