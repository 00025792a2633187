// Determinism analyzer: the simulator (src/mc) and the algorithms that run
// on it (src/parallel) must be pure functions of (plan, seed). Wall clocks,
// unseeded randomness, raw threading primitives, and address-dependent
// container orders are exactly the ways that promise silently breaks, so
// they are banned in those two layers; legitimate substrate uses carry an
// explicit, justified suppression instead of reviewer folklore.
//
// Rules:
//   det-wallclock       wall/CPU clock reads inside src/mc, src/parallel
//   det-random          unseeded randomness inside src/mc, src/parallel
//   det-thread          std:: threading primitives anywhere in src/
//                       except src/exec — the execution backends are the
//                       one module where real threads are the point; the
//                       deterministic layers go through the mc
//                       substrate's virtual-time collectives instead
//   det-ptr-key         pointer-keyed std:: containers inside src/mc,
//                       src/parallel (iteration order = allocator behavior)
//   det-unordered-iter  range-for / .begin() over std::unordered_{map,set}
//                       variables in files on the result-emission or wire-
//                       serialization path (hash order escapes into bytes)
#include "lint.hpp"

#include <cstddef>

namespace eclat::lint {

namespace {

struct Ban {
  const char* ident;       ///< identifier token to match
  bool require_std;        ///< only when written std::ident
  bool require_call;       ///< only when followed by '('
  const char* id;          ///< finding id
  const char* what;        ///< message fragment
};

const Ban kBans[] = {
    // det-wallclock: reading any host clock makes virtual time depend on
    // the machine, not the plan.
    {"system_clock", false, false, "det-wallclock", "wall clock read"},
    {"steady_clock", false, false, "det-wallclock", "wall clock read"},
    {"high_resolution_clock", false, false, "det-wallclock",
     "wall clock read"},
    {"gettimeofday", false, true, "det-wallclock", "wall clock read"},
    {"clock_gettime", false, true, "det-wallclock", "raw clock read"},
    {"time", false, true, "det-wallclock", "wall clock read"},
    {"wall_ns", false, true, "det-wallclock", "wall clock read"},
    {"WallStopwatch", false, false, "det-wallclock", "wall-clock stopwatch"},
    {"thread_cpu_ns", false, true, "det-wallclock",
     "host CPU-time read (machine-dependent)"},
    {"CpuStopwatch", false, false, "det-wallclock",
     "host CPU-time stopwatch (machine-dependent)"},

    // det-random: only eclat::Rng streams forked from a plan seed are
    // allowed to produce randomness in the deterministic layers.
    {"rand", false, true, "det-random", "unseeded C randomness"},
    {"srand", false, true, "det-random", "global C RNG seeding"},
    {"random_device", false, false, "det-random", "hardware entropy source"},
    {"mt19937", false, false, "det-random",
     "std RNG engine (distribution algorithms unpinned across stdlibs)"},
    {"mt19937_64", false, false, "det-random",
     "std RNG engine (distribution algorithms unpinned across stdlibs)"},
    {"default_random_engine", false, false, "det-random",
     "implementation-defined RNG engine"},

    // det-thread: raw concurrency primitives. The simulator's collectives
    // and the lease board are the sanctioned concurrency surface.
    {"thread", true, false, "det-thread", "raw thread"},
    {"jthread", true, false, "det-thread", "raw thread"},
    {"this_thread", true, false, "det-thread", "raw thread API"},
    {"async", true, false, "det-thread", "raw task spawn"},
    {"mutex", true, false, "det-thread", "raw mutex"},
    {"recursive_mutex", true, false, "det-thread", "raw mutex"},
    {"timed_mutex", true, false, "det-thread", "raw mutex"},
    {"shared_mutex", true, false, "det-thread", "raw mutex"},
    {"lock_guard", true, false, "det-thread", "raw lock"},
    {"unique_lock", true, false, "det-thread", "raw lock"},
    {"scoped_lock", true, false, "det-thread", "raw lock"},
    {"shared_lock", true, false, "det-thread", "raw lock"},
    {"condition_variable", true, false, "det-thread", "raw condition variable"},
    {"condition_variable_any", true, false, "det-thread",
     "raw condition variable"},
    {"atomic", true, false, "det-thread", "raw atomic"},
    {"atomic_flag", true, false, "det-thread", "raw atomic"},
    {"call_once", true, false, "det-thread", "raw once-init"},
    {"once_flag", true, false, "det-thread", "raw once-init"},
    {"counting_semaphore", true, false, "det-thread", "raw semaphore"},
    {"binary_semaphore", true, false, "det-thread", "raw semaphore"},
    {"latch", true, false, "det-thread", "raw latch"},
};

const char* kOrderedContainers[] = {"map", "set", "multimap", "multiset"};
const char* kUnorderedContainers[] = {"unordered_map", "unordered_set",
                                      "unordered_multimap",
                                      "unordered_multiset"};

/// tokens[i] is directly preceded by `q ::`.
bool qualified_by(const std::vector<Token>& toks, std::size_t i,
                  const char* q) {
  return i >= 3 && is_punct(toks, i - 1, ":") && is_punct(toks, i - 2, ":") &&
         is_ident(toks, i - 3, q);
}

bool is_container(const std::vector<Token>& toks, std::size_t i,
                  bool& unordered) {
  for (const char* name : kUnorderedContainers) {
    if (is_ident(toks, i, name)) {
      unordered = true;
      return true;
    }
  }
  for (const char* name : kOrderedContainers) {
    if (is_ident(toks, i, name)) {
      unordered = false;
      return true;
    }
  }
  return false;
}

/// tokens[open] == '<'. Returns the index one past the matching '>', or
/// toks.size() when unbalanced. `first_arg_ptr` reports whether the first
/// template argument (up to the depth-1 comma) ends in '*'.
std::size_t scan_template_args(const std::vector<Token>& toks,
                               std::size_t open, bool& first_arg_ptr) {
  int depth = 0;
  bool in_first = true;
  bool last_was_star = false;
  std::size_t i = open;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<") ++depth;
      else if (t.text == ">") {
        --depth;
        if (depth == 0) { ++i; break; }
      } else if (t.text == "(") {
        // function type / default arg: skip to matching paren
        int pd = 0;
        for (; i < toks.size(); ++i) {
          if (is_punct(toks, i, "(")) ++pd;
          else if (is_punct(toks, i, ")") && --pd == 0) break;
        }
        continue;
      } else if (t.text == "," && depth == 1) {
        if (in_first) first_arg_ptr = last_was_star;
        in_first = false;
      } else if (t.text == ";") {
        break;  // unbalanced; bail out
      }
      last_was_star = (t.text == "*");
    } else {
      last_was_star = false;
    }
  }
  if (in_first) first_arg_ptr = last_was_star;
  return i;
}

void add(std::vector<Finding>& findings, const SourceFile& file, int line,
         const char* id, const std::string& message,
         const std::string& hint) {
  findings.push_back({file.path, line, id, message, hint, false, ""});
}

}  // namespace

void analyze_determinism(const SourceFile& file, bool emission_path,
                         std::vector<Finding>& findings) {
  const bool deterministic_layer =
      file.module == "mc" || file.module == "parallel";
  // Real threading primitives are legal only in src/exec (the thread
  // backend and its crew); everywhere else in src/ they are banned — the
  // deterministic layers because they must be pure functions of (plan,
  // seed), the rest because native concurrency belongs in src/exec.
  const bool thread_ban_layer =
      !file.module.empty() && file.module != "exec";
  const std::vector<Token>& toks = file.tokens;

  // Identifier names declared with an unordered container type in this
  // file (heuristic: `unordered_xxx < ... > [&*]* name`). Used by
  // det-unordered-iter below.
  std::set<std::string> unordered_vars;

  int last_ban_line = -1;  // dedup: one finding per (line, rule) pair
  std::string last_ban_id;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;

    // --- symbol bans (det-thread: all src/ modules but exec; the other
    // rules: mc / parallel only) ---
    if (deterministic_layer || thread_ban_layer) {
      for (const Ban& ban : kBans) {
        if (t.text != ban.ident) continue;
        const bool is_thread_ban = std::string(ban.id) == "det-thread";
        if (is_thread_ban ? !thread_ban_layer : !deterministic_layer) {
          continue;
        }
        if (ban.require_std && !preceded_by_std(toks, i)) continue;
        // `std::chrono::system_clock` is chrono-qualified, not foreign.
        if (!ban.require_std && is_member_or_foreign_qualified(toks, i) &&
            !qualified_by(toks, i, "chrono")) {
          continue;
        }
        if (ban.require_call && !is_punct(toks, i + 1, "(")) continue;
        if (t.line == last_ban_line && ban.id == last_ban_id) continue;
        last_ban_line = t.line;
        last_ban_id = ban.id;
        std::string hint;
        if (std::string(ban.id) == "det-wallclock") {
          hint = "charge virtual time via Processor::compute/advance; "
                 "host-time reads make makespans machine-dependent";
        } else if (std::string(ban.id) == "det-random") {
          hint = "use eclat::Rng forked from the plan seed "
                 "(common/rng.hpp)";
        } else if (deterministic_layer) {
          hint = "express concurrency through the mc substrate "
                 "(collectives, lease board) or suppress with the "
                 "substrate justification";
        } else {
          hint = "real threading primitives live in src/exec (the "
                 "thread backend and its crew); run parallel work there "
                 "instead of spawning threads in this layer";
        }
        add(findings, file, t.line, ban.id,
            std::string(ban.what) + ": " +
                (ban.require_std ? "std::" : "") + ban.ident +
                (ban.require_call ? "(...)" : ""),
            hint);
        break;
      }
    }

    // --- container scans ---
    bool unordered = false;
    if (is_container(toks, i, unordered) && is_punct(toks, i + 1, "<")) {
      bool first_arg_ptr = false;
      const std::size_t after =
          scan_template_args(toks, i + 1, first_arg_ptr);
      if (deterministic_layer && first_arg_ptr && preceded_by_std(toks, i)) {
        add(findings, file, t.line, "det-ptr-key",
            "pointer-keyed std::" + t.text +
                " (key order / hash depends on allocation addresses)",
            "key by a stable id (proc id, class id, PairKey) instead of an "
            "object address");
      }
      // Record the declared variable name, if this looks like a
      // declaration: `... > [&*]* name` followed by one of  = ( { ; ,  .
      if (unordered && after < toks.size()) {
        std::size_t j = after;
        while (is_punct(toks, j, "&") || is_punct(toks, j, "*")) ++j;
        if (j < toks.size() && toks[j].kind == TokKind::kIdentifier) {
          unordered_vars.insert(toks[j].text);
        }
      }
    }

    // --- det-unordered-iter: iteration over unordered containers on
    // emission / serialization paths ---
    if (emission_path && t.text == "for" && is_punct(toks, i + 1, "(")) {
      // Find the ':' at paren depth 1 that is not part of a '::'.
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_punct(toks, j, "(")) ++depth;
        else if (is_punct(toks, j, ")")) {
          if (--depth == 0) { close = j; break; }
        } else if (is_punct(toks, j, ":") && depth == 1 && colon == 0 &&
                   !is_punct(toks, j + 1, ":") && !is_punct(toks, j - 1, ":")) {
          colon = j;
        }
      }
      if (colon != 0 && close > colon + 1) {
        // Range expression == a single known-unordered identifier.
        if (close == colon + 2 &&
            toks[colon + 1].kind == TokKind::kIdentifier &&
            unordered_vars.count(toks[colon + 1].text) > 0) {
          add(findings, file, t.line, "det-unordered-iter",
              "range-for over std::unordered container '" +
                  toks[colon + 1].text + "' on an emission path",
              "hash order escapes into emitted bytes; iterate a sorted key "
              "vector, or suppress if every consumer is order-insensitive");
        }
      }
    }
    if (emission_path && unordered_vars.count(t.text) > 0 &&
        (is_punct(toks, i + 1, ".") || is_punct(toks, i + 1, "->"))) {
      if (i + 2 < toks.size() &&
          (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin") &&
          is_punct(toks, i + 3, "(")) {
        add(findings, file, t.line, "det-unordered-iter",
            "iterator walk over std::unordered container '" + t.text +
                "' on an emission path",
            "hash order escapes into emitted bytes; iterate a sorted key "
            "vector, or suppress if every consumer is order-insensitive");
      }
    }
  }
}

}  // namespace eclat::lint
