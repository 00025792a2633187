// Robustness analyzer: a swallowed exception is a silently dropped class
// result, which breaks the byte-identical-or-clean-abort contract — a
// failure must either unwind (and be accounted by the caller) or become
// the failed attempt's retry-accounted diagnostic at the single isolation
// boundary (src/exec/fault_capture.hpp).
//
// Rule:
//   robust-catch  bare `catch (...)` whose handler neither rethrows
//                 (`throw` / std::rethrow_exception), captures the
//                 exception (std::current_exception), nor routes through
//                 capture_class_failure. Typed handlers (catch (const
//                 std::exception&)) are out of scope: they at least prove
//                 the author knew what they were discarding.
#include "lint.hpp"

#include <cstddef>

namespace eclat::lint {

namespace {

/// Identifiers whose presence anywhere in the handler block counts as
/// routing the exception somewhere accountable rather than dropping it.
bool routes_exception(const Token& tok) {
  return tok.kind == TokKind::kIdentifier &&
         (tok.text == "throw" || tok.text == "rethrow_exception" ||
          tok.text == "current_exception" ||
          tok.text == "capture_class_failure");
}

}  // namespace

void analyze_robustness(const SourceFile& file,
                        std::vector<Finding>& findings) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // `...` lexes as three '.' punctuation tokens.
    if (!is_ident(toks, i, "catch") || !is_punct(toks, i + 1, "(") ||
        !is_punct(toks, i + 2, ".") || !is_punct(toks, i + 3, ".") ||
        !is_punct(toks, i + 4, ".") || !is_punct(toks, i + 5, ")") ||
        !is_punct(toks, i + 6, "{")) {
      continue;
    }
    std::size_t depth = 0;
    bool routed = false;
    for (std::size_t j = i + 6; j < toks.size(); ++j) {
      if (is_punct(toks, j, "{")) {
        ++depth;
      } else if (is_punct(toks, j, "}")) {
        if (--depth == 0) break;
      } else if (routes_exception(toks[j])) {
        routed = true;
      }
    }
    if (!routed) {
      findings.push_back(
          {file.path, toks[i].line, "robust-catch",
           "bare catch (...) swallows the exception",
           "rethrow (`throw;`), capture it (std::current_exception) for a "
           "post-join rethrow, or route the task through "
           "capture_class_failure (src/exec/fault_capture.hpp)",
           false, ""});
    }
  }
}

}  // namespace eclat::lint
