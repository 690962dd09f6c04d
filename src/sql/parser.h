// Recursive-descent SQL parser producing the AST of ast.h.
#pragma once

#include <cstddef>
#include <memory>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/lexer.h"

namespace explainit::sql {

/// How deep a statement may nest. Two measures must each stay within it:
///  - nesting: every parenthesis, function argument, subscript index, IN
///    item, CASE part, NOT, unary minus and FROM subquery opens one level
///    inside its enclosing expression or statement;
///  - height: every operator or function call stands one level above its
///    operands, so the binary chain `1 + 1 + ... + 1` with 256 `+` is 256
///    levels tall even though it parses in a loop.
/// So `SELECT ((1))` with 256 parentheses parses and 257 do not. Past the
/// limit the parser returns a ParseError naming it. Later passes (binding,
/// planning, evaluation, destruction) recurse over the AST, so the limit
/// keeps one statement from overflowing a thread's stack.
inline constexpr size_t kMaxNestingDepth = 256;

/// Parses a full statement: a SELECT (with optional UNION ALL chain) or
/// an EXPLAIN statement. Fails with ParseError carrying the offending
/// token's line/column.
Result<std::unique_ptr<Statement>> ParseStatement(std::string_view query);

/// Parses a single SELECT statement (with optional UNION ALL chain).
/// EXPLAIN input is rejected — statement-level callers use
/// ParseStatement. Fails with ParseError carrying the offending token
/// position.
Result<std::unique_ptr<SelectStatement>> Parse(std::string_view query);

/// Parses a standalone scalar expression (used by tests and the engine's
/// family-pattern mini-queries).
Result<ExprPtr> ParseExpression(std::string_view text);

}  // namespace explainit::sql
