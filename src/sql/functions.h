// Scalar function registry. Builtins cover the Appendix C workload
// (CONCAT, SPLIT, GREATEST, ...); users add UDFs (e.g. HOSTGROUP) exactly
// as the paper describes for Spark SQL.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace explainit::sql {

/// A scalar SQL function: pure mapping from argument values to a value.
/// Callers rely on it: a result may be reused for rows whose inputs are
/// identical (RunMemo, bound_expr.h), so a function runs at most once per
/// such run of rows, and may run concurrently on several threads.
using ScalarFn =
    std::function<Result<table::Value>(const std::vector<table::Value>&)>;

/// The bucket width DATE_TRUNC(unit, ts) floors to, in seconds; 0 for
/// unsupported units. Shared with the planner's grid-shape detection.
int64_t DateTruncStepSeconds(const std::string& unit);

/// Case-insensitive name -> function map. Copyable; engines typically hold
/// one registry seeded with the builtins plus domain UDFs.
class FunctionRegistry {
 public:
  /// A registry pre-loaded with every builtin.
  static FunctionRegistry Builtins();

  /// Registers (or replaces) a function under an upper-cased name.
  void Register(const std::string& name, ScalarFn fn);

  /// Looks up a function; nullptr when unknown.
  const ScalarFn* Find(const std::string& name) const;

  std::vector<std::string> ListFunctions() const;

 private:
  std::map<std::string, ScalarFn> fns_;
};

}  // namespace explainit::sql
