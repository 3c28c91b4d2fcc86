// Minimal command-line flag parser for the CLI tools: supports
// --flag=value, --flag value, bare --flag (boolean), and positional
// arguments. No external dependencies, deliberately small.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace sword {

class ArgParser {
 public:
  static constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  static constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();

  ArgParser(int argc, char** argv);

  /// Positional arguments in order (non-flag tokens).
  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& flag) const { return flags_.count(flag) > 0; }

  std::string GetString(const std::string& flag, const std::string& def = "") const;
  /// Integer flag `flag` (absent = `def`). A value that is not a whole
  /// decimal number inside [lo, hi] returns `def` and records a usage error
  /// (see errors()), so a caller that checks errors() before it starts
  /// anything never runs on a misread or wrapped value.
  int64_t GetInt(const std::string& flag, int64_t def,
                 int64_t lo = std::numeric_limits<int64_t>::min(),
                 int64_t hi = kMaxI64) const;
  bool GetBool(const std::string& flag, bool def = false) const;

  /// Flags that were provided but never queried (typo detection).
  std::vector<std::string> UnknownFlags() const;

  /// Usage errors recorded by GetInt, one message each, in query order.
  const std::vector<std::string>& errors() const { return errors_; }

  /// Prints "unknown flag --x" for every unknown flag and "error: ..." for
  /// every recorded usage error to stderr. True when there was any. Call it
  /// after every flag has been queried.
  bool ReportUsageErrors() const;

 private:
  std::map<std::string, std::string> flags_;  // name -> value ("" for bare)
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
  mutable std::vector<std::string> errors_;
};

}  // namespace sword
