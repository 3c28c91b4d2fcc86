#include "common/args.h"

#include <charconv>
#include <cstdio>

namespace sword {

ArgParser::ArgParser(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      flags_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[token] = argv[++i];
    } else {
      flags_[token] = "";
    }
  }
}

std::string ArgParser::GetString(const std::string& flag,
                                 const std::string& def) const {
  queried_[flag] = true;
  auto it = flags_.find(flag);
  return it == flags_.end() ? def : it->second;
}

int64_t ArgParser::GetInt(const std::string& flag, int64_t def, int64_t lo,
                          int64_t hi) const {
  queried_[flag] = true;
  auto it = flags_.find(flag);
  if (it == flags_.end()) return def;
  const std::string& text = it->second;
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    errors_.push_back("--" + flag + " must be an integer in [" + std::to_string(lo) +
                      ", " + std::to_string(hi) + "], got '" + text + "'");
    return def;
  }
  return value;
}

bool ArgParser::GetBool(const std::string& flag, bool def) const {
  queried_[flag] = true;
  auto it = flags_.find(flag);
  if (it == flags_.end()) return def;
  return it->second.empty() || it->second == "true" || it->second == "1";
}

std::vector<std::string> ArgParser::UnknownFlags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!queried_.count(name)) unknown.push_back("--" + name);
  }
  return unknown;
}

bool ArgParser::ReportUsageErrors() const {
  const std::vector<std::string> unknown = UnknownFlags();
  for (const auto& flag : unknown) {
    std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
  }
  for (const auto& error : errors_) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  return !unknown.empty() || !errors_.empty();
}

}  // namespace sword
