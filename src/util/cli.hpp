// Minimal --key=value command-line parser for the benchmark harnesses and
// examples. No positional arguments; unknown keys are reported so a typo in
// a sweep script fails loudly instead of silently running the default. A
// bad argument or value throws std::invalid_argument (drivers: exit 2).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rlslb {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if --name or --name=... was passed.
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string getString(const std::string& name, const std::string& dflt) const;
  [[nodiscard]] std::int64_t getInt(const std::string& name, std::int64_t dflt) const;
  [[nodiscard]] double getDouble(const std::string& name, double dflt) const;
  [[nodiscard]] bool getBool(const std::string& name, bool dflt) const;

  /// The standard --threads knob consumed by runner::ThreadPool: 0 means
  /// "hardware concurrency", 1 forces the serial path; outside [0, 4096]
  /// throws.
  [[nodiscard]] int getThreads(int dflt = 0) const;

  /// Keys that were parsed but never queried; harnesses call this last and
  /// abort on typos.
  [[nodiscard]] std::vector<std::string> unusedKeys() const;

  [[nodiscard]] const std::string& programName() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
};

}  // namespace rlslb
