// Minimal command-line flag parser for the CLI tool: --name value pairs
// and boolean switches, with typed access and generated help text.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace ckv {

class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Registers a value option (--name <value>) with a default and help.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Registers a boolean switch (--name, no value).
  void add_switch(const std::string& name, const std::string& help);

  /// Parses argv; throws std::invalid_argument for unknown flags or
  /// missing values. Non-flag tokens are collected as positionals.
  /// `--help` prints the generated help text (options with defaults) to
  /// stdout and exits 0.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] Index get_index(const std::string& name) const;
  /// Throws std::invalid_argument naming the flag for a value that is not
  /// a finite number (including "nan" and "inf").
  [[nodiscard]] double get_double(const std::string& name) const;
  /// get_double with range validation: throws std::invalid_argument naming
  /// the flag when the value falls outside [lo, hi]. For knobs with hard
  /// domains (thresholds, factors >= 1) where a bare atof would let
  /// nonsense flow into expects() failures deep in the stack.
  [[nodiscard]] double get_double_in(const std::string& name, double lo,
                                     double hi) const;
  [[nodiscard]] bool get_switch(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Rendered --help text.
  [[nodiscard]] std::string help() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_switch = false;
  };

  std::string description_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> switches_;
  std::vector<std::string> positionals_;
};

}  // namespace ckv
