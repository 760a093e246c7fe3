#include "util/args.hpp"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace ckv {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_option(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  expects(!options_.contains(name), "ArgParser: duplicate option " + name);
  options_[name] = Option{default_value, help, false};
  values_[name] = default_value;
}

void ArgParser::add_switch(const std::string& name, const std::string& help) {
  expects(!options_.contains(name), "ArgParser: duplicate switch " + name);
  options_[name] = Option{"", help, true};
  switches_[name] = false;
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    if (name == "help") {
      // Every command gets --help for free: print the generated text
      // (options with their defaults) and exit successfully.
      std::cout << help();
      std::exit(0);
    }
    const auto it = options_.find(name);
    if (it == options_.end()) {
      throw std::invalid_argument("unknown flag --" + name + "\n" + help());
    }
    if (it->second.is_switch) {
      switches_[name] = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag --" + name + " needs a value");
    }
    values_[name] = argv[++i];
  }
}

std::string ArgParser::get_string(const std::string& name) const {
  const auto it = values_.find(name);
  expects(it != values_.end(), "ArgParser: unregistered option " + name);
  return it->second;
}

Index ArgParser::get_index(const std::string& name) const {
  const auto text = get_string(name);
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    expects(used == text.size(), "trailing characters");
    return static_cast<Index>(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                text + "'");
  }
}

double ArgParser::get_double(const std::string& name) const {
  const auto text = get_string(name);
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    // stod also reads "nan" and "inf", which no flag means.
    expects(used == text.size() && std::isfinite(v), "not a finite number");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a finite number, got '" +
                                text + "'");
  }
}

double ArgParser::get_double_in(const std::string& name, double lo, double hi) const {
  const double v = get_double(name);
  if (v < lo || v > hi) {
    throw std::invalid_argument("flag --" + name + " expects a value in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "], got " + std::to_string(v));
  }
  return v;
}

bool ArgParser::get_switch(const std::string& name) const {
  const auto it = switches_.find(name);
  expects(it != switches_.end(), "ArgParser: unregistered switch " + name);
  return it->second;
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << description_ << "\n\noptions:\n";
  for (const auto& [name, option] : options_) {
    out << "  --" << name;
    if (!option.is_switch) {
      out << " <value>  (default: "
          << (option.default_value.empty() ? "none" : option.default_value) << ")";
    }
    out << "\n      " << option.help << "\n";
  }
  return out.str();
}

}  // namespace ckv
