// Minimal --key=value / --key value flag parser for the CLI tools. Not a
// general-purpose library: unknown flags and malformed numbers are an error
// (exit 2), every flag has a default, and --help prints the registered set.
#ifndef LDPJS_TOOLS_FLAGS_H_
#define LDPJS_TOOLS_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace ldpjs::tools {

class Flags {
 public:
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help) {
    values_[name] = default_value;
    help_[name] = help;
  }

  /// Parses argv; exits with usage on --help or unknown flags.
  void Parse(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
      std::string arg = args[i];
      if (arg == "--help" || arg == "-h") {
        PrintUsage(argv[0]);
        std::exit(0);
      }
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        PrintUsage(argv[0]);
        std::exit(2);
      }
      arg = arg.substr(2);
      std::string value;
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      } else if (i + 1 < args.size()) {
        value = args[++i];
      } else {
        std::fprintf(stderr, "flag --%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      if (!values_.count(arg)) {
        std::fprintf(stderr, "unknown flag: --%s\n", arg.c_str());
        PrintUsage(argv[0]);
        std::exit(2);
      }
      values_[arg] = value;
    }
  }

  std::string GetString(const std::string& name) const {
    return values_.at(name);
  }
  /// Every integer flag is a count, index, port or seed, so the value must
  /// be a whole non-negative base-10 integer: "2e5", "200k" and "-1" exit 2
  /// naming the flag instead of parsing a prefix or wrapping around.
  int64_t GetInt(const std::string& name) const {
    const std::string& text = values_.at(name);
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE) {
      Malformed(name, text, "a non-negative integer");
    }
    return value;
  }
  /// The whole value must be one finite number.
  double GetDouble(const std::string& name) const {
    const std::string& text = values_.at(name);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || !std::isfinite(value)) {
      Malformed(name, text, "a finite number");
    }
    return value;
  }

  void PrintUsage(const char* program) const {
    std::fprintf(stderr, "usage: %s [--flag value | --flag=value]...\n",
                 program);
    for (const auto& [name, help] : help_) {
      std::fprintf(stderr, "  --%-14s %s (default: %s)\n", name.c_str(),
                   help.c_str(), values_.at(name).c_str());
    }
  }

 private:
  [[noreturn]] static void Malformed(const std::string& name,
                                     const std::string& text,
                                     const char* expected) {
    std::fprintf(stderr, "flag --%s: '%s' is not %s\n", name.c_str(),
                 text.c_str(), expected);
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> help_;
};

}  // namespace ldpjs::tools

#endif  // LDPJS_TOOLS_FLAGS_H_
