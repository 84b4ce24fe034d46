// util::cli — the one typed command-line parser every binary shares.
//
// Before this existed, `bench/common.hpp` and each one-off driver
// hand-rolled the same strcmp/strtoull loop, each with
// its own quirks (silently ignored unknown flags, junk accepted after
// numbers).  This parser is deliberately tiny but strict:
//
//   * typed flags (`--seed N`, `--csv DIR`, presence bools like `--smoke`)
//     with full-string numeric validation — "--reps 5x" is an error, not 5;
//   * unknown flags are errors (the old bench parser ignored them, so a
//     typo like `--max-node` silently ran the default workload);
//   * optional environment fallbacks per flag (flags override env);
//   * `--help` output generated from the registered flags, including the
//     current default value and the env variable name;
//   * positionals (the scenario driver's FILE argument).
//
//   util::cli::Parser p("poly_scenario", "run a scenario program");
//   p.positional("FILE", &file, "scenario program (.poly)");
//   p.flag("seed", &seed, "base RNG seed", "POLY_BENCH_SEED");
//   p.parse_or_exit(argc, argv);
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace poly::util::cli {

class Parser {
 public:
  /// `program` is the binary name shown in usage; `summary` the one-line
  /// description under it.
  explicit Parser(std::string program, std::string summary = "");

  // Typed value flags (`--name VALUE`).  `name` is registered without the
  // leading dashes.  `env`, when given, names an environment variable
  // consulted before argv, so explicit flags always win over it.
  Parser& flag(std::string name, std::uint64_t* out, std::string help,
               const char* env = nullptr);
  Parser& flag(std::string name, long* out, std::string help,
               const char* env = nullptr);
  Parser& flag(std::string name, double* out, std::string help,
               const char* env = nullptr);
  Parser& flag(std::string name, std::string* out, std::string help,
               const char* env = nullptr);
  Parser& flag(std::string name, std::optional<std::string>* out,
               std::string help, const char* env = nullptr);
  /// Presence flag: `--name` takes no value and sets *out to true.
  Parser& flag(std::string name, bool* out, std::string help);

  /// Positional argument, consumed in registration order.
  Parser& positional(std::string name, std::string* out, std::string help,
                     bool required = true);

  /// Parses argv.  On `--help` prints the generated help to stdout and
  /// exits 0.  Returns false with a diagnostic in *error on an unknown
  /// flag, a missing value, a malformed number, or a missing required
  /// positional.
  bool parse(int argc, char** argv, std::string* error);

  /// parse(), or print the diagnostic plus usage hint to stderr and
  /// exit(2).
  void parse_or_exit(int argc, char** argv);

  /// True when `name` was set explicitly (argv or its env fallback) —
  /// drivers use this to tell "user asked for --seed 1" from "default 1".
  bool was_set(std::string_view name) const;

  /// The generated `--help` text.
  std::string help() const;

 private:
  enum class Kind { kU64, kLong, kDouble, kString, kOptString, kBool };

  struct Flag {
    std::string name;
    Kind kind;
    void* out;
    std::string help;
    std::string env;
    bool set = false;
  };
  struct Positional {
    std::string name;
    std::string* out;
    std::string help;
    bool required;
    bool set = false;
  };

  Parser& add(std::string name, Kind kind, void* out, std::string help,
              const char* env);
  Flag* find(std::string_view name);
  /// Assigns `value` to the flag's typed target; false on a bad number.
  bool assign(Flag& f, const std::string& value, std::string* error);
  std::string default_of(const Flag& f) const;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
};

}  // namespace poly::util::cli
