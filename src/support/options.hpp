// lazyhb/support/options.hpp
//
// A tiny declarative command-line parser for the bench/example binaries.
// Supports `--flag`, `--key value` and `--key=value`; prints a usage table
// on --help; rejects unknown options so typos fail loudly rather than run a
// multi-minute experiment with defaults.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lazyhb::support {

/// Split a comma-separated option value ("a,b, c") into tokens, stripping
/// spaces and skipping empty tokens. The one tokenizer behind every
/// list-valued flag (--explorers, --programs), so their parsing quirks
/// cannot drift apart.
[[nodiscard]] std::vector<std::string> splitCsv(const std::string& csv);

class Options {
 public:
  Options(std::string programName, std::string description)
      : programName_(std::move(programName)), description_(std::move(description)) {}

  /// Declare an integer option with default value, accepting only values in
  /// [min, max]. A value must be a decimal integer in full ("12abc", "1e5"
  /// and "10k" are rejected, not truncated).
  void addInt(const std::string& name, std::int64_t defaultValue, const std::string& help,
              std::int64_t min = std::numeric_limits<std::int64_t>::min(),
              std::int64_t max = std::numeric_limits<std::int64_t>::max());
  /// Declare a boolean flag (false by default; present => true; also accepts
  /// --name=true/false).
  void addFlag(const std::string& name, const std::string& help);
  /// Declare a string option with default value.
  void addString(const std::string& name, const std::string& defaultValue,
                 const std::string& help);

  /// Parse argv. Returns false (after printing usage or an error) if the
  /// process should exit; the caller should return 0 for --help and
  /// a nonzero status if parseError() is set.
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] std::int64_t getInt(const std::string& name) const;
  [[nodiscard]] bool getFlag(const std::string& name) const;
  [[nodiscard]] const std::string& getString(const std::string& name) const;
  [[nodiscard]] bool parseError() const noexcept { return parseError_; }

  /// True when the user supplied the option on the command line (as opposed
  /// to the declared default being in effect). Lets presets like --quick
  /// yield to an explicit --limit.
  [[nodiscard]] bool wasSet(const std::string& name) const;

  /// Positional arguments left over after option parsing.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  void printUsage() const;

 private:
  struct Entry {
    enum class Kind { Int, Flag, String } kind;
    std::string help;
    std::int64_t intValue = 0;
    std::int64_t intMin = 0;
    std::int64_t intMax = 0;
    bool flagValue = false;
    std::string stringValue;
    bool set = false;  ///< supplied on the command line
  };

  std::string programName_;
  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> declarationOrder_;
  std::vector<std::string> positional_;
  bool parseError_ = false;
};

}  // namespace lazyhb::support
