#include "support/options.hpp"

#include <charconv>
#include <cstdio>

#include "support/diagnostics.hpp"

namespace lazyhb::support {

std::vector<std::string> splitCsv(const std::string& csv) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : csv + ",") {
    if (c == ',') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else if (c != ' ') {
      token += c;
    }
  }
  return tokens;
}

void Options::addInt(const std::string& name, std::int64_t defaultValue,
                     const std::string& help, std::int64_t min, std::int64_t max) {
  LAZYHB_CHECK(min <= defaultValue && defaultValue <= max);
  Entry e;
  e.kind = Entry::Kind::Int;
  e.help = help;
  e.intValue = defaultValue;
  e.intMin = min;
  e.intMax = max;
  LAZYHB_CHECK(entries_.emplace(name, std::move(e)).second);
  declarationOrder_.push_back(name);
}

void Options::addFlag(const std::string& name, const std::string& help) {
  Entry e;
  e.kind = Entry::Kind::Flag;
  e.help = help;
  LAZYHB_CHECK(entries_.emplace(name, std::move(e)).second);
  declarationOrder_.push_back(name);
}

void Options::addString(const std::string& name, const std::string& defaultValue,
                        const std::string& help) {
  Entry e;
  e.kind = Entry::Kind::String;
  e.help = help;
  e.stringValue = defaultValue;
  LAZYHB_CHECK(entries_.emplace(name, std::move(e)).second);
  declarationOrder_.push_back(name);
}

bool Options::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      printUsage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inlineValue;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inlineValue = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "%s: unknown option --%s (use --help)\n",
                   programName_.c_str(), name.c_str());
      parseError_ = true;
      return false;
    }
    Entry& entry = it->second;
    entry.set = true;
    auto takeValue = [&]() -> std::optional<std::string> {
      if (inlineValue) return inlineValue;
      if (i + 1 < argc) return std::string(argv[++i]);
      std::fprintf(stderr, "%s: option --%s requires a value\n",
                   programName_.c_str(), name.c_str());
      parseError_ = true;
      return std::nullopt;
    };
    switch (entry.kind) {
      case Entry::Kind::Flag:
        if (inlineValue) {
          entry.flagValue = (*inlineValue == "true" || *inlineValue == "1");
        } else {
          entry.flagValue = true;
        }
        break;
      case Entry::Kind::Int: {
        const auto value = takeValue();
        if (!value) return false;
        // from_chars takes no space, '+' or suffix and reports overflow,
        // so only a whole decimal integer that fits gets through.
        std::int64_t parsed = 0;
        const char* end = value->data() + value->size();
        const auto [stop, error] = std::from_chars(value->data(), end, parsed);
        if (error != std::errc{} || stop != end || parsed < entry.intMin ||
            parsed > entry.intMax) {
          std::fprintf(stderr,
                       "%s: option --%s expects an integer in [%lld, %lld], got '%s'\n",
                       programName_.c_str(), name.c_str(),
                       static_cast<long long>(entry.intMin),
                       static_cast<long long>(entry.intMax), value->c_str());
          parseError_ = true;
          return false;
        }
        entry.intValue = parsed;
        break;
      }
      case Entry::Kind::String: {
        const auto value = takeValue();
        if (!value) return false;
        entry.stringValue = *value;
        break;
      }
    }
  }
  return true;
}

std::int64_t Options::getInt(const std::string& name) const {
  const auto it = entries_.find(name);
  LAZYHB_CHECK(it != entries_.end() && it->second.kind == Entry::Kind::Int);
  return it->second.intValue;
}

bool Options::getFlag(const std::string& name) const {
  const auto it = entries_.find(name);
  LAZYHB_CHECK(it != entries_.end() && it->second.kind == Entry::Kind::Flag);
  return it->second.flagValue;
}

bool Options::wasSet(const std::string& name) const {
  const auto it = entries_.find(name);
  LAZYHB_CHECK(it != entries_.end());
  return it->second.set;
}

const std::string& Options::getString(const std::string& name) const {
  const auto it = entries_.find(name);
  LAZYHB_CHECK(it != entries_.end() && it->second.kind == Entry::Kind::String);
  return it->second.stringValue;
}

void Options::printUsage() const {
  std::printf("%s — %s\n\nOptions:\n", programName_.c_str(), description_.c_str());
  for (const auto& name : declarationOrder_) {
    const Entry& entry = entries_.at(name);
    std::string synopsis = "--" + name;
    std::string defaultNote;
    switch (entry.kind) {
      case Entry::Kind::Int:
        synopsis += " N";
        defaultNote = " (default " + std::to_string(entry.intValue) + ")";
        break;
      case Entry::Kind::String:
        synopsis += " STR";
        if (!entry.stringValue.empty()) defaultNote = " (default '" + entry.stringValue + "')";
        break;
      case Entry::Kind::Flag:
        break;
    }
    std::printf("  %-24s %s%s\n", synopsis.c_str(), entry.help.c_str(), defaultNote.c_str());
  }
  std::printf("  %-24s %s\n", "--help", "show this message");
}

}  // namespace lazyhb::support
