#include "campaign/checkpoint.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "campaign/report.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define LAZYHB_HAVE_FSYNC 1
#endif

namespace lazyhb::campaign {
namespace {

namespace fs = std::filesystem;

constexpr const char* kManifestName = "manifest.json";
constexpr const char* kJournalSchemaName = "lazyhb-campaign-journal";
constexpr int kJournalSchemaVersion = 3;

[[noreturn]] void raise(const std::string& message) {
  throw std::runtime_error("lazyhb: " + message);
}

/// The manifest document for `config`. Byte-stable for a given config, so
/// the resume-time compatibility check is a byte comparison.
std::string manifestDocument(const JournalConfig& config) {
  support::JsonWriter json;
  json.beginObject();
  json.field("schema", kJournalSchemaName);
  json.field("version", kJournalSchemaVersion);
  json.field("limit", config.scheduleLimit);
  json.field("max_events", static_cast<std::uint64_t>(config.maxEventsPerSchedule));
  json.field("seed", config.seed);
  json.field("incremental", config.incremental);
  json.field("workers", static_cast<std::int64_t>(config.workers));
  json.field("snapshot_budget", config.snapshotBudgetBytes);
  json.field("memory_model", config.memoryModel);
  json.field("detect_races", config.detectRaces);
  json.field("stop_on_first_violation", config.stopOnFirstViolation);
  json.field("shard_index", static_cast<std::int64_t>(config.shardIndex));
  json.field("shard_count", static_cast<std::int64_t>(config.shardCount));
  json.key("explorers").beginArray();
  for (const std::string& name : config.explorers) json.value(name);
  json.endArray();
  json.key("programs").beginArray();
  for (const std::string& name : config.programs) json.value(name);
  json.endArray();
  json.endObject();
  return json.str() + "\n";
}

/// tmp + fsync + rename: after this returns, `path` holds the complete
/// document even across a SIGKILL or power loss; a crash mid-write leaves
/// only the tmp file, which open() ignores.
void writeFileAtomic(const std::string& path, const std::string& document) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    raise("cannot write '" + tmp + "': " + std::strerror(errno));
  }
  bool ok =
      std::fwrite(document.data(), 1, document.size(), file) == document.size();
  ok = (std::fflush(file) == 0) && ok;
#ifdef LAZYHB_HAVE_FSYNC
  ok = (fsync(fileno(file)) == 0) && ok;
#endif
  ok = (std::fclose(file) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    raise("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    raise("cannot rename '" + tmp + "' into place: " + std::strerror(errno));
  }
}

/// The file record() writes for the cell at matrix slot `index`.
std::string cellFileName(std::size_t index) {
  return "cell-" + std::to_string(index) + ".json";
}

/// The matrix index of a `cell-<i>.json` entry in exactly the form
/// cellFileName writes, or npos for anything else (the manifest, tmp
/// leftovers, stray files, and names with leading zeros or an index that
/// does not fit, which would otherwise alias another slot).
std::size_t cellIndexFromName(const std::string& name) {
  constexpr std::string_view kPrefix = "cell-";
  if (!name.starts_with(kPrefix)) return std::string::npos;
  std::size_t index = 0;
  const char* digits = name.data() + kPrefix.size();
  const auto [end, error] = std::from_chars(digits, name.data() + name.size(), index);
  if (error != std::errc{} || end == digits) return std::string::npos;
  return name == cellFileName(index) ? index : std::string::npos;
}

}  // namespace

CellResult readJournalCell(const std::string& document, const std::string& name) {
  std::string parseError;
  const auto value = support::JsonValue::parse(document, &parseError);
  CellResult cell;
  if (value == nullptr || !parseCellJson(*value, &cell, &parseError)) {
    raise("campaign journal cell '" + name + "' is malformed: " + parseError);
  }
  return cell;
}

CampaignJournal::CampaignJournal(std::string directory,
                                 const JournalConfig& config,
                                 bool requireExisting)
    : directory_(std::move(directory)) {
  const std::string expectedManifest = manifestDocument(config);
  const fs::path dir(directory_);
  const fs::path manifestPath = dir / kManifestName;

  std::error_code ec;
  const bool haveManifest = fs::exists(manifestPath, ec);
  if (!haveManifest) {
    if (requireExisting) {
      raise("nothing to resume: '" + directory_ +
            "' holds no campaign journal (run without --resume to start one)");
    }
    fs::create_directories(dir, ec);
    if (ec) {
      raise("cannot create checkpoint directory '" + directory_ +
            "': " + ec.message());
    }
    writeFileAtomic(manifestPath.string(), expectedManifest);
    return;
  }

  // The manifest writer is byte-stable, so configuration equality is
  // document equality — any drift (different seed, limit, shard, corpus,
  // ...) fails the resume up front.
  const std::string onDisk = readFile(manifestPath.string());
  if (onDisk != expectedManifest) {
    raise("campaign journal config mismatch in '" + directory_ +
          "': the journal was started with different campaign flags "
          "(seed/limit/shard/corpus/...); rerun with the original flags or "
          "start a fresh checkpoint directory");
  }

  const std::size_t totalCells = config.programs.size() * config.explorers.size();
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::size_t index = cellIndexFromName(name);
    if (index == std::string::npos) continue;
    if (index >= totalCells) {
      raise("campaign journal '" + directory_ + "' holds out-of-range cell '" +
            name + "'");
    }
    CellResult cell = readJournalCell(readFile(entry.path().string()), name);
    const std::string& program = config.programs[index / config.explorers.size()];
    const std::string& explorer = config.explorers[index % config.explorers.size()];
    if (cell.program != program || cell.explorer != explorer) {
      raise("campaign journal cell '" + name + "' holds " + cell.program + " x " +
            cell.explorer + ", but its slot is " + program + " x " + explorer);
    }
    loaded_.emplace(index, std::move(cell));
  }
}

void CampaignJournal::record(std::size_t index, const CellResult& cell) {
  support::JsonWriter json;
  writeCellJson(json, cell);
  const std::string document = json.str() + "\n";
  const std::string path = (fs::path(directory_) / cellFileName(index)).string();
  // Distinct cells write distinct files; the lock just keeps the
  // write+rename sequences from interleaving their error reporting.
  const std::lock_guard<std::mutex> guard(writeMutex_);
  writeFileAtomic(path, document);
}

}  // namespace lazyhb::campaign
