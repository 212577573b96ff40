#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "support/json_writer.hpp"

namespace perfbench {

std::string Exploration::id() const {
  std::string out = strategy + "|" + scenario + "|" + model + "|limit=" +
                    std::to_string(limit) + (stopOnBug ? "|stop" : "");
  if (seeded()) out += "|seed=" + std::to_string(seed);
  return out;
}

lazyhb::Session Exploration::session() const {
  lazyhb::Session s;
  s.strategy(strategy)
      .schedules(limit)
      .memoryModel(model)
      .seed(seed)
      .stopOnFirstViolation(stopOnBug)
      .workers(workers);
  return s;
}

bool Counts::sameContract(const Counts& o) const {
  const bool base = schedules == o.schedules && terminal == o.terminal &&
                    pruned == o.pruned && violations == o.violations &&
                    hbrs == o.hbrs && lazyHbrs == o.lazyHbrs &&
                    valueClasses == o.valueClasses && states == o.states &&
                    complete == o.complete;
  if (!base || !hasTso || !o.hasTso) return base;
  return flushEvents == o.flushEvents && fenceEvents == o.fenceEvents;
}

std::string Counts::json() const {
  JsonLine line;
  line.field("schedules", schedules)
      .field("terminal", terminal)
      .field("pruned", pruned)
      .field("violations", violations)
      .field("hbrs", hbrs)
      .field("lazy_hbrs", lazyHbrs)
      .field("value_classes", valueClasses)
      .field("states", states)
      .field("complete", complete);
  if (hasTso) line.field("flush_events", flushEvents).field("fence_events", fenceEvents);
  return line.str();
}

Counts countsOf(const lazyhb::TestReport& r) {
  Counts c;
  c.schedules = r.schedulesExecuted;
  c.terminal = r.terminalSchedules;
  c.pruned = r.prunedSchedules;
  c.violations = r.violationSchedules;
  c.hbrs = r.distinctHbrs;
  c.lazyHbrs = r.distinctLazyHbrs;
  c.valueClasses = r.distinctValueClasses;
  c.states = r.distinctStates;
  c.complete = r.complete;
  return c;
}

Counts countsOf(const lazyhb::explore::ExplorationResult& r) {
  Counts c;
  c.schedules = r.schedulesExecuted;
  c.terminal = r.terminalSchedules;
  c.pruned = r.prunedSchedules;
  c.violations = r.violationSchedules;
  c.hbrs = r.distinctHbrs;
  c.lazyHbrs = r.distinctLazyHbrs;
  c.valueClasses = r.distinctValueClasses;
  c.states = r.distinctStates;
  c.complete = r.complete;
  c.hasTso = true;
  c.flushEvents = r.flushEvents;
  c.fenceEvents = r.fenceEvents;
  return c;
}

CountLedger::Entry& CountLedger::entry(const Exploration& e) {
  const std::string id = e.id();
  auto [it, inserted] = entries_.try_emplace(id);
  if (inserted) {
    order_.push_back(id);
    it->second.mustComplete = e.mustComplete;
  }
  return it->second;
}

void CountLedger::record(const Exploration& e, const Counts& counts) {
  Entry& en = entry(e);
  ++en.attempts;
  if (!en.hasCounts) {
    en.hasCounts = true;
    en.counts = counts;
  } else if (!en.counts.sameContract(counts)) {
    ++en.repeatMismatch;
  }
}

void CountLedger::threw(const Exploration& e) {
  Entry& en = entry(e);
  ++en.attempts;
  ++en.threw;
}

const Counts* CountLedger::find(const std::string& id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end() || !it->second.hasCounts) return nullptr;
  return &it->second.counts;
}

void CountLedger::emit(const char* source) const {
  for (const std::string& id : order_) {
    const Entry& en = entries_.at(id);
    JsonLine line;
    line.field("id", id)
        .field("source", source)
        .field("must_complete", en.mustComplete)
        .field("attempts", en.attempts)
        .field("repeat_mismatch", en.repeatMismatch)
        .field("threw", en.threw);
    if (en.hasCounts) line.raw("counts", en.counts.json());
    emitRecord("counts", line.str());
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(const std::vector<double>& sorted, double pct) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double weightedPercentile(std::vector<WeightedSample> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end(),
            [](const WeightedSample& a, const WeightedSample& b) { return a.value < b.value; });
  double total = 0.0;
  for (const WeightedSample& s : samples) total += s.weight;
  const double target = pct / 100.0 * total;
  double cumulative = 0.0;
  for (const WeightedSample& s : samples) {
    cumulative += s.weight;
    if (cumulative >= target) return s.value;
  }
  return samples.back().value;
}

std::string describeTiming(std::vector<double> values, double scale, const char* unit) {
  char buf[160];
  if (values.empty()) return "no samples";
  std::sort(values.begin(), values.end());
  std::snprintf(buf, sizeof buf, "median %.4g %s", median(values) * scale, unit);
  std::string out = buf;
  for (const double pct : {99.9, 99.0, 90.0, 75.0}) {
    // Samples strictly beyond the nearest-rank percentile.
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    if (values.size() - rank >= 10) {
      std::snprintf(buf, sizeof buf, ", p%g %.4g %s", pct,
                    percentile(values, pct) * scale, unit);
      out += buf;
      break;
    }
  }
  return out + " (n=" + std::to_string(values.size()) + ")";
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto toSeconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return toSeconds(usage.ru_utime) + toSeconds(usage.ru_stime);
}

double peakRssMib() {
  // ru_maxrss survives exec: a process forked from a large parent (such as
  // run.py's Python) starts with the parent's high-water mark. The kernel's
  // per-address-space VmHWM starts fresh at exec, so prefer it.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, status) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(status);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void JsonLine::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + lazyhb::support::jsonEscape(k) + "\": ";
}

JsonLine& JsonLine::field(const std::string& k, const std::string& value) {
  key(k);
  body_ += "\"" + lazyhb::support::jsonEscape(value) + "\"";
  return *this;
}

JsonLine& JsonLine::field(const std::string& k, const char* value) {
  return field(k, std::string(value));
}

JsonLine& JsonLine::field(const std::string& k, double value) {
  key(k);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::field(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonLine& JsonLine::field(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  line_.raw(name, JsonLine().field("value", value).field("unit", unit).str());
}

void MetricSet::emit() const { emitRecord("metrics", line_.str()); }

void emitRecord(const char* tag, const std::string& json) {
  std::printf("%s %s\n", tag, json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
