#include "trace/foata.hpp"

#include <algorithm>

namespace lazyhb::trace {

namespace {

/// Serialize an event's schedule-invariant label as a fixed-width tuple.
void appendLabel(std::vector<std::uint64_t>& out, const runtime::EventRecord& ev) {
  out.push_back(ev.threadUid);
  out.push_back((static_cast<std::uint64_t>(ev.indexInThread) << 8) |
                static_cast<std::uint64_t>(ev.kind));
  out.push_back(ev.objectUid);
  out.push_back(ev.mutexUid ^ (ev.aux << 1));
}

/// Sort key for events: by (threadUid, indexInThread), which is unique.
struct LabelOrder {
  const TraceRecorder& recorder;
  bool operator()(std::int32_t a, std::int32_t b) const {
    const auto& ea = recorder.eventRecord(a);
    const auto& eb = recorder.eventRecord(b);
    if (ea.threadUid != eb.threadUid) return ea.threadUid < eb.threadUid;
    return ea.indexInThread < eb.indexInThread;
  }
};

}  // namespace

std::vector<int> foataLevels(const TraceRecorder& recorder, Relation r) {
  const auto n = static_cast<std::int32_t>(recorder.eventCount());
  std::vector<int> level(static_cast<std::size_t>(n), 1);
  for (std::int32_t i = 0; i < n; ++i) {
    int best = 0;
    for (const std::int32_t p : recorder.eventPredecessors(r, i)) {
      best = std::max(best, level[static_cast<std::size_t>(p)]);
    }
    level[static_cast<std::size_t>(i)] = best + 1;
  }
  return level;
}

std::vector<std::uint64_t> foataNormalForm(const TraceRecorder& recorder, Relation r) {
  const auto n = static_cast<std::int32_t>(recorder.eventCount());
  const std::vector<int> level = foataLevels(recorder, r);
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const int la = level[static_cast<std::size_t>(a)];
    const int lb = level[static_cast<std::size_t>(b)];
    if (la != lb) return la < lb;
    return LabelOrder{recorder}(a, b);
  });
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(n) * 5 + 8);
  int current = 0;
  for (const std::int32_t i : order) {
    if (level[static_cast<std::size_t>(i)] != current) {
      current = level[static_cast<std::size_t>(i)];
      out.push_back(~0ULL);  // level separator
    }
    appendLabel(out, recorder.eventRecord(i));
  }
  return out;
}

std::vector<std::uint64_t> explicitRelation(const TraceRecorder& recorder, Relation r) {
  // The *transitive* relation: event j happens-before event i iff j reaches
  // i along direct-predecessor edges. Events arrive in schedule order, so
  // every predecessor's ancestor set is complete before it is merged.
  const auto n = static_cast<std::int32_t>(recorder.eventCount());
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> ancestors(static_cast<std::size_t>(n) * words, 0);
  for (std::int32_t i = 0; i < n; ++i) {
    std::uint64_t* mine = &ancestors[static_cast<std::size_t>(i) * words];
    for (const std::int32_t p : recorder.eventPredecessors(r, i)) {
      const std::uint64_t* theirs = &ancestors[static_cast<std::size_t>(p) * words];
      for (std::size_t w = 0; w < words; ++w) mine[w] |= theirs[w];
      mine[static_cast<std::size_t>(p) / 64] |= std::uint64_t{1} << (p % 64);
    }
  }

  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), LabelOrder{recorder});

  std::vector<std::uint64_t> out;
  std::vector<std::int32_t> preds;
  for (const std::int32_t i : order) {
    out.push_back(~0ULL);  // record separator
    appendLabel(out, recorder.eventRecord(i));
    preds.clear();
    const std::uint64_t* mine = &ancestors[static_cast<std::size_t>(i) * words];
    for (std::int32_t j = 0; j < n; ++j) {
      if ((mine[static_cast<std::size_t>(j) / 64] >> (j % 64)) & 1U) preds.push_back(j);
    }
    std::sort(preds.begin(), preds.end(), LabelOrder{recorder});
    for (const std::int32_t p : preds) {
      appendLabel(out, recorder.eventRecord(p));
    }
  }
  return out;
}

}  // namespace lazyhb::trace
