// lazyhb/trace/foata.hpp
//
// Exact canonical forms for happens-before relations.
//
// Two schedules have the same (lazy) HBR iff their labelled causal DAGs are
// equal. The incremental 128-bit fingerprints in TraceRecorder decide this
// probabilistically; this module decides it *exactly*, at O(n log n) to
// O(n^2) cost, and serves as the reference implementation the fingerprints
// are property-tested against (and as an opt-in exact mode for experiments).
//
// Two canonical forms are provided:
//
//  * foataNormalForm — the Foata level decomposition: level(e) = 1 + the
//    maximum level of e's direct predecessors, with the labels inside each
//    level sorted. Because dependence between events is a function of their
//    schedule-invariant labels (thread, per-thread index, kind, object), the
//    level word determines the partial order, making it a canonical form of
//    the trace (Mazurkiewicz theory).
//
//  * explicitRelation — the partial order itself, serialized: every event's
//    label followed by the sorted labels of all events that happen before
//    it (the transitive closure of the direct-predecessor edges). This is
//    trivially canonical and is the ground truth in tests.
//
// Both require TraceRecorder::Options::keepPredecessors.

#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace_recorder.hpp"

namespace lazyhb::trace {

/// Canonical Foata normal form of the executed trace under relation `r`.
/// Equal vectors <=> equal labelled partial orders.
[[nodiscard]] std::vector<std::uint64_t> foataNormalForm(const TraceRecorder& recorder,
                                                         Relation r);

/// Exact serialization of the labelled partial order under relation `r`.
[[nodiscard]] std::vector<std::uint64_t> explicitRelation(const TraceRecorder& recorder,
                                                          Relation r);

/// Foata levels themselves (level of each event, 1-based); exposed for
/// analysis (the number of levels is the trace's critical-path length, a
/// parallelism measure used by the micro benchmarks).
[[nodiscard]] std::vector<int> foataLevels(const TraceRecorder& recorder, Relation r);

}  // namespace lazyhb::trace
