// lazyhb/cli/cli.hpp
//
// The unified `lazyhb` command-line driver. Subcommands:
//
//   lazyhb list     — print the registered program corpus
//   lazyhb explore  — run one program under one explorer, print stats
//   lazyhb compare  — run one program under every explorer, one row each
//   lazyhb bench    — run the (program × explorer) campaign matrix in
//                     parallel, check the §3 chain on every cell, print the
//                     paper's Figure 2/3 summaries when their explorers ran,
//                     and emit a machine-readable JSON report
//   lazyhb replay   — re-execute a recorded schedule and render its trace
//
// Every subcommand builds on support::Options, so `lazyhb <cmd> --help`
// prints the full flag table. Explorer construction goes through the shared
// campaign::ExplorerSpec factory (campaign/explorer_spec.hpp), so the CLI,
// the benches and the campaign runner accept the same mode names:
// dfs, random, dpor, caching-full, caching-lazy, and the extended
// caching-value.

#pragma once

namespace lazyhb::cli {

/// Entry point: dispatch argv[1] to a subcommand. Returns the process exit
/// status: 0 on success, 2 on usage errors, 1 when a violation was found by
/// `explore --fail-on-violation`, a replay ends in a violation, or a bench
/// campaign or merged report holds a §3 inequality violation or a theorem
/// conflict, and 3 when the arguments were
/// fine but a requested output file (bench --out) could not be written.
[[nodiscard]] int run(int argc, char** argv);

}  // namespace lazyhb::cli
