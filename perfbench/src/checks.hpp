#pragma once
// Output checks: every op a workload runs is checked here, and an op that
// fails a check counts as failed. Each check takes its expectation as an
// argument, so the tests can hand it a deliberately wrong one and watch it
// trip. Every function returns an empty string when the output is right
// and a one-line reason otherwise.

#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "proto/outcome.hpp"

namespace perfbench {

/// Per-property expectation for one matrix cell.
enum class Expect { kHolds, kFails };

/// The expected verdict of one protocol x regime cell: safety, termination
/// and liveness each must hold or must fail, or (`any_failure`) at least
/// one of the three must fail — the "FAILS" entry of the table.
struct CellShape {
  Expect safety = Expect::kHolds;
  Expect termination = Expect::kHolds;
  Expect liveness = Expect::kHolds;
  bool any_failure = false;
};

/// The paper's positioning, as tabulated in the header of
/// bench/bench_property_matrix.cpp:
///                         synchrony   sync+drift   partial-sync  partial+adv
///  universal [4] naive    S+T+L       FAILS        S only        S only
///  time-bounded (Thm 1)   S+T+L       S+T+L        S only        S only
///  atomic [4]             S+T+L       S+T+L        S+T, no L     S+T, no L
///  weak (Thm 3, any TM)   S+T+L       S+T+L        S+T+Lw        S+T+Lw
CellShape expected_shape(xcp::exp::ProtocolKind p, xcp::exp::Regime r);

std::string check_matrix_cell(const xcp::exp::MatrixCell& cell,
                              const CellShape& expected);

/// A sharded cell must equal the in-process cell field for field.
std::string check_sharded_cell(const xcp::exp::MatrixCell& sharded,
                               const xcp::exp::MatrixCell& in_process);

/// One committee deal: Bob paid (as expected) and every safety checker
/// (conservation, escrow security, CS1-CS3 in weak form, certificate
/// consistency) holds.
std::string check_committee_deal(const xcp::proto::RunRecord& record,
                                 bool expect_bob_paid = true);

/// What a real-process committee deal left behind.
struct NodeDealOutput {
  int client_exit = -1;
  std::string client_stdout;
  std::vector<int> notary_exits;
  std::vector<std::string> notary_stdouts;
};

/// The client exits 0 and prints "OUTCOME <expected_canonical>", and every
/// notary exits 0 and prints a DECIDED line.
std::string check_node_deal(const NodeDealOutput& out,
                            const std::string& expected_canonical);

}  // namespace perfbench
