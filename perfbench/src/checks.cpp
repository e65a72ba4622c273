#include "checks.hpp"

#include <sstream>

#include "props/checkers.hpp"

namespace perfbench {

using xcp::exp::ProtocolKind;
using xcp::exp::Regime;

CellShape expected_shape(ProtocolKind p, Regime r) {
  constexpr Expect H = Expect::kHolds;
  constexpr Expect F = Expect::kFails;
  const bool synchronous = r == Regime::kSynchronyConforming ||
                           r == Regime::kSynchronyHighDrift;
  switch (p) {
    case ProtocolKind::kUniversalNaive:
      if (r == Regime::kSynchronyConforming) return {H, H, H, false};
      if (r == Regime::kSynchronyHighDrift) return {H, H, H, true};
      return {H, F, F, false};
    case ProtocolKind::kTimeBounded:
      return synchronous ? CellShape{H, H, H, false}
                         : CellShape{H, F, F, false};
    case ProtocolKind::kInterledgerAtomic:
      return synchronous ? CellShape{H, H, H, false}
                         : CellShape{H, H, F, false};
    case ProtocolKind::kWeakTrusted:
    case ProtocolKind::kWeakContract:
    case ProtocolKind::kWeakCommittee:
      return {H, H, H, false};
  }
  return {};
}

std::string check_matrix_cell(const xcp::exp::MatrixCell& cell,
                              const CellShape& expected) {
  std::ostringstream why;
  const std::string where = std::string(protocol_kind_name(cell.protocol)) +
                            " @ " + regime_name(cell.regime) + ": ";
  if (cell.runs == 0) return where + "no runs";
  if (expected.any_failure) {
    if (cell.safety_ok() && cell.termination_ok() && cell.liveness_ok()) {
      return where + "expected a failure, every property held";
    }
    return {};
  }
  const auto one = [&](const char* what, bool ok, Expect e) {
    if (ok != (e == Expect::kHolds)) {
      why << where << what << (ok ? " held, expected to fail"
                                  : " failed, expected to hold");
      return false;
    }
    return true;
  };
  if (one("safety", cell.safety_ok(), expected.safety) &&
      one("termination", cell.termination_ok(), expected.termination) &&
      one("liveness", cell.liveness_ok(), expected.liveness)) {
    return {};
  }
  return why.str();
}

std::string check_sharded_cell(const xcp::exp::MatrixCell& sharded,
                               const xcp::exp::MatrixCell& in_process) {
  if (sharded == in_process) return {};
  return std::string(protocol_kind_name(sharded.protocol)) + " @ " +
         regime_name(sharded.regime) +
         ": sharded cell differs from the in-process cell";
}

std::string check_committee_deal(const xcp::proto::RunRecord& record,
                                  bool expect_bob_paid) {
  namespace props = xcp::props;
  if (record.bob_paid() != expect_bob_paid) {
    return expect_bob_paid ? "Bob was not paid" : "Bob was paid";
  }
  const props::PropertyResult safety[] = {
      props::check_conservation(record),
      props::check_escrow_security(record),
      props::check_cs1(record, /*weak_form=*/true),
      props::check_cs2(record, /*weak_form=*/true),
      props::check_cs3(record),
      props::check_certificate_consistency(record),
  };
  for (const auto& res : safety) {
    if (res.applicable && !res.holds) return res.str();
  }
  return {};
}

namespace {

bool has_line_with_prefix(const std::string& text, const std::string& prefix,
                          std::string* line_out = nullptr) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      if (line_out != nullptr) *line_out = line;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string check_node_deal(const NodeDealOutput& out,
                            const std::string& expected_canonical) {
  if (out.client_exit != 0) {
    return "client exited " + std::to_string(out.client_exit);
  }
  std::string outcome;
  if (!has_line_with_prefix(out.client_stdout, "OUTCOME ", &outcome)) {
    return "client printed no OUTCOME line";
  }
  if (outcome != "OUTCOME " + expected_canonical) {
    return "client '" + outcome + "', expected 'OUTCOME " +
           expected_canonical + "'";
  }
  if (out.notary_exits.empty() ||
      out.notary_exits.size() != out.notary_stdouts.size()) {
    return "notary results missing";
  }
  for (std::size_t k = 0; k < out.notary_exits.size(); ++k) {
    if (out.notary_exits[k] != 0) {
      return "notary " + std::to_string(k) + " exited " +
             std::to_string(out.notary_exits[k]);
    }
    if (!has_line_with_prefix(out.notary_stdouts[k], "DECIDED ")) {
      return "notary " + std::to_string(k) + " printed no DECIDED line";
    }
  }
  return {};
}

}  // namespace perfbench
