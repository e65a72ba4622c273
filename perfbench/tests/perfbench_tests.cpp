// The benchmark's own tests: order statistics, span self-time subtraction,
// and that every output check trips on a deliberately wrong expectation.
// Run: .bench_build/perfbench/perfbench_tests (exit 0 = all pass), or
// ctest --test-dir .bench_build/perfbench.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "exp/scenario.hpp"
#include "proto/weak/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_selection() {
  // 1000 samples: p99's nearest rank is 990, leaving exactly 10 beyond.
  Tail t = tail(iota(1000));
  EXPECT(near(t.percentile, 99.0) && near(t.value, 990.0));
  EXPECT(t.beyond == 10 && t.qualified && t.samples == 1000);
  // 100 samples: p91 leaves 9 beyond, so p90 is the tail.
  t = tail(iota(100));
  EXPECT(near(t.percentile, 90.0) && near(t.value, 90.0) && t.beyond == 10);
  // 20 samples: only the median has 10 beyond it.
  t = tail(iota(20));
  EXPECT(near(t.percentile, 50.0) && near(t.value, 10.0) && t.qualified);
  // 19 samples: nothing qualifies; the median stands in, flagged.
  t = tail(iota(19));
  EXPECT(near(t.percentile, 50.0) && !t.qualified && t.beyond == 9);
  // 100000 samples reach p99.9 (100 beyond) and p99.99 (10 beyond).
  t = tail(iota(100000));
  EXPECT(near(t.percentile, 99.99) && near(t.value, 99990.0));
  EXPECT(tail({}).samples == 0);
}

void test_windowed_tail() {
  // Three windows of 1000 samples; a burst spoils the middle one.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(w == 1 ? 1000.0 * i : i);
  }
  Tail t = windowed_tail(v, 1000);
  EXPECT(t.windows == 3 && near(t.percentile, 99.0) && t.samples == 1000);
  EXPECT(near(t.value, 990.0));  // median of 990, 990000, 990
  EXPECT(near(tail(v).value, 970000.0));  // whole-run p99 sees the burst
  // A remainder joins the last window; fewer than two windows' worth of
  // samples falls back to the whole-run rule.
  v.resize(2500);
  t = windowed_tail(v, 1000);
  EXPECT(t.windows == 2 && t.samples == 1000);
  const std::vector<double> few = iota(1999);
  EXPECT(windowed_tail(few, 1000).windows == 1);
  EXPECT(near(windowed_tail(few, 1000).value, tail(few).value));
}

void test_quartiles_match_python() {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  Quartiles q = quartiles(iota(10));
  EXPECT(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25));
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  q = quartiles({4, 1, 3, 2});
  EXPECT(near(q.q1, 1.25) && near(q.q2, 2.5) && near(q.q3, 3.75));
  // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0] (extrapolated)
  q = quartiles({5, 1});
  EXPECT(near(q.q1, 0.0) && near(q.q2, 3.0) && near(q.q3, 6.0));
  EXPECT(near(median({3, 1, 2}), 2.0) && near(median({4, 1, 3, 2}), 2.5));
}

Span span(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
          std::uint64_t end, const char* name = "exp.x") {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time_subtraction() {
  const std::vector<Span> spans = {
      span(1, 0, 0, 100, "exp.sweep"),
      span(2, 1, 10, 30, "proto.run"),   // overlaps span 3 (two threads)
      span(3, 1, 20, 50, "proto.run"),
      span(4, 1, 90, 120, "props.check"),  // runs past its parent: clipped
      span(5, 2, 12, 15, "sim.step"),      // grandchild
      span(6, 0, 200, 210, "net.io"),      // second top-level span
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  EXPECT(self[0] == 50);  // 100 - |[10,50] u [90,100]|
  EXPECT(self[1] == 17);  // 20 - 3
  EXPECT(self[2] == 30 && self[3] == 30 && self[4] == 3 && self[5] == 10);
  const auto by_layer = self_ns_by_layer(spans);
  EXPECT(near(by_layer.at("exp"), 50) && near(by_layer.at("proto"), 47));
  EXPECT(near(by_layer.at("props"), 30) && near(by_layer.at("sim"), 3));
  // The parts sum to the top-level spans' wall time (110 ns), plus what
  // children on other threads ran in parallel (10 ns of spans 2 and 3)
  // and outside their parent (20 ns of span 4 after t = 100).
  double sum = 0;
  for (const auto& [layer, ns] : by_layer) sum += ns;
  EXPECT(near(sum, 110 + 10 + 20));
}

void test_scoped_spans_link_parents() {
  Tracer::clear();
  Tracer::set_enabled(true);
  std::uint64_t outer_id = 0;
  {
    const ScopedSpan outer("exp.outer", 7);
    outer_id = outer.id();
    { const ScopedSpan inner("sim.inner", 7); }
    { const ScopedSpan other("net.explicit", 8, /*parent=*/12345); }
  }
  Tracer::set_enabled(false);
  { const ScopedSpan off("exp.ignored"); }
  const std::vector<Span> spans = Tracer::collect();
  EXPECT(spans.size() == 3);
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "sim.inner") EXPECT(s.parent == outer_id && s.op == 7);
    if (name == "net.explicit") EXPECT(s.parent == 12345);
    if (name == "exp.outer") EXPECT(s.parent == 0 && s.end_ns >= s.start_ns);
  }
  Tracer::clear();
}

void test_matrix_check_trips() {
  using xcp::exp::ProtocolKind;
  using xcp::exp::Regime;
  const auto cell = xcp::exp::run_matrix_cell(
      ProtocolKind::kTimeBounded, Regime::kPartialSynchrony, 2, 64);
  const CellShape right =
      expected_shape(ProtocolKind::kTimeBounded, Regime::kPartialSynchrony);
  EXPECT(check_matrix_cell(cell, right).empty());
  CellShape wrong = right;
  wrong.termination = Expect::kHolds;  // Thm 2 says it cannot hold
  EXPECT(!check_matrix_cell(cell, wrong).empty());
  wrong = right;
  wrong.any_failure = true;
  const auto good = xcp::exp::run_matrix_cell(
      ProtocolKind::kWeakTrusted, Regime::kSynchronyConforming, 2, 16);
  EXPECT(!check_matrix_cell(good, wrong).empty());
  EXPECT(check_matrix_cell(good, expected_shape(good.protocol, good.regime))
             .empty());

  // Sharded cells: equal passes, any differing field trips.
  EXPECT(check_sharded_cell(cell, cell).empty());
  auto off_by_one = cell;
  off_by_one.events_total += 1;
  EXPECT(!check_sharded_cell(cell, off_by_one).empty());
}

void test_committee_check_trips() {
  auto cfg = xcp::exp::thm3_config(
      xcp::proto::weak::TmKind::kNotaryCommittee, 2, 11);
  cfg.notary_count = 7;
  cfg.byzantine_notaries = 2;
  const auto rec = xcp::proto::weak::run_weak(cfg);
  EXPECT(check_committee_deal(rec, /*expect_bob_paid=*/true).empty());
  EXPECT(!check_committee_deal(rec, /*expect_bob_paid=*/false).empty());
}

void test_node_check_trips() {
  const std::string canon =
      "value=commit cert=commit deal=13 issuer=3000013 quorum=valid";
  NodeDealOutput out;
  out.client_exit = 0;
  out.client_stdout = "OUTCOME " + canon + "\nCERT 00ff\n";
  for (int k = 0; k < 4; ++k) {
    out.notary_exits.push_back(0);
    out.notary_stdouts.push_back("DECIDED value=commit node=" +
                                 std::to_string(k) + "\n");
  }
  EXPECT(check_node_deal(out, canon).empty());
  // A wrong expectation trips, and so does each wrong output.
  EXPECT(!check_node_deal(out, "value=abort cert=abort deal=13 issuer="
                               "3000013 quorum=valid")
              .empty());
  NodeDealOutput bad = out;
  bad.client_exit = 3;
  EXPECT(!check_node_deal(bad, canon).empty());
  bad = out;
  bad.notary_stdouts[2] = "PEER-DOWN node=4 silent-ms=700\n";
  EXPECT(!check_node_deal(bad, canon).empty());
  bad = out;
  bad.notary_exits[1] = 3;
  EXPECT(!check_node_deal(bad, canon).empty());
  bad = out;
  bad.notary_exits.pop_back();
  EXPECT(!check_node_deal(bad, canon).empty());
}

}  // namespace

int main() {
  test_tail_selection();
  test_windowed_tail();
  test_quartiles_match_python();
  test_self_time_subtraction();
  test_scoped_spans_link_parents();
  test_matrix_check_trips();
  test_committee_check_trips();
  test_node_check_trips();
  if (g_failures == 0) std::printf("perfbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
