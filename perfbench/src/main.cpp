// xcp_perfbench: the repository benchmark program (see ../README.md).
//
//   xcp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the workload untraced and reports the end-to-end
// metrics. --trace 1 runs it untraced for half the time and traced for the
// other half (the difference is the tracing overhead), then probes the
// layers the other workloads own, reports the per-layer metrics, and writes
// the spans to .bench_build/perfbench-traces/<workload>-seed<N>.json. The
// process workloads work in .bench_build/perfbench-run/<workload>-<pid>,
// removed at exit. Both paths are relative to the working directory. The
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Human-readable lines before it start with "# ". Exit code 0 when every
// op's output was correct, 1 when any check failed, 2 on usage or set-up
// errors (then no result line is printed).

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "procs.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "xcp_perfbench: " << why
            << "\nusage: xcp_perfbench --workload "
               "matrix|matrix-sharded|committee-sim|committee-procs "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Shortest round-trip decimal form: every digit as measured.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_result(bool correct, const LoopResult& r,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.ops);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

/// One measured loop with its wall clock and CPU (self + reaped children).
struct Measured {
  LoopResult r;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double host_steal_share = 0.0;
};

Measured measure(Workload& w, double seconds, bool traced) {
  Measured m;
  const double cpu0 = cpu_seconds_self() + cpu_seconds_children();
  const HostTicks h0 = host_ticks();
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  Tracer::set_enabled(traced);
  w.run(m.r, deadline, ~std::uint64_t{0}, traced);
  Tracer::set_enabled(false);
  m.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  m.cpu_s = cpu_seconds_self() + cpu_seconds_children() - cpu0;
  const HostTicks h1 = host_ticks();
  if (h1.total > h0.total) {
    m.host_steal_share = static_cast<double>(h1.steal - h0.steal) /
                         static_cast<double>(h1.total - h0.total);
  }
  return m;
}

void report_failures(const LoopResult& r) {
  for (const auto& why : r.failures) std::cout << "# FAILED: " << why << "\n";
}

int run(const Args& a, const std::string& run_dir) {
  const auto w = make_workload(a.workload);
  if (!w) usage("unknown workload " + a.workload);
  RunContext ctx;
  ctx.seed = a.seed;
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.run_dir = run_dir;
  ctx.shard_bin = XCP_PERFBENCH_SHARD_BIN;
  ctx.node_bin = XCP_PERFBENCH_NODE_BIN;
  std::filesystem::create_directories(ctx.run_dir);

  // Set-up, several times; the median is the set-up time.
  std::vector<double> setup_s;
  for (int i = 0; i < (a.trace ? 1 : 7); ++i) {
    const std::uint64_t t0 = now_ns();
    w->prepare(ctx);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::cout << "# context: workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace
            << " nproc=" << ctx.nproc << " " << w->context()
            << " build=" << XCP_PERFBENCH_BUILD_TYPE
            << " compiler=\"" << compiler() << "\"\n";

  if (a.trace == 0) {
    const Measured m = measure(*w, a.seconds, false);
    report_failures(m.r);
    const double ops = static_cast<double>(m.r.ops);
    // The reported tail is the median of per-window tails over windows of
    // kTailWindow samples; the whole-run tail is printed beside it.
    constexpr std::size_t kTailWindow = 1000;
    const Tail op_tail = windowed_tail(m.r.op_ms, kTailWindow);
    const Tail run_tail = tail(m.r.op_ms);
    const Quartiles q = quartiles(m.r.op_ms);
    long rss = peak_rss_kb_self();
    if (a.workload == "matrix-sharded" || a.workload == "committee-procs") {
      rss += peak_rss_kb_children();
    }
    std::cout << "# op latency: p50 " << median(m.r.op_ms) << " ms, q1 "
              << q.q1 << " q3 " << q.q3 << "; tail p" << op_tail.percentile
              << " = " << op_tail.value << " ms (median over "
              << op_tail.windows << " window(s) of " << op_tail.samples
              << " samples, " << op_tail.beyond << " beyond"
              << (op_tail.qualified ? "" : "; fewer than 10 beyond p50")
              << "); whole run p" << run_tail.percentile << " = "
              << run_tail.value << " ms (" << run_tail.samples
              << " samples, " << run_tail.beyond << " beyond)\n"
              << "# host: " << m.host_steal_share * 100.0
              << "% of CPU time stolen by the hypervisor during the loop\n"
              << "# completion samples: " << m.r.exit_ms.size()
              << ", failed_ratio " << (ops > 0 ? m.r.failed / ops : 0.0)
              << " (" << m.r.failed << " of " << m.r.ops << ")\n";
    const std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ops_per_s", median(m.r.batch_ops_per_s), "1/s"},
        {"cpu_us_per_op", median(m.r.batch_cpu_us_per_op), "us"},
        {"op_p50_ms", median(m.r.op_ms), "ms"},
        {"op_tail_ms", op_tail.value, "ms"},
        {"exit_p50_ms", median(m.r.exit_ms), "ms"},
        {"peak_rss_kb", static_cast<double>(rss), "kB"},
    };
    const bool correct = m.r.failed == 0 && m.r.ops > 0;
    print_result(correct, m.r, metrics);
    return correct ? 0 : 1;
  }

  // Traced run: untraced half, traced half (same inputs), then the layers
  // the other workloads own, each from one traced batch of that workload.
  const Measured plain = measure(*w, a.seconds / 2, false);
  Tracer::clear();
  const Measured traced = measure(*w, a.seconds / 2, true);
  const std::vector<Span> spans = Tracer::collect();
  std::vector<Metric> metrics;
  std::string why;
  bool ok = plain.r.failed == 0 && traced.r.failed == 0 && traced.r.ops > 0;
  report_failures(plain.r);
  report_failures(traced.r);

  const double traced_ops = static_cast<double>(traced.r.ops);
  const double plain_rate = median(plain.r.batch_ops_per_s);
  const double traced_rate = median(traced.r.batch_ops_per_s);
  metrics.push_back(
      {"trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0, "%"});
  // Self time per layer, per op; what the spans leave uncovered is the
  // recording threads' wall time minus the spans' summed self time.
  const auto by_layer = self_ns_by_layer(spans);
  double self_total = 0.0;
  for (const char* layer :
       {"exp", "sim", "proto", "props", "net", "consensus", "crypto",
        "node"}) {
    const auto it = by_layer.find(layer);
    const double ns = it == by_layer.end() ? 0.0 : it->second;
    self_total += ns;
    metrics.push_back({std::string("self_us_per_op.") + layer,
                       ns / 1e3 / traced_ops, "us"});
  }
  // committee-sim records its per-deal spans on every sweep worker; the
  // other workloads record on the main thread only.
  const double threads = a.workload == "committee-sim" ? ctx.nproc : 1.0;
  std::vector<std::uint64_t> tids;
  for (const Span& s : spans) {
    if (std::find(tids.begin(), tids.end(), s.tid) == tids.end()) {
      tids.push_back(s.tid);
    }
  }
  const double covered_share = self_total / (traced.wall_s * 1e9 * threads);
  metrics.push_back(
      {"trace.unattributed_pct", (1.0 - covered_share) * 100.0, "%"});
  std::cout << "# traced: " << spans.size() << " spans on " << tids.size()
            << " thread(s), " << Tracer::dropped() << " dropped; ops/s "
            << plain_rate << " untraced vs " << traced_rate
            << " traced; self time covers " << covered_share * 100.0
            << "% of " << traced.wall_s << " s x " << threads
            << " thread(s)\n";

  // The layer probes (and the other workloads' single batches) are traced
  // too, so the Chrome trace shows every span behind every metric.
  std::vector<Span> all = spans;
  const auto probe = [&](Workload& pw, bool one_batch) {
    Tracer::clear();
    Tracer::set_enabled(true);
    LoopResult r;
    if (one_batch) pw.run(r, 0, 1, /*traced=*/true);
    if (!pw.layer_metrics(metrics, why)) ok = false;
    Tracer::set_enabled(false);
    const std::vector<Span> more = Tracer::collect();
    all.insert(all.end(), more.begin(), more.end());
    report_failures(r);
    if (r.failed != 0) ok = false;
  };
  probe(*w, false);
  for (const std::string& other : workload_names()) {
    if (other == a.workload) continue;
    const auto o = make_workload(other);
    o->prepare(ctx);
    probe(*o, true);
  }
  if (!why.empty()) std::cout << "# FAILED: " << why << "\n";
  const std::string trace_out = ".bench_build/perfbench-traces/" + a.workload +
                                "-seed" + std::to_string(a.seed) + ".json";
  std::filesystem::create_directories(".bench_build/perfbench-traces");
  if (!write_chrome_trace(trace_out, all)) {
    std::cerr << "xcp_perfbench: cannot write " << trace_out << "\n";
    ok = false;
  } else {
    std::cout << "# chrome trace: " << trace_out << " (" << all.size()
              << " spans)\n";
  }
  LoopResult total = traced.r;
  total.ops += plain.r.ops;
  total.failed += plain.r.failed;
  print_result(ok, total, metrics);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (std::strcmp(XCP_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "xcp_perfbench: refusing a " << XCP_PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const std::string run_dir =
      std::filesystem::absolute(".bench_build/perfbench-run").string() + "/" +
      args.workload + "-" + std::to_string(::getpid());
  int rc = 2;
  try {
    rc = run(args, run_dir);
  } catch (const std::exception& e) {
    std::cerr << "xcp_perfbench: " << e.what() << "\n";
    rc = 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  return rc;
}
