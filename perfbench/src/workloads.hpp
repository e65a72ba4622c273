#pragma once
// The benchmark's four workloads. Each is a closed loop of op batches: the
// next batch starts when the previous one has been checked. A workload
// builds all of its inputs from the run's seed, checks every op's output
// (checks.hpp), and owns the per-layer metrics of the layers it stresses.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunContext {
  std::uint64_t seed = 1;
  unsigned nproc = 1;
  std::string run_dir;    // working directory of the process workloads
  std::string shard_bin;  // tools/xcp_sweep_shard
  std::string node_bin;   // tools/xcp_node
};

/// What one measured loop produced.
struct LoopResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::vector<double> op_ms;    // latency samples (see the workload's docs)
  std::vector<double> exit_ms;  // completion samples
  // Per batch: ops per wall second, and CPU microseconds (this process and
  // its reaped children) per op. Their medians are the throughput and CPU
  // figures, so a burst of load on a shared host that hits a minority of
  // batches does not move them.
  std::vector<double> batch_ops_per_s;
  std::vector<double> batch_cpu_us_per_op;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Wall clock and CPU time of one batch, from construction to finish().
class BatchClock {
 public:
  BatchClock();
  /// Records the batch's rate and CPU per op in `r`; returns its wall ms.
  double finish(LoopResult& r, std::uint64_t ops) const;

 private:
  std::uint64_t t0_ns_;
  double cpu0_s_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads and processes the workload uses, plus its input sizes and
  /// seeds, for the run-context line.
  virtual std::string context() const = 0;
  /// Set-up: builds the inputs (and any reference outputs the checks need)
  /// from the seed and warms the layers up. May be called repeatedly; each
  /// call replaces the previous state.
  virtual void prepare(const RunContext& ctx) = 0;
  /// Runs op batches until `deadline_ns` has passed or `max_batches` have
  /// run, appending to `r`. Every call starts again from the first batch's
  /// inputs. With `traced`, the workload also gathers the data for its
  /// per-layer metrics.
  virtual void run(LoopResult& r, std::uint64_t deadline_ns,
                   std::uint64_t max_batches, bool traced) = 0;
  /// The per-layer metrics this workload owns, from its traced batches and
  /// from spans around single layer calls made here. Returns false (with a
  /// reason in `why`) when a probe's output check fails.
  virtual bool layer_metrics(std::vector<Metric>& out, std::string& why) = 0;
};

std::vector<std::string> workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
