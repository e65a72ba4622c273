#include "workloads.hpp"

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "baselines/interledger.hpp"
#include "checks.hpp"
#include "consensus/standalone.hpp"
#include "exp/dispatch.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "net/wal.hpp"
#include "net/wire.hpp"
#include "procs.hpp"
#include "props/checkers.hpp"
#include "proto/timebounded.hpp"
#include "proto/weak/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

BatchClock::BatchClock()
    : t0_ns_(now_ns()), cpu0_s_(cpu_seconds_self() + cpu_seconds_children()) {}

double BatchClock::finish(LoopResult& r, std::uint64_t ops) const {
  const double wall_s = static_cast<double>(now_ns() - t0_ns_) / 1e9;
  const double cpu_s = cpu_seconds_self() + cpu_seconds_children() - cpu0_s_;
  r.batch_ops_per_s.push_back(static_cast<double>(ops) / wall_s);
  r.batch_cpu_us_per_op.push_back(cpu_s * 1e6 / static_cast<double>(ops));
  return wall_s * 1e3;
}

namespace {

using namespace xcp;
using exp::ProtocolKind;
using exp::Regime;

constexpr int kChainN = 2;

double ms_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

/// splitmix64: derives independent input streams from the run's seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// First simulator seed of a workload's input range: seed-dependent, and
/// far enough apart that batches never overlap.
std::uint64_t base_seed(std::uint64_t seed, std::uint64_t stream) {
  return 1 + (mix(seed, stream) % 1'000'000) * 1'000'000;
}

struct CellId {
  ProtocolKind protocol;
  Regime regime;
};

std::vector<CellId> matrix_cells() {
  const ProtocolKind protocols[] = {
      ProtocolKind::kUniversalNaive,   ProtocolKind::kTimeBounded,
      ProtocolKind::kInterledgerAtomic, ProtocolKind::kWeakTrusted,
      ProtocolKind::kWeakContract,     ProtocolKind::kWeakCommittee};
  const Regime regimes[] = {
      Regime::kSynchronyConforming, Regime::kSynchronyHighDrift,
      Regime::kPartialSynchrony, Regime::kPartialSynchronyAdversarial};
  std::vector<CellId> out;
  for (ProtocolKind p : protocols) {
    for (Regime r : regimes) out.push_back({p, r});
  }
  return out;
}

std::string cell_key(const CellId& c) {
  return std::string(exp::protocol_token(c.protocol)) + "." +
         exp::regime_token(c.regime);
}

void add_tail(std::vector<Metric>& out, const std::string& name,
              const std::vector<double>& v, const std::string& unit) {
  out.push_back({name + ".p50", median(v), unit});
  out.push_back({name + ".tail", tail(v).value, unit});
}

// ------------------------------------------------------------------ matrix

/// The whole 6x4 matrix through exp::run_matrix_cell (streaming, online
/// early stop, SweepPool on nproc threads). An op is one seed; a latency
/// sample is one cell call; a completion sample is one whole-matrix pass.
class MatrixWorkload final : public Workload {
 public:
  static constexpr std::size_t kSeedsPerCell = 1024;

  std::string context() const override {
    std::ostringstream s;
    s << "threads=" << nproc_ << " processes=1 seeds_per_cell="
      << kSeedsPerCell << " cells=24 first_seed=" << first_seed_;
    return s.str();
  }

  void prepare(const RunContext& ctx) override {
    nproc_ = ctx.nproc;
    cells_ = matrix_cells();
    first_seed_ = base_seed(ctx.seed, 1);
    // Warm-up: starts the pool's threads and fills per-thread pools.
    for (const CellId& c : cells_) {
      exp::run_matrix_cell(c.protocol, c.regime, kChainN, 64, first_seed_);
    }
    cell_ms_.assign(cells_.size(), {});
    first_pass_ = {};
    traced_cpu_s_ = traced_wall_s_ = 0.0;
    traced_events_ = 0;
  }

  void run(LoopResult& r, std::uint64_t deadline_ns,
           std::uint64_t max_batches, bool traced) override {
    const double cpu0 = cpu_seconds_self();
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t pass = 0;
         pass < max_batches && (pass == 0 || now_ns() < deadline_ns);
         ++pass) {
      const std::uint64_t first = first_seed_ + pass * kSeedsPerCell;
      const BatchClock clock;
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        const CellId& c = cells_[i];
        const std::uint64_t c0 = now_ns();
        exp::MatrixCell cell;
        {
          const ScopedSpan span("exp.run_matrix_cell", pass * 100 + i);
          cell = exp::run_matrix_cell(c.protocol, c.regime, kChainN,
                                      kSeedsPerCell, first);
        }
        const double ms = ms_between(c0, now_ns());
        r.op_ms.push_back(ms);
        r.ops += kSeedsPerCell;
        const std::string why =
            check_matrix_cell(cell, expected_shape(c.protocol, c.regime));
        if (!why.empty()) r.fail(kSeedsPerCell, why);
        if (traced) {
          cell_ms_[i].push_back(ms);
          traced_events_ += cell.events_total;
          if (pass == 0) {
            first_pass_.runs += cell.runs;
            first_pass_.events += cell.events_total;
            first_pass_.early_stops += cell.early_stops;
          }
        }
      }
      r.exit_ms.push_back(clock.finish(r, kSeedsPerCell * cells_.size()));
    }
    if (traced) {
      traced_cpu_s_ += cpu_seconds_self() - cpu0;
      traced_wall_s_ += ms_between(t0, now_ns()) / 1e3;
    }
  }

  bool layer_metrics(std::vector<Metric>& out, std::string& why) override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      out.push_back({"exp.cell_ms." + cell_key(cells_[i]),
                     median(cell_ms_[i]), "ms"});
    }
    out.push_back({"exp.pool_busy_share",
                   traced_cpu_s_ / (traced_wall_s_ * nproc_), "ratio"});
    const double runs = static_cast<double>(first_pass_.runs);
    out.push_back({"sim.events_per_op.matrix",
                   static_cast<double>(first_pass_.events) / runs, "count"});
    out.push_back({"sim.ns_per_event.matrix",
                   traced_cpu_s_ * 1e9 / static_cast<double>(traced_events_),
                   "ns"});
    out.push_back({"props.early_stop_ratio",
                   static_cast<double>(first_pass_.early_stops) / runs,
                   "ratio"});
    return protocol_probe(out, why) && monitor_probe(out);
  }

 private:
  /// Calls each protocol family's runner and the batch checkers directly,
  /// one seed at a time on this thread, with a span around each call.
  bool protocol_probe(std::vector<Metric>& out, std::string& why) {
    constexpr std::size_t kSeeds = 64;
    std::map<std::string, std::vector<double>> run_us;
    std::vector<double> check_us;
    const props::OnlineOptions online{/*enabled=*/true, /*early_stop=*/true};
    for (std::uint64_t s = first_seed_; s < first_seed_ + kSeeds; ++s) {
      const auto timed = [&](const char* span, const std::string& family,
                             auto&& fn) {
        const std::uint64_t t0 = now_ns();
        proto::RunRecord rec;
        {
          const ScopedSpan sp(span, s);
          rec = fn();
        }
        run_us[family].push_back(ms_between(t0, now_ns()) * 1e3);
        const std::uint64_t c0 = now_ns();
        bool safe = true;
        {
          const ScopedSpan sp("props.check_batch", s);
          const bool weak = family != "time-bounded";
          const props::PropertyResult res[] = {
              props::check_conservation(rec),
              props::check_escrow_security(rec),
              props::check_cs1(rec, weak),
              props::check_cs2(rec, weak),
              props::check_cs3(rec),
              props::check_certificate_consistency(rec)};
          for (const auto& x : res) safe = safe && (!x.applicable || x.holds);
        }
        check_us.push_back(ms_between(c0, now_ns()) * 1e3);
        if (!safe || !rec.bob_paid()) {
          why = family + " probe: seed " + std::to_string(s) +
                " violated safety or left Bob unpaid";
        }
      };
      timed("proto.run_time_bounded", "time-bounded", [&] {
        proto::TimeBoundedConfig cfg = exp::thm1_config(kChainN, s);
        cfg.online = online;
        return proto::run_time_bounded(cfg);
      });
      timed("proto.run_weak", "weak", [&] {
        proto::weak::WeakConfig cfg =
            exp::thm3_config(proto::weak::TmKind::kTrustedParty, kChainN, s);
        cfg.online = online;
        return proto::weak::run_weak(cfg);
      });
      timed("proto.run_atomic", "atomic", [&] {
        baselines::AtomicConfig cfg;
        cfg.weak =
            exp::thm3_config(proto::weak::TmKind::kTrustedParty, kChainN, s);
        cfg.weak.env = exp::conforming_env(exp::default_timing());
        cfg.weak.online = online;
        cfg.notary_deadline = Duration::seconds(3);
        return baselines::run_atomic(cfg);
      });
    }
    for (const auto& [family, v] : run_us) {
      add_tail(out, "proto.run_us." + family, v, "us");
    }
    double sum = 0.0;
    for (double v : check_us) sum += v;
    out.push_back({"props.check_us_per_op",
                   sum / static_cast<double>(check_us.size()), "us"});
    return why.empty();
  }

  /// CPU cost of the online monitor: one reduced matrix pass with the
  /// monitor attached but no early stop, minus the same pass without it.
  bool monitor_probe(std::vector<Metric>& out) {
    constexpr std::size_t kSeeds = 128;
    const auto pass_cpu = [&](const char* span, bool monitor) {
      exp::CellOptions opts;
      opts.online = {/*enabled=*/monitor, /*early_stop=*/false};
      const ScopedSpan sp(span);
      const double c0 = cpu_seconds_self();
      for (const CellId& c : cells_) {
        exp::run_matrix_cell(c.protocol, c.regime, kChainN, kSeeds,
                             first_seed_, opts);
      }
      return cpu_seconds_self() - c0;
    };
    const double off = pass_cpu("exp.matrix_pass_monitor_off", false);
    const double on = pass_cpu("exp.matrix_pass_monitor_on", true);
    out.push_back({"props.online_us_per_op",
                   (on - off) * 1e6 /
                       static_cast<double>(kSeeds * cells_.size()),
                   "us"});
    return true;
  }

  struct Counts {
    std::uint64_t runs = 0;
    std::uint64_t events = 0;
    std::uint64_t early_stops = 0;
  };

  unsigned nproc_ = 1;
  std::vector<CellId> cells_;
  std::uint64_t first_seed_ = 1;
  std::vector<std::vector<double>> cell_ms_;
  Counts first_pass_;
  double traced_cpu_s_ = 0.0;
  double traced_wall_s_ = 0.0;
  std::uint64_t traced_events_ = 0;
};

// ---------------------------------------------------------- matrix-sharded

/// The same matrix through exp::distributed_sweep with the real
/// xcp_sweep_shard worker, one shard (worker process) per cell at a time,
/// few seeds per cell. Passes cycle over kRanges seed ranges whose
/// in-process cells are computed at set-up, so every sharded cell is
/// checked for byte-identity without re-running it in-process.
class ShardedWorkload final : public Workload {
 public:
  static constexpr std::size_t kSeedsPerCell = 64;
  static constexpr std::size_t kRanges = 4;

  std::string context() const override {
    std::ostringstream s;
    s << "threads=1 (benchmark) + " << nproc_
      << " per worker, processes=1 worker at a time (K=1 shard per cell), "
         "seeds_per_cell="
      << kSeedsPerCell << " ranges=" << kRanges
      << " first_seed=" << first_seed_;
    return s.str();
  }

  void prepare(const RunContext& ctx) override {
    nproc_ = ctx.nproc;
    worker_ = ctx.shard_bin;
    if (::access(worker_.c_str(), X_OK) != 0) {
      throw std::runtime_error("shard worker not executable: " + worker_);
    }
    cells_ = matrix_cells();
    first_seed_ = base_seed(ctx.seed, 2);
    reference_.assign(kRanges, {});
    for (std::size_t k = 0; k < kRanges; ++k) {
      for (const CellId& c : cells_) {
        reference_[k].push_back(exp::run_matrix_cell(
            c.protocol, c.regime, kChainN, kSeedsPerCell, range_first(k)));
      }
    }
    // Warm-up: one dispatched cell loads the worker binary.
    exp::DistributedOptions opts;
    opts.worker_path = worker_;
    exp::distributed_sweep(cells_[0].protocol, cells_[0].regime, kChainN,
                           kSeedsPerCell, 1, range_first(0), opts);
    sharded_ms_.clear();
    attempt_ms_.clear();
    retries_ = hedges_ = fallbacks_ = 0;
  }

  void run(LoopResult& r, std::uint64_t deadline_ns,
           std::uint64_t max_batches, bool traced) override {
    exp::DispatchReport report;
    exp::DistributedOptions opts;
    opts.worker_path = worker_;
    opts.report = &report;
    for (std::uint64_t pass = 0;
         pass < max_batches && (pass == 0 || now_ns() < deadline_ns);
         ++pass) {
      const std::size_t k = pass % kRanges;
      const BatchClock clock;
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        const CellId& c = cells_[i];
        const std::size_t attempts_before = report.attempts.size();
        const std::uint64_t c0 = now_ns();
        exp::MatrixCell cell;
        {
          const ScopedSpan span("exp.distributed_sweep", pass * 100 + i);
          cell = exp::distributed_sweep(c.protocol, c.regime, kChainN,
                                        kSeedsPerCell, /*shards=*/1,
                                        range_first(k), opts);
        }
        const double ms = ms_between(c0, now_ns());
        r.op_ms.push_back(ms);
        r.ops += kSeedsPerCell;
        const std::string why = check_sharded_cell(cell, reference_[k][i]);
        if (!why.empty()) r.fail(kSeedsPerCell, why);
        if (traced) {
          sharded_ms_.push_back(ms);
          // With one shard, a call that made exactly one attempt times that
          // attempt (the report's own wall field has 1 ms resolution).
          if (report.attempts.size() == attempts_before + 1) {
            attempt_ms_.push_back(ms);
          }
        }
      }
      r.exit_ms.push_back(clock.finish(r, kSeedsPerCell * cells_.size()));
      if (traced) {
        retries_ += report.retries;
        hedges_ += report.hedges;
        fallbacks_ += report.fallbacks;
      }
      report = {};
    }
  }

  bool layer_metrics(std::vector<Metric>& out, std::string& why) override {
    // The in-process twin of the traced cells, plus the shard codec that
    // the worker and the dispatcher run on each cell's accumulator.
    std::vector<double> in_process_ms;
    std::vector<double> codec_us;
    std::uint64_t blob_bytes = 0;
    std::size_t blobs = 0;
    for (std::size_t k = 0; k < kRanges; ++k) {
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        const CellId& c = cells_[i];
        const std::uint64_t t0 = now_ns();
        exp::CellAccum acc;
        {
          const ScopedSpan sp("exp.run_matrix_cell_accum", k * 100 + i);
          acc = exp::run_matrix_cell_accum(c.protocol, c.regime, kChainN,
                                           kSeedsPerCell, range_first(k));
        }
        in_process_ms.push_back(ms_between(t0, now_ns()));
        exp::ShardMeta meta;
        meta.protocol = c.protocol;
        meta.regime = c.regime;
        meta.n = kChainN;
        meta.first_seed = range_first(k);
        meta.seed_count = kSeedsPerCell;
        const std::uint64_t c0 = now_ns();
        exp::ShardBlob parsed;
        std::size_t bytes = 0;
        {
          const ScopedSpan sp("exp.shard_codec", k * 100 + i);
          const std::vector<std::uint8_t> blob =
              exp::serialize_shard_blob(meta, acc);
          bytes = blob.size();
          parsed = exp::parse_shard_blob(blob);
        }
        codec_us.push_back(ms_between(c0, now_ns()) * 1e3);
        if (k == 0) {
          blob_bytes += bytes;
          ++blobs;
        }
        const exp::MatrixCell cell = exp::cell_from_accum(
            c.protocol, c.regime, kSeedsPerCell, std::move(parsed.accum));
        if (!(parsed.meta == meta)) why = "shard codec: meta round-trip";
        const std::string bad = check_sharded_cell(cell, reference_[k][i]);
        if (!bad.empty()) why = "shard codec: " + bad;
      }
    }
    const auto mean = [](const std::vector<double>& v) {
      double s = 0.0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    out.push_back({"exp.dispatch_ms_per_cell",
                   mean(sharded_ms_) - mean(in_process_ms), "ms"});
    add_tail(out, "exp.attempt_ms", attempt_ms_, "ms");
    out.push_back({"exp.accum_codec_us", mean(codec_us), "us"});
    out.push_back({"exp.blob_bytes",
                   static_cast<double>(blob_bytes) / static_cast<double>(blobs),
                   "bytes"});
    out.push_back({"exp.retries", static_cast<double>(retries_), "count"});
    out.push_back({"exp.hedges", static_cast<double>(hedges_), "count"});
    out.push_back({"exp.fallbacks", static_cast<double>(fallbacks_), "count"});
    return why.empty();
  }

 private:
  std::uint64_t range_first(std::size_t k) const {
    return first_seed_ + k * kSeedsPerCell;
  }

  unsigned nproc_ = 1;
  std::string worker_;
  std::vector<CellId> cells_;
  std::uint64_t first_seed_ = 1;
  std::vector<std::vector<exp::MatrixCell>> reference_;  // [range][cell]
  // Traced passes only.
  std::vector<double> sharded_ms_;
  std::vector<double> attempt_ms_;
  std::size_t retries_ = 0;
  std::size_t hedges_ = 0;
  std::size_t fallbacks_ = 0;
};

// ----------------------------------------------------------- committee-sim

/// One weak-protocol deal with the notary-committee TM: m = 13 notaries of
/// which 4 are silent Byzantines, n = 2, the Thm 3 partial-synchrony
/// environment. Deals run in batches through exp::parallel_sweep on nproc
/// workers. An op is one deal; its latency sample runs from its batch's
/// submission to the deal's completion, what a caller handing the sweep a
/// batch waits for each result; a completion sample is one batch's wall
/// time. (A deal's own CPU time, consensus.deal_us, is bimodal — about
/// 0.28 ms and 0.45 ms here, the slow mode growing with contention between
/// the sweep's threads — so its median sits between the modes and jumps.)
class CommitteeSimWorkload final : public Workload {
 public:
  static constexpr std::size_t kBatch = 64;
  static constexpr int kNotaries = 13;
  static constexpr int kByzantine = 4;

  std::string context() const override {
    std::ostringstream s;
    s << "threads=" << nproc_ << " processes=1 notaries=" << kNotaries
      << " byzantine=" << kByzantine << " deals_per_batch=" << kBatch
      << " first_seed=" << first_seed_;
    return s.str();
  }

  static proto::weak::WeakConfig deal_config(std::uint64_t seed) {
    proto::weak::WeakConfig cfg = exp::thm3_config(
        proto::weak::TmKind::kNotaryCommittee, kChainN, seed);
    cfg.notary_count = kNotaries;
    cfg.byzantine_notaries = kByzantine;
    cfg.notary_byz = consensus::NotaryBehaviour::kSilent;
    return cfg;
  }

  void prepare(const RunContext& ctx) override {
    nproc_ = ctx.nproc;
    first_seed_ = base_seed(ctx.seed, 3);
    exp::parallel_sweep<int>(
        first_seed_, kBatch,
        [](std::uint64_t s) {
          return proto::weak::run_weak(deal_config(s)).bob_paid() ? 1 : 0;
        },
        nproc_);
    deal_us_.clear();
    first_batch_ = {};
    traced_cpu_s_ = 0.0;
    traced_events_ = 0;
  }

  struct Deal {
    double cpu_ms = 0.0;        // the deal's CPU time on its worker thread
    std::uint64_t done_ns = 0;  // when the deal (and its check) finished
    std::uint64_t events = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::string why;
  };

  void run(LoopResult& r, std::uint64_t deadline_ns,
           std::uint64_t max_batches, bool traced) override {
    const double cpu0 = cpu_seconds_self();
    for (std::uint64_t b = 0;
         b < max_batches && (b == 0 || now_ns() < deadline_ns); ++b) {
      const std::uint64_t first = first_seed_ + b * kBatch;
      const BatchClock clock;
      const std::uint64_t submitted = now_ns();
      std::vector<Deal> deals;
      {
        const ScopedSpan sweep("exp.parallel_sweep", b);
        const std::uint64_t parent = sweep.id();
        deals = exp::parallel_sweep<Deal>(
            first, kBatch,
            [parent](std::uint64_t s) {
              Deal d;
              const std::uint64_t d0 = thread_cpu_ns();
              proto::RunRecord rec;
              {
                const ScopedSpan sp("proto.run_weak", s, parent);
                rec = proto::weak::run_weak(deal_config(s));
              }
              d.cpu_ms = ms_between(d0, thread_cpu_ns());
              {
                const ScopedSpan sp("props.check_deal", s, parent);
                d.why = check_committee_deal(rec);
              }
              d.done_ns = now_ns();
              d.events = rec.stats.events_executed;
              d.sent = rec.stats.messages_sent;
              d.dropped = rec.stats.messages_dropped;
              return d;
            },
            nproc_);
      }
      r.exit_ms.push_back(clock.finish(r, kBatch));
      for (const Deal& d : deals) {
        r.op_ms.push_back(ms_between(submitted, d.done_ns));
        ++r.ops;
        if (!d.why.empty()) r.fail(1, d.why);
        if (traced) {
          deal_us_.push_back(d.cpu_ms * 1e3);
          traced_events_ += d.events;
          if (b == 0) {
            ++first_batch_.deals;
            first_batch_.events += d.events;
            first_batch_.sent += d.sent;
            first_batch_.dropped += d.dropped;
          }
        }
      }
    }
    if (traced) traced_cpu_s_ += cpu_seconds_self() - cpu0;
  }

  bool layer_metrics(std::vector<Metric>& out, std::string& why) override {
    const double deals = static_cast<double>(first_batch_.deals);
    out.push_back({"sim.events_per_op.committee-sim",
                   static_cast<double>(first_batch_.events) / deals,
                   "count"});
    out.push_back({"sim.ns_per_event.committee-sim",
                   traced_cpu_s_ * 1e9 / static_cast<double>(traced_events_),
                   "ns"});
    out.push_back({"net.msgs_per_op",
                   static_cast<double>(first_batch_.sent) / deals, "count"});
    out.push_back({"net.dropped_per_op",
                   static_cast<double>(first_batch_.dropped) / deals,
                   "count"});
    add_tail(out, "consensus.deal_us", deal_us_, "us");

    // The committee alone (no deal around it), and one quorum check.
    consensus::StandaloneCommittee sc;
    sc.seed = first_seed_;
    sc.notaries = kNotaries;
    std::vector<double> standalone_us;
    consensus::CommitteeOutcome outcome;
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t t0 = now_ns();
      {
        const ScopedSpan sp("consensus.run_standalone_sim", i);
        outcome = consensus::run_standalone_sim(sc);
      }
      standalone_us.push_back(ms_between(t0, now_ns()) * 1e3);
    }
    if (!outcome.value || !outcome.cert_valid) {
      why = "standalone committee did not certify";
      return false;
    }
    const crypto::KeyRegistry keys = sc.make_keys();
    const auto config = sc.make_config(keys);
    std::vector<double> verify_us;
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t t0 = now_ns();
      bool ok = false;
      {
        const ScopedSpan sp("crypto.verify_quorum_cert", i);
        ok = crypto::verify_quorum_cert(
            keys, outcome.cert, config->members,
            static_cast<std::size_t>(config->quorum()));
      }
      verify_us.push_back(ms_between(t0, now_ns()) * 1e3);
      if (!ok) why = "13-member certificate failed to verify";
    }
    out.push_back({"consensus.standalone_us", median(standalone_us), "us"});
    out.push_back({"crypto.verify_quorum_us", median(verify_us), "us"});
    return why.empty();
  }

 private:
  struct Counts {
    std::uint64_t deals = 0;
    std::uint64_t events = 0;
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
  };

  unsigned nproc_ = 1;
  std::uint64_t first_seed_ = 1;
  std::vector<double> deal_us_;
  Counts first_batch_;
  double traced_cpu_s_ = 0.0;
  std::uint64_t traced_events_ = 0;
};

// --------------------------------------------------------- committee-procs

/// Routes every message between per-node Networks through the wire codec
/// (serialize_message + parse_message), the in-process shape of the socket
/// deployment: one Network per xcp_node process, all on one simulator.
class WireRouter final : public net::Transport {
 public:
  explicit WireRouter(net::WireContext ctx) : ctx_(ctx) {}

  void route(sim::ProcessId pid, net::Network& to) { routes_[pid.value()] = &to; }

  void send(const net::Message& m) override {
    const auto it = routes_.find(m.to.value());
    if (it == routes_.end()) return;
    const std::uint64_t t0 = now_ns();
    net::Message parsed;
    {
      const ScopedSpan sp("net.wire_roundtrip", m.id);
      const std::vector<std::uint8_t> buf = net::serialize_message(m, ctx_);
      parsed = net::parse_message(buf, ctx_);
    }
    ns_ += now_ns() - t0;
    ++messages_;
    it->second->inject(std::move(parsed));
  }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t ns() const { return ns_; }

 private:
  net::WireContext ctx_;
  std::map<std::uint32_t, net::Network*> routes_;
  std::uint64_t messages_ = 0;
  std::uint64_t ns_ = 0;
};

/// A real 4-notary + 1-client xcp_node committee over unix sockets, with
/// fsync'd journals (--state-dir), one deal at a time over a seed list
/// derived from the run's seed. Notaries keep the default linger; the
/// client runs with --linger-ms 0, so its OUTCOME line marks the
/// certificate. An op (and a latency sample: first spawn to OUTCOME) is
/// one deal; a completion sample is first spawn to all five exited.
class CommitteeProcsWorkload final : public Workload {
 public:
  static constexpr int kNotaries = 4;
  static constexpr std::size_t kSeedList = 12;

  std::string context() const override {
    std::ostringstream s;
    s << "threads=1 processes=" << kNotaries + 1
      << " per deal (one deal at a time) node_seeds=";
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      s << (i ? "," : "") << seeds_[i];
    }
    return s.str();
  }

  void prepare(const RunContext& ctx) override {
    node_ = ctx.node_bin;
    if (::access(node_.c_str(), X_OK) != 0) {
      throw std::runtime_error("xcp_node not executable: " + node_);
    }
    dir_ = ctx.run_dir + "/procs";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    seeds_.clear();
    expected_.clear();
    for (std::size_t i = 0; i < kSeedList; ++i) {
      consensus::StandaloneCommittee sc;
      sc.seed = 1 + mix(ctx.seed, 40 + i) % 100'000;
      sc.notaries = kNotaries;
      seeds_.push_back(sc.seed);
      expected_.push_back(consensus::run_standalone_sim(sc).canonical());
    }
    // Warm-up: page the binary in (bad flags: exits 2 at once).
    Child c = spawn_in(dir_, {node_, "--warm-up"}, dir_ + "/warm.out",
                       dir_ + "/warm.err");
    while (!try_reap(c)) ::usleep(200);
    close_fds(c);
    listen_ms_.clear();
    linger_ms_.clear();
    traced_ = {};
  }

  void run(LoopResult& r, std::uint64_t deadline_ns,
           std::uint64_t max_batches, bool traced) override {
    for (std::uint64_t d = 0;
         d < max_batches && (d == 0 || now_ns() < deadline_ns); ++d) {
      const double child_cpu0 = cpu_seconds_children();
      const BatchClock clock;
      DealTimes t;
      NodeDealOutput out;
      std::string why;
      {
        const ScopedSpan sp("node.deal", d);
        why = run_deal(d, t, out);
      }
      if (why.empty()) why = check_node_deal(out, expected_[d % kSeedList]);
      ++r.ops;
      clock.finish(r, 1);
      if (!why.empty()) {
        r.fail(1, "deal " + std::to_string(d) + ": " + why);
        continue;
      }
      r.op_ms.push_back(ms_between(t.start, t.outcome));
      r.exit_ms.push_back(ms_between(t.start, t.last_exit));
      if (traced) {
        for (double ms : t.listen_ms) listen_ms_.push_back(ms);
        linger_ms_.push_back(ms_between(t.outcome, t.last_exit));
        traced_.deals += 1;
        traced_.child_cpu_s += cpu_seconds_children() - child_cpu0;
        traced_.child_life_s += t.lifetimes_s;
      }
    }
  }

  bool layer_metrics(std::vector<Metric>& out, std::string& why) override {
    out.push_back({"node.listen_ms", median(listen_ms_), "ms"});
    out.push_back({"node.linger_ms", median(linger_ms_), "ms"});
    out.push_back({"node.cpu_ms_per_deal",
                   traced_.child_cpu_s * 1e3 / traced_.deals, "ms"});
    out.push_back({"node.wait_share",
                   1.0 - traced_.child_cpu_s / traced_.child_life_s, "ratio"});
    return wal_probe(out, why) && wire_probe(out, why);
  }

 private:
  struct DealTimes {
    std::uint64_t start = 0;
    std::uint64_t outcome = 0;
    std::uint64_t last_exit = 0;
    std::vector<double> listen_ms;
    double lifetimes_s = 0.0;
  };

  /// Owns a deal's processes: whatever is still running when it goes out
  /// of scope is killed and reaped.
  struct Committee {
    std::vector<Child> notaries;
    Child client;
    ~Committee() {
      for (Child& c : notaries) kill_and_reap(c);
      kill_and_reap(client);
    }
  };

  std::vector<std::string> node_args(int id, std::uint64_t seed) const {
    return {node_,         "--node-id",  std::to_string(id),
            "--sock-dir",  ".",          "--notaries",
            std::to_string(kNotaries),   "--seed",
            std::to_string(seed),        "--value",
            "commit",      "--state-dir", "state",
            "--wall-limit-ms",           "20000"};
  }

  std::string run_deal(std::uint64_t d, DealTimes& t, NodeDealOutput& out) {
    namespace fs = std::filesystem;
    const std::uint64_t seed = seeds_[d % kSeedList];
    const std::string dir = dir_ + "/deal-" + std::to_string(d);
    fs::remove_all(dir);
    fs::create_directories(dir + "/state");
    const auto file = [&](const std::string& f) { return dir + "/" + f; };
    Committee com;
    t.start = now_ns();
    {
      const ScopedSpan sp("node.spawn_notaries", d);
      for (int k = 0; k < kNotaries; ++k) {
        const std::string n = "notary-" + std::to_string(k);
        com.notaries.push_back(spawn_in(dir, node_args(k, seed),
                                        file(n + ".out"), file(n + ".err")));
      }
    }
    {
      // Spawn the client once every notary listens, so the deal never
      // waits on a client redial backoff.
      const ScopedSpan sp("node.await_listen", d);
      std::vector<bool> up(kNotaries, false);
      int pending = kNotaries;
      while (pending > 0) {
        for (int k = 0; k < kNotaries; ++k) {
          struct stat st {};
          if (!up[k] && ::stat(file("node-" + std::to_string(k) + ".sock")
                                   .c_str(),
                               &st) == 0) {
            up[k] = true;
            --pending;
            t.listen_ms.push_back(
                ms_between(com.notaries[k].spawn_ns, now_ns()));
          }
          if (!up[k] && try_reap(com.notaries[k])) {
            return "notary " + std::to_string(k) + " exited before listening";
          }
        }
        if (ms_between(t.start, now_ns()) > 5000) {
          return "notaries not listening after 5 s";
        }
        if (pending > 0) ::usleep(100);
      }
    }
    std::vector<std::string> cargs = node_args(kNotaries, seed);
    cargs.insert(cargs.end(), {"--linger-ms", "0"});
    {
      const ScopedSpan sp("node.spawn_client", d);
      com.client = spawn_in(dir, cargs, "", file("client.err"));
    }
    const std::uint64_t deal_span = ScopedSpan::current();
    {
      std::vector<Child*> all;
      for (Child& c : com.notaries) all.push_back(&c);
      all.push_back(&com.client);
      std::size_t running = all.size();
      while (running > 0) {
        if (ms_between(t.start, now_ns()) > 25'000) {
          return "committee still running after 25 s";
        }
        // fds[0] is the client's stdout while it is open; the pipe blocks,
        // so it is read only when poll() reports it ready.
        std::vector<pollfd> fds;
        const bool piped = com.client.stdout_pipe >= 0;
        if (piped) fds.push_back({com.client.stdout_pipe, POLLIN, 0});
        bool fallback = false;
        for (Child* c : all) {
          if (c->exited) continue;
          if (c->pidfd >= 0) {
            fds.push_back({c->pidfd, POLLIN, 0});
          } else {
            fallback = true;
          }
        }
        ::poll(fds.data(), fds.size(), fallback ? 1 : 1000);
        if (piped && (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          char buf[4096];
          const ssize_t n = ::read(com.client.stdout_pipe, buf, sizeof buf);
          if (n > 0) {
            out.client_stdout.append(buf, static_cast<std::size_t>(n));
            if (t.outcome == 0 &&
                out.client_stdout.find("OUTCOME ") != std::string::npos) {
              t.outcome = now_ns();
            }
          } else if (n == 0) {
            ::close(com.client.stdout_pipe);
            com.client.stdout_pipe = -1;
          }
        }
        running = 0;
        for (Child* c : all) {
          if (!try_reap(*c)) ++running;
        }
      }
    }
    if (t.outcome == 0) t.outcome = com.client.exit_ns;
    out.client_exit = com.client.exit_code;
    t.last_exit = com.client.exit_ns;
    for (const Child& c : com.notaries) {
      t.last_exit = std::max(t.last_exit, c.exit_ns);
    }
    // The wait splits at the OUTCOME line: before it the sockets, journals
    // and consensus rounds are on the critical path, after it the linger.
    Span outcome_wait;
    outcome_wait.name = "net.await_outcome";
    outcome_wait.start_ns = com.client.spawn_ns;
    outcome_wait.end_ns = t.outcome;
    outcome_wait.parent = deal_span;
    outcome_wait.op = d;
    Tracer::record(outcome_wait);
    Span linger = outcome_wait;
    linger.name = "node.linger";
    linger.start_ns = t.outcome;
    linger.end_ns = t.last_exit;
    Tracer::record(linger);
    t.lifetimes_s = ms_between(com.client.spawn_ns, com.client.exit_ns) / 1e3;
    for (int k = 0; k < kNotaries; ++k) {
      const Child& c = com.notaries[k];
      t.lifetimes_s += ms_between(c.spawn_ns, c.exit_ns) / 1e3;
      out.notary_exits.push_back(c.exit_code);
      out.notary_stdouts.push_back(
          slurp(file("notary-" + std::to_string(k) + ".out")));
    }
    fs::remove_all(dir);
    return {};
  }

  /// WriteAheadLog::append (fsync'd) on the record shapes a notary journals
  /// per deal: prevote, precommit, and the decision with its certificate.
  bool wal_probe(std::vector<Metric>& out, std::string& why) {
    consensus::StandaloneCommittee sc;
    sc.seed = seeds_[0];
    sc.notaries = kNotaries;
    const consensus::CommitteeOutcome outcome =
        consensus::run_standalone_sim(sc);
    const crypto::KeyRegistry keys = sc.make_keys();
    const auto config = sc.make_config(keys);
    net::WireContext wctx;
    wctx.roster = &config->members;
    const std::vector<std::uint8_t> cert =
        net::serialize_certificate(outcome.cert, wctx);
    const std::string path = dir_ + "/probe.wal";
    std::filesystem::remove(path);
    net::WriteAheadLog wal(path);
    wal.open();
    std::vector<double> us;
    for (int round = 0; round < 16; ++round) {
      for (const auto kind :
           {net::WalRecordKind::kPrevote, net::WalRecordKind::kPrecommit,
            net::WalRecordKind::kDecide}) {
        net::WalRecord rec;
        rec.kind = kind;
        rec.instance = config->instance;
        rec.round = round;
        rec.value = 1;
        if (kind == net::WalRecordKind::kDecide) rec.cert = cert;
        const std::uint64_t t0 = now_ns();
        {
          const ScopedSpan sp("net.wal_append", round);
          wal.append(rec);
        }
        us.push_back(ms_between(t0, now_ns()) * 1e3);
      }
    }
    wal.close();
    const net::WalRecoverResult back =
        net::WriteAheadLog::scan([&] {
          const std::string s = slurp(path);
          return std::vector<std::uint8_t>(s.begin(), s.end());
        }());
    std::filesystem::remove(path);
    if (back.records.size() != us.size() || back.truncated) {
      why = "WAL probe: journal did not read back whole";
      return false;
    }
    add_tail(out, "net.wal_append_us", us, "us");
    return true;
  }

  /// The committee deal in one simulator, one Network per node, every
  /// cross-node message passed through the wire codec; its outcome must
  /// equal the reference outcome.
  bool wire_probe(std::vector<Metric>& out, std::string& why) {
    consensus::StandaloneCommittee sc;
    sc.seed = seeds_[0];
    sc.notaries = kNotaries;
    sim::Simulator sim(sc.seed);
    crypto::KeyRegistry keys = sc.make_keys();
    auto config = sc.make_config(keys);
    net::WireContext wctx;
    wctx.roster = &config->members;
    WireRouter router(wctx);
    const auto delay = [&] { return net::DelayModel::synchronous(sc.delta); };
    net::Network client(sim, delay());
    client.set_gateway(&router);
    std::vector<consensus::DecisionCollector*> collectors;
    for (int i = 0; i < sc.participant_count(); ++i) {
      auto& c = sim.spawn<consensus::DecisionCollector>(
          "participant_" + std::to_string(i), config, keys);
      client.attach(c);
      router.route(c.id(), client);
      collectors.push_back(&c);
    }
    std::vector<std::unique_ptr<net::Network>> nodes;
    for (int k = 0; k < sc.notaries; ++k) {
      nodes.push_back(std::make_unique<net::Network>(sim, delay()));
      nodes.back()->set_gateway(&router);
      auto& notary = sim.spawn<consensus::Notary>(
          "notary_" + std::to_string(k), config, keys);
      nodes.back()->attach(notary);
      router.route(notary.id(), *nodes.back());
    }
    const auto msgs = sc.client_messages(keys);
    sim.schedule_at(TimePoint::origin(), [&] {
      for (const auto& m : msgs) client.send(m.from, m.to, m.kind, m.body);
    });
    sim.run_until(TimePoint::origin() + Duration::seconds(120));
    consensus::CommitteeOutcome got;
    got.value = collectors[0]->value();
    if (got.value) {
      got.cert = collectors[0]->cert();
      got.cert_valid = crypto::verify_quorum_cert(
          keys, got.cert, config->members,
          static_cast<std::size_t>(config->quorum()));
    }
    if (got.canonical() != expected_[0] || router.messages() == 0) {
      why = "wire probe outcome '" + got.canonical() + "', expected '" +
            expected_[0] + "'";
      return false;
    }
    out.push_back({"net.wire_roundtrip_ns",
                   static_cast<double>(router.ns()) /
                       static_cast<double>(router.messages()),
                   "ns"});
    out.push_back({"net.wire_msgs_per_deal",
                   static_cast<double>(router.messages()), "count"});
    return true;
  }

  struct Traced {
    double deals = 0.0;
    double child_cpu_s = 0.0;
    double child_life_s = 0.0;
  };

  std::string node_;
  std::string dir_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::string> expected_;  // canonical outcome per seed
  std::vector<double> listen_ms_;
  std::vector<double> linger_ms_;
  Traced traced_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"matrix", "matrix-sharded", "committee-sim", "committee-procs"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "matrix") return std::make_unique<MatrixWorkload>();
  if (name == "matrix-sharded") return std::make_unique<ShardedWorkload>();
  if (name == "committee-sim") return std::make_unique<CommitteeSimWorkload>();
  if (name == "committee-procs") {
    return std::make_unique<CommitteeProcsWorkload>();
  }
  return nullptr;
}

}  // namespace perfbench
