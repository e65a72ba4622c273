#pragma once
// Spans recorded by the benchmark's own code around each call into a layer
// of the program (the program itself is not instrumented). A span has a
// name "<layer>.<what>", start and end on the steady clock, the span that
// caused it, and the op it belongs to. Spans are kept in memory per thread
// and written at exit as Chrome trace-event JSON.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static storage: "<layer>.<what>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top level
  std::uint64_t op = 0;
  std::uint32_t tid = 0;
};

/// "<layer>" of a span name "<layer>.<what>".
std::string layer_of(const char* span_name);

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

class Tracer {
 public:
  /// Spans are recorded only while enabled; ScopedSpan is inert otherwise.
  static void set_enabled(bool on);
  static bool enabled();
  /// Every thread's spans, in no particular order. Call only while no
  /// thread is recording (after a sweep has returned).
  static std::vector<Span> collect();
  /// Drops every recorded span (keeps per-thread buffers registered).
  static void clear();
  /// Spans not kept because a thread's buffer was full.
  static std::uint64_t dropped();
  /// Records a span whose bounds were taken after the fact (a phase that
  /// ends inside an event loop). Assigns its id; returns it (0 when off).
  static std::uint64_t record(Span span);
};

/// Records one span for its lifetime. The parent defaults to the innermost
/// open span on this thread; pass `parent` explicitly for work that runs on
/// another thread than the span that caused it (sweep workers).
class ScopedSpan {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  explicit ScopedSpan(const char* name, std::uint64_t op = 0,
                      std::uint64_t parent = kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing is off) — the explicit parent for spans
  /// opened on other threads.
  std::uint64_t id() const { return span_.id; }

  /// The innermost open span on this thread (0 when none or tracing off).
  static std::uint64_t current();

 private:
  Span span_;
  std::uint64_t saved_current_ = 0;
};

/// Self time of each span: its duration minus the part of its interval that
/// the union of its children's intervals covers (children may overlap when
/// they ran on several threads). Indexed like `spans`.
std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per layer.
std::map<std::string, double> self_ns_by_layer(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, times in
/// microseconds relative to the earliest span). Returns false on I/O error.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench
