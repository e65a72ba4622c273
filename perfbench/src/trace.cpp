#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

/// Per-thread span buffer. Owned jointly by the registry and the thread, so
/// collect() stays valid after a recording thread has exited.
struct ThreadBuffer {
  static constexpr std::size_t kCap = 200'000;
  std::vector<Span> spans;
  std::uint32_t tid = 0;
  std::uint64_t current = 0;  // innermost open span on this thread
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded by mu
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> dropped{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    b->tid = static_cast<std::uint32_t>(r.buffers.size() + 1);
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

std::string layer_of(const char* span_name) {
  const std::string s(span_name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::set_enabled(bool on) { registry().enabled.store(on); }

bool Tracer::enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

std::vector<Span> Tracer::collect() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Span> out;
  for (const auto& b : r.buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::clear() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.buffers) b->spans.clear();
  r.dropped.store(0);
}

std::uint64_t Tracer::dropped() { return registry().dropped.load(); }

std::uint64_t Tracer::record(Span span) {
  if (!enabled()) return 0;
  ThreadBuffer& b = local_buffer();
  span.id = registry().next_id.fetch_add(1, std::memory_order_relaxed);
  span.tid = b.tid;
  if (b.spans.size() < ThreadBuffer::kCap) {
    b.spans.push_back(span);
  } else {
    registry().dropped.fetch_add(1, std::memory_order_relaxed);
  }
  return span.id;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t op,
                       std::uint64_t parent) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& b = local_buffer();
  span_.name = name;
  span_.op = op;
  span_.parent = parent == kInherit ? b.current : parent;
  span_.id = registry().next_id.fetch_add(1, std::memory_order_relaxed);
  span_.tid = b.tid;
  saved_current_ = b.current;
  b.current = span_.id;
  span_.start_ns = now_ns();
}

std::uint64_t ScopedSpan::current() {
  return Tracer::enabled() ? local_buffer().current : 0;
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  ThreadBuffer& b = local_buffer();
  b.current = saved_current_;
  if (b.spans.size() < ThreadBuffer::kCap) {
    b.spans.push_back(span_);
  } else {
    registry().dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index.end()) {
      children[it->second].push_back(i);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

std::map<std::string, double> self_ns_by_layer(const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layer_of(spans[i].name)] += static_cast<double>(self[i]);
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : spans) {
    const std::string layer = layer_of(s.name);
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                 first ? "" : ",", s.name, layer.c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
