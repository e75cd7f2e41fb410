// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around every call it makes into a layer's
// public functions. A span records its name, start, end, the span that
// was open when it started (its parent) and the replication it belongs
// to; spans of one replication share that id. Spans stay in memory and
// are written out as JSON lines when the run ends. A recorder built
// disabled makes open() a no-op, so the timed and traced runs execute
// the same loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

class SpanRecorder {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root span
    std::uint32_t rep;    ///< replication id shared by its spans
  };

  /// Per-name aggregate: total span time, self time (span minus the
  /// part covered by its child spans) and the number of spans.
  struct Totals {
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t count = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class SpanRecorder;
    Scope(SpanRecorder* recorder, std::int32_t index)
        : recorder_(recorder), index_(index) {}
    SpanRecorder* recorder_;
    std::int32_t index_;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Set the replication id that spans opened from now on carry.
  void set_rep(std::uint32_t rep) noexcept { rep_ = rep; }

  /// Open a span; `name` must be a string literal (stored by pointer).
  [[nodiscard]] Scope open(const char* name);

  /// Aggregates by span name.
  std::map<std::string, Totals> totals() const;

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  void close(std::int32_t index) noexcept;

  bool enabled_;
  std::uint32_t rep_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
