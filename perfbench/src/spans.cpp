#include "spans.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ != nullptr) recorder_->close(index_);
}

SpanRecorder::Scope SpanRecorder::open(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, parent, rep_});
  open_.push_back(index);
  return Scope(this, index);
}

void SpanRecorder::close(std::int32_t index) noexcept {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Totals& t = out[spans_[i].name];
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
    ++t.count;
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span file " + path);
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%d,\"rep\":%u}\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin), s.parent, s.rep);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot close span file " + path);
}

}  // namespace perfbench
