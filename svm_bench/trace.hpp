// In-memory span recorder for the traced run, written out as Chrome-trace
// JSON (chrome://tracing, Perfetto) when the workload ends.  Spans are
// recorded by the benchmark around its own calls into each layer's public
// API; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace svmbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  /// Spans kept; later ones are only counted (the per-layer metrics come
  /// from in-memory samples, not from the file), which bounds the file to
  /// a few MB.
  static constexpr std::size_t kMaxSpans = 50000;

  /// A fresh span id, so a parent can be named before its span closes.
  [[nodiscard]] std::uint64_t new_id() noexcept { return next_id_++; }

  /// Record a complete span.  `async` spans may overlap others on the same
  /// thread (a request's lifetime); the rest nest by time.
  void record(std::string name, const char* cat, Clock::time_point begin,
              Clock::time_point end, std::uint64_t id, std::uint64_t parent = 0,
              bool async = false) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{std::move(name), cat, begin, end, id, parent, async});
  }

  /// Write the Chrome-trace JSON; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
        << dropped_ << "},\"traceEvents\":[\n";
    bool first = true;
    const auto event = [&](const Span& s, const char* ph, Clock::time_point at,
                           bool with_dur) {
      out << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << s.cat << "\",\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":1,\"ts\":"
          << micros(at);
      if (with_dur) out << ",\"dur\":" << micros(s.begin, s.end);
      if (s.async) out << ",\"id\":" << s.id;
      out << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
      first = false;
    };
    for (const Span& s : spans_) {
      if (s.async) {
        event(s, "b", s.begin, false);
        event(s, "e", s.end, false);
      } else {
        event(s, "X", s.begin, true);
      }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    Clock::time_point begin;
    Clock::time_point end;
    std::uint64_t id;
    std::uint64_t parent;
    bool async;
  };

  [[nodiscard]] double micros(Clock::time_point at) const {
    return micros(origin_, at);
  }
  [[nodiscard]] static double micros(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::size_t dropped_ = 0;
};

}  // namespace svmbench
