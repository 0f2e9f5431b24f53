#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace drbench {

Tracer::Tracer(uint64_t run_id)
    : run_id_(run_id), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_s = Now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_s - spans_[i].start_s;
    self[spans_[i].name] += std::max(0.0, d - child_cover[i]);
  }
  return self;
}

std::string Tracer::ChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"drbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                  "\"args\":{\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6,
                  static_cast<unsigned long long>(run_id_), i, s.parent);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace drbench
