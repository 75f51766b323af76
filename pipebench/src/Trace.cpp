//===-- pipebench/src/Trace.cpp - In-memory span recorder -----------------===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

using namespace pipebench;

namespace {
/// This thread's innermost open span.
thread_local std::uint64_t CurrentSpan = 0;

std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}
} // namespace

int Tracer::laneOfThisThread() {
  auto [It, Inserted] = Lanes.try_emplace(std::this_thread::get_id(),
                                          static_cast<int>(Lanes.size()));
  return It->second;
}

std::uint64_t Tracer::push(Span S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!S.Virtual)
    S.Lane = laneOfThisThread();
  S.Id = Spans.size() + 1;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::uint64_t Tracer::begin(const char *Name) {
  if (!recording())
    return 0;
  Span S;
  S.Name = Name;
  S.Start = sinceOrigin(Clock::now());
  S.Parent = CurrentSpan;
  CurrentSpan = push(std::move(S));
  return CurrentSpan;
}

void Tracer::end(std::uint64_t Id) {
  if (Id == 0)
    return;
  double Now = sinceOrigin(Clock::now());
  std::lock_guard<std::mutex> Lock(Mutex);
  Span &S = Spans[Id - 1];
  S.End = Now;
  if (CurrentSpan == Id)
    CurrentSpan = S.Parent;
}

void Tracer::add(const char *Name, Clock::time_point Start,
                 Clock::time_point End, std::uint64_t Parent,
                 std::uint64_t Request) {
  if (!recording())
    return;
  Span S;
  S.Name = Name;
  S.Start = sinceOrigin(Start);
  S.End = sinceOrigin(End);
  S.Parent = Parent;
  S.Request = Request;
  push(std::move(S));
}

void Tracer::addVirtual(const char *Name, int Rank, double Start,
                        double End) {
  if (!recording())
    return;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Lane = Rank;
  S.Virtual = true;
  push(std::move(S));
}

std::size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (!S.Virtual && S.Parent != 0 && S.End >= 0.0)
      Children[S.Parent - 1].push_back({S.Start, S.End});

  std::map<std::string, double> Self;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Virtual || S.End < 0.0)
      continue;
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    double Covered = 0.0, Reach = S.Start;
    for (auto [Lo, Hi] : Kids) {
      Lo = std::max(Lo, Reach);
      Hi = std::min(Hi, S.End);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    Self[layerOf(S.Name)] += (S.End - S.Start) - Covered;
  }
  return Self;
}

bool Tracer::writeChrome(const std::string &Path,
                         const std::string &Metadata) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                  "\"traceEvents\":[\n",
               Metadata.c_str());
  std::fprintf(F, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"args\":{\"name\":\"wall clock\"}},\n"
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                  "\"args\":{\"name\":\"virtual clock (simulated ranks)\"}}");
  for (const Span &S : Spans) {
    if (S.End < 0.0)
      continue;
    std::fprintf(F,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 S.Name.c_str(), layerOf(S.Name).c_str(), S.Virtual ? 2 : 1,
                 S.Lane, S.Start * 1e6, (S.End - S.Start) * 1e6,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
