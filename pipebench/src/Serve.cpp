//===-- pipebench/src/Serve.cpp - serve_reload workload -------------------===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A closed-loop engine::Server over 64 device models loaded from .fpm
// files. One generator thread keeps a window of requests in flight (a
// pipe client of `partitioner --serve -` waits for each reply, so the
// loop is closed); totals come from a small hot set and a wide range,
// half solved geometrically and half numerically. Every ReloadEvery
// requests the generator rewrites one model file and hot-reloads it
// while requests are in flight. Exercises engine (queue, cache,
// coalescing, hints) and core (partitioners, solver, interp, ModelIO);
// never mpp, dist or blas.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/Server.h"
#include "engine/Session.h"
#include "sim/Cluster.h"
#include "support/Random.h"

#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

using namespace fupermod;
using namespace pipebench;

namespace {

constexpr int Devices = 64;
constexpr int Workers = 3;
/// Requests in flight; at least twice the workers keeps them all busy.
constexpr std::size_t Window = 6;
constexpr int ReloadEvery = 500;
/// Timed windows (of ReloadEvery requests) whose CPU time gives
/// ref_cpu_ms_per_op. The models' inverse-time caches grow with every
/// request served, so the CPU per request rises over a run, with spikes
/// at the same windows on every seed; the first GatedWindows windows are
/// the same work on every run, however many windows the host's speed
/// fits into the run.
constexpr int GatedWindows = 8;
/// Set-ups timed between two windows. Single set-ups of one run range
/// from about 1.8 to 3.9 ms, so setup_s, their median, takes a few dozen
/// samples.
constexpr int SetUpsPerWindow = 4;
/// The hot set: HotShare of the totals are drawn from HotTotals repeated
/// values, the rest from a wide range where a repeat is rare. Each value
/// is asked with two algorithms, so the cache holds up to 2 x HotTotals
/// hot keys, and a reload every ReloadEvery requests empties it. With 12%
/// over 16 values, about 6% of the requests repeat one since the last
/// reload and hit the server's cache, the level at which the serve noise
/// rules (window, workers) were first measured.
constexpr double HotShare = 0.12;
constexpr int HotTotals = 16;
/// Requests replayed single-threaded in a traced run.
constexpr int ReplayRequests = 3000;

/// One request, or a reload of one model file.
struct Event {
  engine::ServerRequest Req;
  int ReloadRank = -1; ///< >= 0: rewrite and reload this model file.
};

/// The seeded event stream: requests whose totals come from the hot set
/// or a wide range of unique ones, each solved geometrically or
/// numerically at even odds; after every ReloadEvery-th request, a reload
/// of a seeded model file.
class EventStream {
public:
  explicit EventStream(std::uint64_t Seed) : Rng(Seed * 7919 + 3) {
    for (int I = 0; I < HotTotals; ++I)
      Hot.push_back(total());
  }

  Event next() {
    Event E;
    if (Requests > 0 && Requests % ReloadEvery == 0 && !Reloaded) {
      Reloaded = true;
      E.ReloadRank = static_cast<int>(Rng.next() % Devices);
      return E;
    }
    Reloaded = false;
    ++Requests;
    E.Req.Total = Rng.uniform() < HotShare
                      ? Hot[static_cast<std::size_t>(Rng.next() % Hot.size())]
                      : total();
    E.Req.Algorithm = Rng.next() % 2 ? "numerical" : "geometric";
    return E;
  }

private:
  std::int64_t total() {
    return static_cast<std::int64_t>(Rng.uniform(20000.0, 200000.0));
  }
  SplitMix64 Rng;
  std::vector<std::int64_t> Hot;
  std::uint64_t Requests = 0;
  bool Reloaded = false;
};

/// The model files: each has its original content and an alternative
/// (its neighbour's model); a reload toggles one file between the two.
struct ModelFiles {
  std::vector<std::string> Paths;
  std::vector<std::string> Original;
  std::vector<bool> Flipped;

  bool write(int Rank, const std::string &Content) const {
    std::ofstream OS(Paths[static_cast<std::size_t>(Rank)],
                     std::ios::binary | std::ios::trunc);
    OS << Content;
    return static_cast<bool>(OS.flush());
  }
  bool toggle(int Rank) {
    std::size_t R = static_cast<std::size_t>(Rank);
    Flipped[R] = !Flipped[R];
    return write(Rank, Original[Flipped[R] ? (R + 1) % Original.size() : R]);
  }
  bool restore() {
    bool Ok = true;
    for (std::size_t R = 0; R < Paths.size(); ++R)
      if (Flipped[R])
        Ok = toggle(static_cast<int>(R)) && Ok;
    return Ok;
  }
};

/// Builds the 64 models once and saves them under \p Dir.
Status buildModels(std::uint64_t Seed, bool Smoke, const std::string &Dir,
                   ModelFiles &Files, long long &Reps) {
  engine::SessionConfig Cfg;
  // Fixed device mix, seeded measurement noise (see Jacobi.cpp).
  Cfg.Platform = makeHeterogeneousCluster(Devices);
  Cfg.Platform.Seed = Seed;
  Result<std::unique_ptr<engine::Session>> S =
      engine::Session::create(std::move(Cfg));
  if (!S)
    return Status::failure(S.error());
  ModelBuildPlan Plan;
  Plan.MinSize = 100.0;
  Plan.MaxSize = 6000.0;
  Plan.NumPoints = Smoke ? 4 : 12;
  Plan.Prec.MinReps = 3;
  Plan.Prec.MaxReps = 6;
  Plan.Prec.TargetRelativeError = 0.02;
  Plan.Jobs = 4;
  if (Status St = S.value()->measure(Plan); !St)
    return St;
  std::filesystem::create_directories(Dir);
  for (int R = 0; R < Devices; ++R) {
    for (const Point &P : S.value()->slot(R).Raw)
      Reps += P.Reps;
    std::string Path = Dir + "/dev" + std::to_string(R) + ".fpm";
    if (Status St = S.value()->saveModel(R, Path); !St)
      return St;
    std::ifstream IS(Path, std::ios::binary);
    std::ostringstream SS;
    SS << IS.rdbuf();
    Files.Paths.push_back(Path);
    Files.Original.push_back(SS.str());
  }
  Files.Flipped.assign(Devices, false);
  return okStatus();
}

/// One loaded session with its server. Srv is declared after S, so the
/// server (which holds a reference to the session) is destroyed first.
struct Service {
  std::unique_ptr<engine::Session> S;
  std::unique_ptr<engine::Server> Srv;
  double CreateSeconds = 0.0;
  double LoadSeconds = 0.0;
  std::string Error;
};

Service startService(Tracer &T, const ModelFiles &Files,
                     bool WithServer = true) {
  Service Svc;
  Svc.CreateSeconds = timeSpan(T, "engine.session_create", [&] {
    engine::SessionConfig Cfg;
    Cfg.Algorithm = "geometric";
    Result<std::unique_ptr<engine::Session>> R =
        engine::Session::create(std::move(Cfg));
    if (R)
      Svc.S = std::move(R.value());
    else
      Svc.Error = R.error();
  });
  if (!Svc.S)
    return Svc;
  Svc.LoadSeconds = timeSpan(T, "engine.load_models", [&] {
    if (Status St = Svc.S->loadModels(Files.Paths); !St)
      Svc.Error = St.error();
  });
  if (!Svc.Error.empty() || !WithServer)
    return Svc;
  timeSpan(T, "engine.server_start", [&] {
    engine::ServerConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.QueueCapacity = 4 * Window;
    Svc.Srv = std::make_unique<engine::Server>(*Svc.S, Cfg);
  });
  return Svc;
}

/// Checks one reply: answered, and its parts sum to the requested total.
void checkReply(Report &Rep, const engine::ServerRequest &Req,
                const engine::ServerResponse &R, bool Corrupt) {
  if (R.K != engine::ServerResponse::Kind::Ok) {
    Rep.check(false, R.K == engine::ServerResponse::Kind::Rejected
                         ? std::string("request shed: ") +
                               engine::rejectReasonName(R.Reason)
                         : "request failed: " + R.Message);
    return;
  }
  const Dist &D = R.Reply.D;
  Rep.check(D.Total == Req.Total && D.sum() + (Corrupt ? 1 : 0) == Req.Total,
            "reply parts do not sum to the requested total " +
                std::to_string(Req.Total));
}

/// Single-threaded replay of the seed's first \p Requests requests, with
/// their reloads, against Session::partitionRendered on a fresh session:
/// the CPU cost of a request without the server's threads, per-algorithm
/// solve times and the models' inverse-time cache counters.
void replay(Report &Rep, Tracer &T, HostSpeed &Speed, ModelFiles &Files,
            std::uint64_t Seed, int Requests) {
  Service Svc = startService(T, Files, /*WithServer=*/false);
  Rep.check(Svc.Error.empty(), "replay set-up: " + Svc.Error);
  if (!Svc.Error.empty())
    return;
  engine::Session &S = *Svc.S;
  std::uint64_t Lookups = 0, Hits = 0, Invalidations = 0;
  auto Harvest = [&](int Rank) {
    const Model *M = S.model(Rank);
    Lookups += M->cacheLookups();
    Hits += M->cacheHits();
    Invalidations += M->cacheInvalidations();
  };
  std::map<std::string, std::vector<double>> Solve;
  double Cpu = 0.0;
  EventStream Stream(Seed);
  for (int Done = 0; Done < Requests;) {
    Event E = Stream.next();
    if (E.ReloadRank >= 0) {
      // The reloaded model is replaced: take its counters first.
      Harvest(E.ReloadRank);
      Rep.check(Files.toggle(E.ReloadRank), "cannot rewrite a model file");
      Result<int> R = S.refreshModels();
      Rep.check(R && R.value() == 1, "replay reload did not reload");
      Speed.sample();
      continue;
    }
    Clock::time_point T0 = Clock::now();
    double C0 = processCpuSeconds();
    Result<engine::PartitionReply> R = [&] {
      Tracer::Scope Sc(T, "core.solve");
      return S.partitionRendered(E.Req.Total, E.Req.Algorithm);
    }();
    Cpu += processCpuSeconds() - C0;
    Solve[E.Req.Algorithm].push_back(secondsSince(T0));
    ++Done;
    engine::ServerResponse Resp;
    Resp.K = R ? engine::ServerResponse::Kind::Ok
               : engine::ServerResponse::Kind::Error;
    if (R)
      Resp.Reply = R.value();
    else
      Resp.Message = R.error();
    checkReply(Rep, E.Req, Resp, false);
  }
  for (int Rank = 0; Rank < S.rankCount(); ++Rank)
    Harvest(Rank);
  Rep.check(Files.restore(), "cannot restore the model files");
  Rep.set("core.replay_cpu_ms_per_op", 1e3 * Speed.toReference(Cpu / Requests),
          "ms");
  Rep.set("core.solve_geometric_us_p50", 1e6 * median(Solve["geometric"]),
          "us");
  Rep.set("core.solve_numerical_us_p50", 1e6 * median(Solve["numerical"]),
          "us");
  Rep.set("core.inverse_cache_hit_ratio",
          Lookups ? static_cast<double>(Hits) / Lookups : 0.0, "ratio");
  Rep.set("core.cache_invalidations", static_cast<double>(Invalidations),
          "count");
}

} // namespace

Report pipebench::runServeReload(const RunOptions &O, Tracer &T,
                                 HostSpeed &Speed) {
  Report Rep;
  ModelFiles Files;
  long long MeasureReps = 0;
  double BuildSeconds = 0.0;
  {
    Status St = okStatus();
    BuildSeconds = timeSpan(T, "core.measure", [&] {
      St = buildModels(O.Seed, O.Smoke, O.WorkDir + "/models", Files,
                       MeasureReps);
    });
    Rep.check(static_cast<bool>(St), "model build: " + St.error());
    if (!St)
      return Rep;
  }

  // Set-up: session, model load and server start. The first service is
  // the one measured; the later set-ups (SetUpsPerWindow between two
  // timed windows, with no request in flight) only time it again and are
  // then shut down.
  SetUpTimes SetUps;
  std::vector<double> CreateSeconds, LoadSeconds;
  auto SetUp = [&] {
    Service Svc;
    SetUps.sample(T, [&] { Svc = startService(T, Files); });
    CreateSeconds.push_back(Svc.CreateSeconds);
    LoadSeconds.push_back(Svc.LoadSeconds);
    return Svc;
  };
  Service Live = SetUp();
  Rep.check(Live.Error.empty(), "set-up: " + Live.Error);
  if (!Live.Error.empty())
    return Rep;
  engine::Server &Srv = *Live.Srv;
  EventStream Stream(O.Seed);

  // Warm-up: reference requests spanning the total range, checked and
  // discarded from timing. The mean predicted makespan of their answers
  // is virtual_s, the paper's objective for this workload.
  double Virtual = 0.0;
  for (int I = 0; I < 16; ++I) {
    engine::ServerRequest Req;
    Req.Total = 20000 + (I / 2) * 25000;
    Req.Algorithm = I % 2 ? "numerical" : "geometric";
    engine::ServerResponse R = Srv.submit(Req).get();
    checkReply(Rep, Req, R, false);
    Virtual += R.Reply.D.maxPredictedTime() / 16;
  }

  struct InFlight {
    engine::ServerRequest Req;
    std::future<engine::ServerResponse> F;
    Clock::time_point Submitted;
    std::uint64_t Id = 0;
    std::uint64_t WindowSpan = 0;
  };
  std::deque<InFlight> Pending;
  std::vector<double> Latency, HitLatency, MissLatency, SubmitUs, ReloadMs;
  // Per timed window: requests per wall second (in Wall), CPU seconds per
  // request.
  OpTimes Windows;
  std::set<std::pair<std::int64_t, std::string>> SinceReload;
  std::uint64_t Submitted = 0, Repeats = 0;
  bool Timed = false;
  // CPU seconds and requests of the untraced windows among the first
  // GatedWindows.
  double GatedCpu = 0.0;
  int GatedRequests = 0;
  const int Gated = O.Smoke ? 2 : GatedWindows;

  auto Complete = [&](InFlight &P) {
    engine::ServerResponse R = P.F.get();
    checkReply(Rep, P.Req, R, O.InjectWrong && P.Id == 1);
    if (R.K != engine::ServerResponse::Kind::Ok || !Timed)
      return;
    Latency.push_back(R.LatencySeconds);
    (R.CacheHit ? HitLatency : MissLatency).push_back(R.LatencySeconds);
    T.add("engine.request", P.Submitted,
          P.Submitted + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(R.LatencySeconds)),
          P.WindowSpan, P.Id);
  };
  // Submits the stream's next \p Count requests, keeping Window of them in
  // flight and doing the reloads the stream asks for between them, and
  // waits for every reply.
  auto Serve = [&](int Count, std::uint64_t WindowSpan) {
    for (int Sent = 0; Sent < Count || !Pending.empty();) {
      while (Sent < Count && Pending.size() < Window) {
        Event E = Stream.next();
        if (E.ReloadRank >= 0) {
          {
            Tracer::Scope S(T, "bench.rewrite");
            Rep.check(Files.toggle(E.ReloadRank),
                      "cannot rewrite a model file");
          }
          Clock::time_point R0 = Clock::now();
          Result<int> R = [&] {
            Tracer::Scope S(T, "engine.reload");
            return Srv.reload();
          }();
          ReloadMs.push_back(1e3 * secondsSince(R0));
          Rep.check(R && R.value() == 1, "reload did not reload one model");
          SinceReload.clear();
          continue;
        }
        InFlight P;
        P.Req = E.Req;
        P.Id = ++Submitted;
        P.WindowSpan = WindowSpan;
        if (!SinceReload.insert({P.Req.Total, P.Req.Algorithm}).second)
          ++Repeats;
        std::uint64_t SubmitSpan = T.begin("engine.submit");
        P.Submitted = Clock::now();
        P.F = Srv.submit(P.Req);
        if (Timed)
          SubmitUs.push_back(1e6 * secondsSince(P.Submitted));
        T.end(SubmitSpan);
        Pending.push_back(std::move(P));
        ++Sent;
      }
      Complete(Pending.front());
      Pending.pop_front();
    }
  };

  // The stream's first ReloadEvery / 2 requests are warm-up too. The timed
  // windows that follow are ReloadEvery requests each, so every window
  // holds exactly one reload, halfway through and with requests in flight:
  // windows of equal work, whatever the host's speed. (Windows of fixed
  // length held zero or one reload, and their CPU per request followed
  // that count.) Between windows no request is in flight; the next set-up
  // and host-speed samples are taken there.
  Serve(ReloadEvery / 2, 0);
  Timed = true;
  const Clock::time_point Start = Clock::now();
  for (int W = 0; secondsSince(Start) < O.Seconds || W < Gated; ++W) {
    bool Traced = T.enabled() && W % 2 == 1;
    T.setActive(Traced);
    for (int K = 0; K < SetUpsPerWindow; ++K)
      SetUp();
    Speed.sample();
    Speed.sample();
    std::uint64_t WindowSpan = T.begin("bench.window");
    Clock::time_point W0 = Clock::now();
    double C0 = processCpuSeconds();
    Serve(ReloadEvery, WindowSpan);
    T.end(WindowSpan);
    double Rate = ReloadEvery / secondsSince(W0);
    double Cpu = (processCpuSeconds() - C0) / ReloadEvery;
    if (Traced) {
      Windows.TracedCpu.push_back(Cpu);
    } else {
      Windows.Wall.push_back(Rate);
      Windows.Cpu.push_back(Cpu);
      if (W < Gated) {
        GatedCpu += Cpu * ReloadEvery;
        GatedRequests += ReloadEvery;
      }
    }
  }
  T.setActive(true);
  Srv.shutdown();
  engine::ServerStats St = Srv.stats();
  Rep.check(Files.restore(), "cannot restore the model files");

  Rep.set("setup_s", Speed.toReference(SetUps.median()), "s");
  Rep.set("ref_cpu_ms_per_op",
          1e3 * Speed.toReference(GatedCpu / GatedRequests), "ms");
  Rep.set("virtual_s", Virtual, "s");
  Rep.set("wall.throughput_per_s", median(Windows.Wall), "1/s");
  Rep.set("wall.latency_p50_ms", 1e3 * median(Latency), "ms");
  Rep.set("wall.latency_p99_ms", 1e3 * percentile(Latency, 0.99), "ms");
  Rep.Notes.push_back(
      std::to_string(Latency.size()) + " requests answered (latency samples)" +
      ", closed loop of " + std::to_string(Window) + " over " +
      std::to_string(Workers) + " workers, " +
      std::to_string(ReloadMs.size()) + " reloads");

  if (!T.enabled())
    return Rep;
  Live.Srv.reset(); // Free the live service's memory before the replay.
  Live.S.reset();
  replay(Rep, T, Speed, Files, O.Seed, O.Smoke ? 300 : ReplayRequests);
  auto Ratio = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };
  Rep.set("trace.overhead_ratio", Windows.overheadRatio(), "ratio");
  Rep.set("core.measure_ms", 1e3 * BuildSeconds, "ms");
  Rep.set("core.measure_reps", static_cast<double>(MeasureReps), "count");
  Rep.set("engine.session_create_ms", 1e3 * median(CreateSeconds), "ms");
  Rep.set("engine.load_models_ms", 1e3 * median(LoadSeconds), "ms");
  Rep.set("engine.submit_us_p50", median(SubmitUs), "us");
  Rep.set("engine.cache_hit_ratio",
          Ratio(static_cast<double>(St.CacheHits),
                static_cast<double>(St.CacheLookups)),
          "ratio");
  Rep.set("engine.coalesced_ratio",
          Ratio(static_cast<double>(St.Coalesced),
                static_cast<double>(St.Answered)),
          "ratio");
  Rep.set("engine.repeat_share",
          Ratio(static_cast<double>(Repeats), static_cast<double>(Submitted)),
          "ratio");
  Rep.set("engine.hit_latency_p50_ms", 1e3 * median(HitLatency), "ms");
  Rep.set("engine.miss_latency_p50_ms", 1e3 * median(MissLatency), "ms");
  Rep.set("engine.reload_ms_p50", median(ReloadMs), "ms");
  Rep.set("engine.reload_ms_max", percentile(ReloadMs, 1.0), "ms");
  Rep.set("engine.shed",
          static_cast<double>(St.ShedQueueFull + St.ShedDeadline +
                              St.ShedShutdown),
          "count");
  Rep.set("engine.errors", static_cast<double>(St.Errors), "count");
  // Idle here: measurement on a platform, Jacobi, matmul, equalize, dist,
  // mpp, blas.
  Rep.idle({{"core.partition_us", "us"},
            {"apps.layout_us", "us"},
            {"apps.jacobi_solve_ms", "ms"},
            {"mpp.messages", "count"},
            {"mpp.bytes_logical", "B"},
            {"mpp.bytes_copied", "B"},
            {"mpp.channels", "count"},
            {"dist.redistribute_bytes", "B"},
            {"equalize.rounds", "count"},
            {"equalize.triggers", "count"},
            {"equalize.vetoes", "count"},
            {"equalize.rebalances", "count"},
            {"equalize.migration_bytes", "B"},
            {"apps.virtual_wait_share", "ratio"},
            {"apps.matmul_product_ms", "ms"},
            {"blas.gemm_gflops", "GFLOP/s"},
            {"blas.kernel_share", "ratio"},
            {"apps.blocks_communicated", "count"},
            {"apps.virtual_idle_s", "s"},
            {"apps.self_s", "s"}});
  return Rep;
}
