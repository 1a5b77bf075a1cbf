//===-- lcbench.cpp - end-to-end benchmark program ------------------------===//
//
// Three closed-loop workloads over the analysis engine, one client thread
// each (the client sends its next request only after the previous outcome
// is back):
//
//   cold-check  fromSource + run on all labeled loops of a fresh program
//               (the single-shot CLI use; the whole substrate build blocks;
//               default jobs, so the session's pool supplies the other cores)
//   warm-serve  v2 JSONL lines asking for "jobs":1, served by a default
//               AnalysisService from 8 resident sessions (the --serve use;
//               every request warm, analysed on the client thread)
//   edit-storm  a fixed script of single-method body edits to one program,
//               each sent as full source and served by the patch path
//               (the IDE use)
//
// Why these three, which layer each one moves, and the metric names are
// documented in README.md next to this file.
//
// Every run is a sequence of identical *passes*. A pass is a fixed,
// seeded request sequence replayed from the same start state; the run
// replays whole passes until --seconds have elapsed and at least
// kMinTimedRequests requests were timed, and reports each time metric over
// all of the run's timed requests. Inputs are generated before any timed
// pass, and one untimed pass warms the allocator and arena chunk pools
// first. Every verdict is checked after its pass against an answer
// the engine did not produce (subjects: Table 1 counts and @leak
// annotations; generated programs: the leaking sites are known by
// construction).
//
// --trace 1 first measures an untraced half of the run, then a traced
// half whose requests are timed call by call from this file (the program
// gets no new spans), and prints the per-layer metrics plus the tracing
// overhead instead of the end-to-end metrics.
//
// Usage: lcbench --workload NAME --seed N --seconds S --trace 0|1
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
//
//===----------------------------------------------------------------------===//

#include "core/LeakChecker.h"
#include "fleet/Resolve.h"
#include "frontend/Lower.h"
#include "ir/Verifier.h"
#include "service/AnalysisService.h"
#include "service/ServiceJson.h"
#include "subjects/Scoring.h"
#include "subjects/Subjects.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace lc;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double cpuClockS(clockid_t Id) {
  timespec TS{};
  clock_gettime(Id, &TS);
  return static_cast<double>(TS.tv_sec) + TS.tv_nsec * 1e-9;
}

/// CPU use so far: process CPU (user + sys, all threads), the calling
/// (client) thread's share of it, and the process's context switches.
struct CpuUse {
  double ProcessS = 0, ClientS = 0, Switches = 0;

  static CpuUse now() {
    rusage RU{};
    getrusage(RUSAGE_SELF, &RU);
    return {cpuClockS(CLOCK_PROCESS_CPUTIME_ID),
            cpuClockS(CLOCK_THREAD_CPUTIME_ID),
            static_cast<double>(RU.ru_nvcsw + RU.ru_nivcsw)};
  }
  CpuUse &operator+=(const CpuUse &O) {
    ProcessS += O.ProcessS;
    ClientS += O.ClientS;
    Switches += O.Switches;
    return *this;
  }
  CpuUse operator-(const CpuUse &O) const {
    return {ProcessS - O.ProcessS, ClientS - O.ClientS, Switches - O.Switches};
  }
};

double peakRssMiB() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Timed requests a run needs before latency_p99_ms is valid: at least
/// ten samples beyond the 99th percentile.
constexpr size_t kMinTimedRequests = 1000;
/// A run stops replaying passes here even if it has too few samples
/// (latency_p99_ms is then reported invalid).
constexpr double kHardCapS = 120;
/// setup_s is the median of this many complete set-ups.
constexpr unsigned kSetupRepeats = 7;

// --- Input programs ---------------------------------------------------------

/// The generator of bench/edit_storm.cpp, reproduced so the benchmark
/// drives the same program shape: \p Clusters service clusters of which
/// the first \p Hot are stepped inside the `hot:` loop, with \p Variant[C]
/// selecting one of three same-signature tails of Svc<C>::step (changing
/// one variant is a single-method body edit). Exactly one allocation site
/// leaks out of `hot` per hot cluster: `new Rec<C>` in Svc<C>.make, kept by
/// the shared Sink.
std::string makeSubject(unsigned Clusters, unsigned Hot,
                        const std::vector<unsigned> &Variant) {
  std::ostringstream OS;
  OS << "class Sink { Object[] kept = new Object[4096]; "
        "Object[] held = new Object[4096]; int n;\n";
  OS << "  void keep(Object o) { this.kept[this.n] = o; this.n = this.n + 1; }\n";
  OS << "  void stash(Object o) { this.held[this.n] = o; this.n = this.n + 1; }\n";
  OS << "}\n";
  for (unsigned C = 0; C < Clusters; ++C) {
    const char *Sl = C < Hot ? "kept" : "held";
    OS << "class Rec" << C << " { int v; Rec" << C << " next; }\n";
    OS << "class Svc" << C << " {\n";
    OS << "  Rec" << C << " head;\n";
    OS << "  Sink store;\n";
    OS << "  Rec" << C << " make() {\n";
    OS << "    Rec" << C << " r = new Rec" << C << "();\n";
    OS << "    this.head = r;\n";
    OS << "    return r;\n";
    OS << "  }\n";
    for (unsigned W = 1; W <= 4; ++W) {
      OS << "  Rec" << C << " m" << W << "() {\n";
      OS << "    Rec" << C << " r = this."
         << (W == 1 ? std::string("make") : "m" + std::to_string(W - 1))
         << "();\n";
      OS << "    return r;\n";
      OS << "  }\n";
    }
    OS << "  void step(Sink s) {\n";
    OS << "    this.store = s;\n";
    OS << "    Rec" << C << " r = this.m4();\n";
    OS << "    s." << (C < Hot ? "keep" : "stash") << "(r);\n";
    OS << "    Sink t = this.store;\n";
    OS << "    Object o0 = t." << Sl << "[0];\n";
    OS << "    Object o1 = t." << Sl << "[1];\n";
    OS << "    Object o2 = t." << Sl << "[2];\n";
    OS << "    Object o3 = t." << Sl << "[3];\n";
    switch (Variant[C]) {
    case 0:
      OS << "    r.v = r.v + 1;\n";
      break;
    case 1:
      OS << "    int b = r.v + 2;\n";
      OS << "    r.v = b;\n";
      break;
    default:
      OS << "    Object o4 = t." << Sl << "[4];\n";
      OS << "    r.v = r.v + 1;\n";
      break;
    }
    OS << "  }\n";
    OS << "}\n";
  }
  OS << "class Main { static void main() {\n";
  OS << "  Sink sink = new Sink();\n";
  for (unsigned C = 0; C < Clusters; ++C)
    OS << "  Svc" << C << " s" << C << " = new Svc" << C << "();\n";
  for (unsigned C = 0; C < Clusters; ++C)
    OS << "  s" << C << ".step(sink);\n";
  OS << "  int i = 0;\n";
  OS << "  hot: while (i < 4) {\n";
  for (unsigned C = 0; C < Hot && C < Clusters; ++C)
    OS << "    s" << C << ".step(sink);\n";
  OS << "    i = i + 1;\n";
  OS << "  }\n";
  OS << "} }\n";
  return OS.str();
}

/// Hot clusters of every generated program.
constexpr unsigned kHot = 4;

using Rng = std::mt19937_64;

double unit01(Rng &R) { return static_cast<double>(R() >> 11) * 0x1p-53; }

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R() % I]);
}

std::vector<unsigned> randomVariants(unsigned Clusters, Rng &R) {
  std::vector<unsigned> V(Clusters);
  for (unsigned &X : V)
    X = static_cast<unsigned>(R() % 3);
  return V;
}

/// One program a workload sends: a paper subject or a generated one.
struct Input {
  std::string Name;
  std::string Source;
  const subjects::Subject *Subject = nullptr; ///< null: generated
};

Input subjectInput(const subjects::Subject &S) {
  Input I;
  I.Name = S.Name;
  I.Source = S.Source;
  I.Subject = &S;
  return I;
}

Input generatedInput(unsigned Clusters, Rng &R) {
  Input I;
  I.Name = "gen" + std::to_string(Clusters);
  I.Source = makeSubject(Clusters, kHot, randomVariants(Clusters, R));
  return I;
}

// --- Known answers ----------------------------------------------------------

/// Subject verdicts must reproduce Table 1 exactly: no missed @leak site,
/// LS and FP equal to the paper's counts.
bool subjectVerdictOk(const subjects::Subject &S, const Program &P,
                      const LeakAnalysisResult &R) {
  subjects::Score Sc = subjects::score(P, R);
  return Sc.Missed.empty() && Sc.Reported == S.PaperLeakSites &&
         Sc.falsePositives() == S.PaperFalsePos;
}

/// A generated program's `hot` loop leaks exactly `new Rec<C>` in
/// Svc<C>.make for each hot cluster C, and nothing else. Checked on the
/// rendered report, whose "* LEAK: new T @ C.m:LINE" lines name each
/// reported site.
bool generatedVerdictOk(const std::string &Rendered) {
  std::vector<std::string> Got;
  std::istringstream In(Rendered);
  const std::string Tag = "* LEAK: ";
  for (std::string Line; std::getline(In, Line);) {
    if (Line.compare(0, Tag.size(), Tag) != 0)
      continue;
    std::string Site = Line.substr(Tag.size());
    Site = Site.substr(0, Site.rfind(':'));
    Got.push_back(Site);
  }
  std::vector<std::string> Want;
  for (unsigned C = 0; C < kHot; ++C)
    Want.push_back("new Rec" + std::to_string(C) + " @ Svc" +
                   std::to_string(C) + ".make");
  std::sort(Got.begin(), Got.end());
  std::sort(Want.begin(), Want.end());
  return Got == Want;
}

/// The benchmark's own compile of each subject, used only to map the
/// allocation-site ids of a verdict to their @leak/@falsepos annotations
/// (compilation is deterministic, so ids agree with any session's).
const Program &annotatedProgram(const subjects::Subject &S) {
  static std::map<std::string, std::unique_ptr<Program>> Cache;
  std::unique_ptr<Program> &P = Cache[S.Name];
  if (!P) {
    P = std::make_unique<Program>();
    DiagnosticEngine Diags;
    if (!compileSource(S.Source, *P, Diags)) {
      std::fprintf(stderr, "lcbench: subject %s does not compile:\n%s",
                   S.Name.c_str(), Diags.str().c_str());
      std::exit(1);
    }
  }
  return *P;
}

/// Checks one outcome against the input's known answer: status ok, the
/// evaluated loop present, and its verdict equal to the answer.
bool verdictOk(const Input &In, const AnalysisOutcome &O) {
  if (!O.ok())
    return false;
  const std::string Loop = In.Subject ? In.Subject->LoopLabel : "hot";
  for (size_t I = 0; I < O.LoopLabels.size(); ++I) {
    if (O.LoopLabels[I] != Loop)
      continue;
    return In.Subject ? subjectVerdictOk(*In.Subject,
                                         annotatedProgram(*In.Subject),
                                         O.Results[I])
                      : generatedVerdictOk(O.RenderedReports[I]);
  }
  return false;
}

// --- Requests ---------------------------------------------------------------

/// The v2 wire line a --serve client sends for \p In: subjects by name
/// (the server resolves them, including Mckoi's thread modeling),
/// generated programs as inline source; always the input's checked loop.
/// \p Jobs > 0 asks for that many analysis jobs; 0 leaves the server's
/// default (all cores).
std::string wireLine(const Input &In, const std::string &Id,
                     unsigned Jobs = 0) {
  std::string L = "{\"v\":2,\"id\":" + json::quote(Id) + ",";
  if (In.Subject)
    L += "\"subject\":" + json::quote(In.Subject->Name) +
         ",\"loops\":" + json::quote(In.Subject->LoopLabel);
  else
    L += "\"source\":" + json::quote(In.Source) + ",\"loops\":\"hot\"";
  if (Jobs)
    L += ",\"options\":{\"jobs\":" + std::to_string(Jobs) + "}";
  return L + "}";
}

/// Decodes a wire line exactly as `leakchecker --serve` does.
bool decodeLine(const std::string &Line, AnalysisRequest &R) {
  json::Value Doc;
  std::string Error;
  RequestSourceRef Ref;
  if (!json::parse(Line, Doc, Error) || !parseAnalysisRequest(Doc, R, Ref, Error) ||
      !resolveRequestSource(Ref, R, Error)) {
    std::fprintf(stderr, "lcbench: bad request line: %s\n", Error.c_str());
    return false;
  }
  return true;
}

/// The request the single-shot CLI builds for \p In: default session
/// options (all cores, memo, summaries), the subject's thread-modeling
/// default, every labeled loop.
AnalysisRequest cliRequest(const Input &In) {
  AnalysisRequest R;
  R.Id = In.Name;
  R.Source = In.Source;
  R.ProgramName = In.Name;
  R.Loops = LoopSet::allLabeled();
  LeakOptions L = SessionOptions().leakOptions();
  L.ModelThreads = In.Subject && In.Subject->Options.ModelThreads;
  R.Options = SessionOptionsBuilder().fromLegacy(L).build().value();
  return R;
}

// --- Measurement ------------------------------------------------------------

/// Per-layer accumulators of a traced phase: totals over the traced
/// requests (times in ms, counters raw), turned into per-request means
/// when the metrics are printed.
struct LayerSums {
  std::map<std::string, double> Ms;
  std::map<std::string, double> Cnt;

  /// Adds the window [A, B) to timed call \p K; returns its length.
  double addMs(const std::string &K, Clock::time_point A,
               Clock::time_point B) {
    double D = msBetween(A, B);
    Ms[K] += D;
    return D;
  }
  double ms(const std::string &K) const {
    auto It = Ms.find(K);
    return It == Ms.end() ? 0 : It->second;
  }
  double cnt(const std::string &K) const {
    auto It = Cnt.find(K);
    return It == Cnt.end() ? 0 : It->second;
  }
  void addStats(const Stats &S, std::initializer_list<const char *> Names) {
    for (const char *N : Names)
      Cnt[N] += static_cast<double>(S.get(N));
  }
  void addLoopStats(const LeakAnalysisResult &R) {
    addStats(R.Statistics,
             {"cfl-queries", "cfl-states-visited", "cfl-cache-hits",
              "cfl-cache-misses", "cfl-memo-adopted", "cfl-memo-invalidated"});
  }
};

/// What a sequence of whole passes measured.
struct Phase {
  std::vector<double> LatMs; ///< per-request latency
  double WallS = 0;          ///< the passes' request windows
  CpuUse Cpu;                ///< CPU use over the same windows
  uint64_t Attempted = 0, Ok = 0;
  size_t Passes = 0;         ///< whole passes timed
  LayerSums Layers;          ///< traced phases only
};

/// Times a pass's request windows: wall and process CPU from construction
/// to end(), minus every shadow() interval (traced side calls that are not
/// part of a request).
struct PassClock {
  Phase &Ph;
  Clock::time_point W0 = Clock::now();
  CpuUse Cpu0 = CpuUse::now();
  double ShadowS = 0;
  CpuUse ShadowCpu;
  explicit PassClock(Phase &Ph) : Ph(Ph) {}
  template <typename F> void shadow(F &&Fn) {
    auto T0 = Clock::now();
    CpuUse C0 = CpuUse::now();
    Fn();
    ShadowCpu += CpuUse::now() - C0;
    ShadowS += msBetween(T0, Clock::now()) / 1000;
  }
  void end() {
    Ph.WallS += msBetween(W0, Clock::now()) / 1000 - ShadowS;
    Ph.Cpu += CpuUse::now() - Cpu0 - ShadowCpu;
    ++Ph.Passes;
  }
};

/// A workload: its set-up and one pass of its fixed request sequence.
class Workload {
public:
  virtual ~Workload() = default;
  /// The analysis jobs its sessions run with.
  virtual unsigned jobs() const { return SessionOptions().jobs(); }
  /// Generates the inputs from \p Seed and builds what users pay for
  /// once (resident sessions).
  virtual void setup(uint64_t Seed) = 0;
  /// Builds the benchmark-held sessions traced passes compare against.
  virtual void prepareTrace() {}
  /// Sends one pass, timing into \p Ph, then checks every verdict.
  virtual void pass(Phase &Ph, bool Traced) = 0;
};

/// Wire-path timings shared by warm-serve and edit-storm: decode, serve
/// and render one line, as `leakchecker --serve` does.
AnalysisOutcome serveLine(AnalysisService &Svc, const std::string &Line,
                          AnalysisRequest &R, LayerSums *L, size_t &Sink) {
  auto T0 = Clock::now();
  if (!decodeLine(Line, R))
    std::exit(1);
  auto T1 = Clock::now();
  AnalysisOutcome O = Svc.run(R);
  auto T2 = Clock::now();
  Sink += renderOutcomeJson(O).size();
  if (L) {
    auto T3 = Clock::now();
    L->addMs("service.parse", T0, T1);
    L->addMs("service.run", T1, T2);
    L->addMs("service.render", T2, T3);
  }
  return O;
}

// --- cold-check -------------------------------------------------------------

/// Generated programs per pass, one per stratum of the log-uniform
/// cluster-count range [16, 256]: stratifying keeps every seed's size mix,
/// and so its latency distribution, nearly the same.
constexpr unsigned kColdGenerated = 240;

class ColdCheck : public Workload {
  std::vector<Input> Inputs; ///< one pass, in send order
  std::vector<AnalysisRequest> Reqs;

public:
  void setup(uint64_t Seed) override {
    Rng R(Seed * 0x9e3779b97f4a7c15ull + 1);
    Inputs.clear();
    for (const subjects::Subject &S : subjects::all())
      Inputs.push_back(subjectInput(S));
    for (unsigned I = 0; I < kColdGenerated; ++I) {
      double U = (I + unit01(R)) / kColdGenerated;
      auto Clusters =
          static_cast<unsigned>(std::lround(16 * std::pow(16.0, U)));
      Inputs.push_back(generatedInput(Clusters, R));
    }
    shuffle(Inputs, R);
    Reqs.clear();
    for (const Input &In : Inputs)
      Reqs.push_back(cliRequest(In));
  }

  void pass(Phase &Ph, bool Traced) override {
    std::vector<AnalysisOutcome> Outs(Inputs.size());
    PassClock PC(Ph);
    for (size_t I = 0; I < Inputs.size(); ++I) {
      if (!Traced) {
        std::unique_ptr<LeakChecker> Session;
        auto T0 = Clock::now();
        Outs[I] = programRequest(Reqs[I], Session);
        Ph.LatMs.push_back(msBetween(T0, Clock::now()));
        continue; // Session's teardown: in the pass wall, not the latency
      }
      // The program's own fromSource + run on the same input, outside the
      // request window, alternately before and after the replay so that
      // neither one always runs on the other's warm caches.
      auto Program = [&] {
        PC.shadow([&] {
          std::unique_ptr<LeakChecker> Session;
          auto T0 = Clock::now();
          AnalysisOutcome O = programRequest(Reqs[I], Session);
          Ph.Layers.addMs("core.program", T0, Clock::now());
        });
      };
      if (I % 2)
        Program();
      tracedRequest(Reqs[I], Outs[I], Ph);
      if (!(I % 2))
        Program();
    }
    PC.end();
    for (size_t I = 0; I < Inputs.size(); ++I) {
      ++Ph.Attempted;
      Ph.Ok += verdictOk(Inputs[I], Outs[I]);
    }
  }

private:
  /// One single-shot CLI request. The session is left in \p Session, so
  /// its teardown falls outside the request's latency: the outcome is
  /// already back.
  static AnalysisOutcome programRequest(const AnalysisRequest &R,
                                        std::unique_ptr<LeakChecker> &Session) {
    DiagnosticEngine Diags;
    Session = LeakChecker::fromSource(R.Source, Diags, R.Options.leakOptions());
    if (!Session) {
      AnalysisOutcome O;
      O.Status = OutcomeStatus::CompileError;
      return O;
    }
    return Session->run(R);
  }

  /// fromSource + run, replayed through each layer's public entry point
  /// in the order LeakChecker makes the calls, every call timed. What the
  /// timed calls do not cover (option copies, loop lookup, result moves)
  /// is core.other.
  void tracedRequest(const AnalysisRequest &R, AnalysisOutcome &O,
                     Phase &Ph) {
    LayerSums &L = Ph.Layers;
    const LeakOptions &Opts = R.Options.leakOptions();
    double Parts = 0;
    auto T0 = Clock::now();
    auto P = std::make_unique<Program>();
    DiagnosticEngine Diags;
    bool Compiled = compileSource(R.Source, *P, Diags);
    auto T1 = Clock::now();
    Parts += L.addMs("frontend.compile", T0, T1);
    bool Verified = Compiled && verifyProgram(*P).empty();
    auto T2 = Clock::now();
    Parts += L.addMs("ir.verify", T1, T2);
    if (!Verified) {
      O.Status = OutcomeStatus::CompileError;
      return;
    }
    auto CG = std::make_unique<CallGraph>(*P, CallGraphKind::Rta);
    auto T3 = Clock::now();
    Parts += L.addMs("callgraph.build", T2, T3);
    auto G = std::make_unique<Pag>(*P, *CG);
    auto T4 = Clock::now();
    Parts += L.addMs("pta.pag", T3, T4);
    auto Base = std::make_unique<AndersenPta>(*G);
    auto T5 = Clock::now();
    Parts += L.addMs("pta.andersen", T4, T5);
    Stats Sub;
    Base->recordStats(Sub);
    auto T6 = Clock::now();
    std::unique_ptr<Summaries> Sums;
    if (Opts.Summaries)
      Sums = std::make_unique<Summaries>(*G, *Base, Opts.Cfl.MaxCallDepth);
    auto T7 = Clock::now();
    Parts += L.addMs("pta.summaries", T6, T7);
    auto Cfl = std::make_unique<CflPta>(*G, *Base, Opts.Cfl, Sums.get());
    auto T8 = Clock::now();
    Parts += L.addMs("pta.cfl_init", T7, T8);
    auto Esc = std::make_unique<EscapeAnalysis>(*P, *CG);
    auto T9 = Clock::now();
    Parts += L.addMs("escape.build", T8, T9);
    auto Pool = std::make_unique<ThreadPool>(Opts.Jobs);
    auto T10 = Clock::now();
    Parts += L.addMs("support.pool_spawn", T9, T10);

    LeakOptions Run = Opts;
    Run.Cancel = R.Deadline;
    for (LoopId Lp = 0; Lp < P->Loops.size(); ++Lp) {
      if (P->Loops[Lp].Label.isEmpty() ||
          !CG->isReachable(P->Loops[Lp].Method))
        continue;
      auto A0 = Clock::now();
      LeakAnalysisResult Res = analyzeLoop(*P, Lp, *CG, *G, *Base, *Cfl, Run,
                                           Esc.get(), Pool.get());
      auto A1 = Clock::now();
      std::string Text = renderLeakReport(*P, Res);
      auto A2 = Clock::now();
      Parts += L.addMs("leak.analyze", A0, A1);
      Parts += L.addMs("leak.render", A1, A2);
      L.addLoopStats(Res);
      O.LoopLabels.push_back(P->Strings.text(P->Loops[Lp].Label));
      O.RenderedReports.push_back(std::move(Text));
      O.Results.push_back(std::move(Res));
    }
    O.Status = OutcomeStatus::Ok;
    double Wall = msBetween(T0, Clock::now());
    Ph.LatMs.push_back(Wall);
    L.Ms["core.request"] += Wall;
    L.Ms["core.other"] += Wall - Parts;
    L.Cnt["requests"] += 1;
    L.Cnt["reachable-methods"] += static_cast<double>(CG->numReachable());
    L.Cnt["pag-nodes"] += static_cast<double>(G->numNodes());
    L.addStats(Sub, {"andersen-solve-iterations"});
  }
};

// --- warm-serve -------------------------------------------------------------

/// Requests per resident program per pass, shuffled: a uniform mix.
constexpr unsigned kWarmPerProgram = 16;

/// Analysis jobs a warm-serve request asks for. A warm request is a few
/// tenths of a millisecond of per-loop work: fanned out over all cores it
/// gained nothing (p50 0.19 ms at 4 jobs, 0.16 ms at 1 on a 4-vCPU VM) and
/// cost ~24 thread wake-ups per request, so its latency followed how fast
/// the host rescheduled idle vCPUs. With one job the request runs on the
/// client thread alone.
constexpr unsigned kWarmJobs = 1;

class WarmServe : public Workload {
  std::vector<Input> Resident;      ///< the 8 resident programs
  std::vector<std::string> Lines;   ///< one wire line per resident program
  std::vector<size_t> Order;        ///< one pass: indices into Resident
  std::unique_ptr<AnalysisService> Svc;
  std::vector<std::unique_ptr<LeakChecker>> Held; ///< traced: same programs
  size_t Sink = 0;

public:
  unsigned jobs() const override { return kWarmJobs; }

  void setup(uint64_t Seed) override {
    Rng R(Seed * 0x9e3779b97f4a7c15ull + 2);
    std::vector<size_t> Pick(subjects::all().size());
    for (size_t I = 0; I < Pick.size(); ++I)
      Pick[I] = I;
    shuffle(Pick, R);
    Resident.clear();
    for (size_t I = 0; I < 6; ++I)
      Resident.push_back(subjectInput(subjects::all()[Pick[I]]));
    Resident.push_back(generatedInput(64, R));
    Resident.push_back(generatedInput(256, R));
    Lines.clear();
    for (size_t I = 0; I < Resident.size(); ++I)
      Lines.push_back(
          wireLine(Resident[I], "r" + std::to_string(I), kWarmJobs));
    Order.clear();
    for (size_t I = 0; I < Resident.size(); ++I)
      Order.insert(Order.end(), kWarmPerProgram, I);
    shuffle(Order, R);

    // The default service (MaxSessions 8 holds all of them), each program
    // built once by its first request.
    Svc = std::make_unique<AnalysisService>();
    for (const std::string &Line : Lines) {
      AnalysisRequest Req;
      if (!decodeLine(Line, Req) || !Svc->run(Req).ok())
        std::exit(1);
    }
  }

  void prepareTrace() override {
    Held.clear();
    for (const std::string &Line : Lines) {
      AnalysisRequest Req;
      DiagnosticEngine Diags;
      if (!decodeLine(Line, Req))
        std::exit(1);
      Held.push_back(LeakChecker::fromSource(Req.Source, Diags,
                                             Req.Options.leakOptions()));
    }
  }

  void pass(Phase &Ph, bool Traced) override {
    std::vector<AnalysisOutcome> Outs(Order.size());
    LayerSums *L = Traced ? &Ph.Layers : nullptr;
    PassClock PC(Ph);
    for (size_t I = 0; I < Order.size(); ++I) {
      AnalysisRequest R;
      auto T0 = Clock::now();
      Outs[I] = serveLine(*Svc, Lines[Order[I]], R, L, Sink);
      Ph.LatMs.push_back(msBetween(T0, Clock::now()));
      if (Traced)
        PC.shadow([&] { traceShadow(R, *Held[Order[I]], Outs[I], *L); });
    }
    PC.end();
    for (size_t I = 0; I < Order.size(); ++I) {
      ++Ph.Attempted;
      Ph.Ok += Outs[I].Origin == SubstrateOrigin::ReusedWarm &&
               verdictOk(Resident[Order[I]], Outs[I]);
    }
  }

private:
  /// The layers below the service, timed on a benchmark-held session of
  /// the same program: the service's cache key hash, LeakChecker::run,
  /// and run's per-loop analyzeLoop + renderLeakReport.
  void traceShadow(const AnalysisRequest &R, const LeakChecker &S,
                   const AnalysisOutcome &O, LayerSums &L) {
    auto T0 = Clock::now();
    Sink += AnalysisService::programHash(R.Source);
    auto T1 = Clock::now();
    AnalysisOutcome Core = S.run(R);
    auto T2 = Clock::now();
    L.addMs("service.hash", T0, T1);
    L.addMs("core.run", T1, T2);
    LeakOptions Run = R.Options.leakOptions();
    for (const std::string &Label : R.Loops.Labels) {
      auto A0 = Clock::now();
      LeakAnalysisResult Res =
          analyzeLoop(S.program(), S.program().findLoop(Label), S.callGraph(),
                      S.pag(), S.andersen(), S.cfl(), Run, &S.escape(),
                      &S.pool());
      auto A1 = Clock::now();
      Sink += renderLeakReport(S.program(), Res).size();
      auto A2 = Clock::now();
      L.addMs("leak.analyze", A0, A1);
      L.addMs("leak.render", A1, A2);
    }
    for (const LeakAnalysisResult &Res : O.Results)
      L.addLoopStats(Res);
    L.Cnt["requests"] += 1;
  }
};

// --- edit-storm -------------------------------------------------------------

/// One pass edits every cluster of the program once, in a seeded order,
/// each to a seeded new tail: uniform over clusters, so 4 of the 128 edits
/// touch a hot cluster (and the checked loop's query cone).
constexpr unsigned kEditClusters = 128;

class EditStorm : public Workload {
  std::vector<Input> Revisions; ///< [0] = base, then one per edit
  std::vector<std::string> Lines;
  std::unique_ptr<AnalysisService> Svc;
  std::unique_ptr<LeakChecker> Held; ///< traced: the same revision chain
  bool Fresh = false; ///< the service holds only the base revision
  bool HoldChain = false;
  size_t Sink = 0;

public:
  void setup(uint64_t Seed) override {
    Rng R(Seed * 0x9e3779b97f4a7c15ull + 3);
    std::vector<unsigned> Variant = randomVariants(kEditClusters, R);
    Revisions.assign(1, Input());
    Revisions[0].Name = "rev0";
    Revisions[0].Source = makeSubject(kEditClusters, kHot, Variant);
    std::vector<unsigned> Order(kEditClusters);
    for (unsigned C = 0; C < kEditClusters; ++C)
      Order[C] = C;
    shuffle(Order, R);
    for (unsigned C : Order) {
      Variant[C] = (Variant[C] + 1 + R() % 2) % 3; // always a real change
      Input In;
      In.Name = "rev" + std::to_string(Revisions.size());
      In.Source = makeSubject(kEditClusters, kHot, Variant);
      Revisions.push_back(std::move(In));
    }
    Lines.clear();
    for (const Input &In : Revisions)
      Lines.push_back(wireLine(In, In.Name));
    reset();
  }

  void prepareTrace() override {
    HoldChain = true;
    reset();
  }

  void pass(Phase &Ph, bool Traced) override {
    if (!Fresh)
      reset(); // untimed: every pass replays the script from the base
    Fresh = false;
    std::vector<AnalysisOutcome> Outs(Lines.size());
    LayerSums *L = Traced ? &Ph.Layers : nullptr;
    PassClock PC(Ph);
    for (size_t E = 1; E < Lines.size(); ++E) {
      AnalysisRequest R;
      auto T0 = Clock::now();
      Outs[E] = serveLine(*Svc, Lines[E], R, L, Sink);
      Ph.LatMs.push_back(msBetween(T0, Clock::now()));
      if (Traced)
        PC.shadow([&] { traceShadow(R, Outs[E], *L); });
    }
    PC.end();
    for (size_t E = 1; E < Lines.size(); ++E) {
      ++Ph.Attempted;
      Ph.Ok += verdictOk(Revisions[E], Outs[E]);
    }
  }

private:
  /// A fresh service holding the base revision, built by its first
  /// request (and, when tracing, a benchmark-held session of it).
  void reset() {
    Svc = std::make_unique<AnalysisService>();
    AnalysisRequest Req;
    if (!decodeLine(Lines[0], Req) || !Svc->run(Req).ok())
      std::exit(1);
    if (HoldChain) {
      DiagnosticEngine Diags;
      Held = LeakChecker::fromSource(Req.Source, Diags,
                                     Req.Options.leakOptions());
    }
    Fresh = true;
  }

  /// The incremental layers, timed on the benchmark-held revision chain:
  /// the declaration diff, patchFrom, and run on the patched session.
  /// Counters come from the service's own outcome.
  void traceShadow(const AnalysisRequest &R, const AnalysisOutcome &O,
                   LayerSums &L) {
    auto T0 = Clock::now();
    DeclIndex Idx = scanDeclarations(R.Source);
    ProgramDiff Diff = diffDeclarations(Held->program().Decls, Idx);
    auto T1 = Clock::now();
    DiagnosticEngine Diags;
    std::unique_ptr<LeakChecker> Next =
        LeakChecker::patchFrom(*Held, R.Source, Diags);
    auto T2 = Clock::now();
    if (!Next) { // not patchable: the chain falls forward on a cold build
      Next = LeakChecker::fromSource(R.Source, Diags,
                                     R.Options.leakOptions());
      T2 = Clock::now();
    }
    Held = std::move(Next);
    AnalysisOutcome Core = Held->run(R);
    auto T3 = Clock::now();
    Sink += Diff.Edits.size() + Core.Results.size();
    L.addMs("frontend.diff", T0, T1);
    L.addMs("core.patch", T1, T2);
    L.addMs("core.run", T2, T3);
    L.Cnt["requests"] += 1;
    L.Cnt["patched"] += O.Origin == SubstrateOrigin::ReusedIncremental;
    L.addStats(O.SubstrateStats,
               {"patch-callgraph-reused", "patch-escape-incremental",
                "andersen-affected-vars", "summary-reused",
                "summary-recomputed"});
    for (const LeakAnalysisResult &Res : O.Results)
      L.addLoopStats(Res);
  }
};

// --- Reporting --------------------------------------------------------------

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank quantile of \p V (non-empty) at \p Q in (0, 1].
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::max<size_t>(Rank, 1) - 1];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Replays whole passes until \p Seconds elapsed and \p MinRequests were
/// timed (or the hard cap is reached).
Phase runPhase(Workload &W, double Seconds, bool Traced, size_t MinRequests) {
  Phase Ph;
  auto Start = Clock::now();
  do
    W.pass(Ph, Traced);
  while ((msBetween(Start, Clock::now()) < Seconds * 1000 ||
          Ph.LatMs.size() < MinRequests) &&
         msBetween(Start, Clock::now()) < kHardCapS * 1000);
  return Ph;
}

/// Traced cold-check: how far the replay's request wall time is from the
/// program's own fromSource + run on the same inputs, measured alongside
/// (replay / program - 1). A replay that leaves out, or adds, a step of
/// the program's build moves it. Other workloads read 0.
double replayGap(const LayerSums &L) {
  double Program = L.ms("core.program");
  return Program > 0 ? L.ms("core.request") / Program - 1 : 0;
}

/// The largest |trace.replay_gap| of a faithful replay. The replay makes
/// the same calls as the program, which adds only trace spans, stats
/// timers and outcome assembly; measured gaps stayed within 0.012. Leaving
/// out the summaries step (about 7% of a cold-check request) exceeds it.
constexpr double kReplayTolerance = 0.05;

/// The per-layer metrics of a traced phase, as per-request means. Layers
/// a workload never calls read 0.
std::vector<Metric> layerMetrics(const Phase &T, double UntracedRps) {
  const LayerSums &L = T.Layers;
  double N = std::max(1.0, L.cnt("requests"));
  auto Ms = [&](const char *K) { return L.ms(K) / N; };
  auto Us = [&](const char *K) { return L.ms(K) / N * 1000; };
  auto Per = [&](const char *K) { return L.cnt(K) / N; };
  bool Cold = L.Ms.count("frontend.compile") != 0;
  bool Edit = L.Ms.count("core.patch") != 0;
  bool Warm = !Cold && !Edit;
  double TracedRps = ratio(static_cast<double>(T.Attempted), T.WallS);
  double Hits = L.cnt("cfl-cache-hits"), Misses = L.cnt("cfl-cache-misses");
  double Reused = L.cnt("summary-reused"),
         Recomputed = L.cnt("summary-recomputed");
  double Adopted = L.cnt("cfl-memo-adopted"),
         Invalidated = L.cnt("cfl-memo-invalidated");
  return {
      {"frontend.compile_ms", Ms("frontend.compile"), "ms"},
      {"ir.verify_ms", Ms("ir.verify"), "ms"},
      {"callgraph.build_ms", Ms("callgraph.build"), "ms"},
      {"callgraph.reachable_methods", Per("reachable-methods"), "count"},
      {"pta.pag_ms", Ms("pta.pag"), "ms"},
      {"pta.pag_nodes", Per("pag-nodes"), "count"},
      {"pta.andersen_ms", Ms("pta.andersen"), "ms"},
      {"pta.andersen_iterations", Per("andersen-solve-iterations"), "count"},
      {"pta.summaries_ms", Ms("pta.summaries"), "ms"},
      {"pta.cfl_init_ms", Ms("pta.cfl_init"), "ms"},
      {"escape.build_ms", Ms("escape.build"), "ms"},
      {"support.pool_spawn_ms", Ms("support.pool_spawn"), "ms"},
      {"leak.analyze_ms", Ms("leak.analyze"), "ms"},
      {"leak.cfl_queries", Per("cfl-queries"), "count"},
      {"leak.cfl_states", Per("cfl-states-visited"), "count"},
      {"leak.render_ms", Ms("leak.render"), "ms"},
      {"leak.cfl_memo_hit_share", ratio(Hits, Hits + Misses), "ratio"},
      {"core.request_ms", Ms("core.request"), "ms"},
      {"core.other_ms", Ms("core.other"), "ms"},
      {"core.program_ms", Ms("core.program"), "ms"},
      {"trace.replay_gap", replayGap(L), "ratio"},
      {"service.parse_us", Us("service.parse"), "us"},
      {"service.hash_us", Us("service.hash"), "us"},
      {"service.render_us", Us("service.render"), "us"},
      {"service.run_us", Warm ? Us("service.run") : 0, "us"},
      {"core.run_us", Warm ? Us("core.run") : 0, "us"},
      {"frontend.diff_us", Us("frontend.diff"), "us"},
      {"core.patch_ms", Ms("core.patch"), "ms"},
      {"core.run_ms", Edit ? Ms("core.run") : 0, "ms"},
      {"service.run_ms", Edit ? Ms("service.run") : 0, "ms"},
      {"service.patched_share", Edit ? Per("patched") : 0, "ratio"},
      {"callgraph.reused_share", Edit ? Per("patch-callgraph-reused") : 0,
       "ratio"},
      {"escape.incremental_share", Edit ? Per("patch-escape-incremental") : 0,
       "ratio"},
      {"pta.andersen_affected_vars", Edit ? Per("andersen-affected-vars") : 0,
       "count"},
      {"pta.summary_reused_share", ratio(Reused, Reused + Recomputed),
       "ratio"},
      {"pta.cfl_memo_adopted_share", ratio(Adopted, Adopted + Invalidated),
       "ratio"},
      {"trace.throughput_rps", TracedRps, "1/s"},
      {"trace.overhead_share", 1 - ratio(TracedRps, UntracedRps), "ratio"},
  };
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "cold-check")
    return std::make_unique<ColdCheck>();
  if (Name == "warm-serve")
    return std::make_unique<WarmServe>();
  if (Name == "edit-storm")
    return std::make_unique<EditStorm>();
  return nullptr;
}

int usage() {
  std::fprintf(stderr, "usage: lcbench --workload cold-check|warm-serve|"
                       "edit-storm --seed N --seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Name;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      Name = V;
    else if (K == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      Trace = std::atoi(V.c_str());
    else
      return usage();
  }
  if (argc % 2 == 0 || Seconds <= 0 || (Trace != 0 && Trace != 1))
    return usage();

  if (!makeWorkload(Name))
    return usage();

  std::printf("# lcbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Name.c_str(), static_cast<unsigned long long>(Seed), Seconds,
              Trace);
  std::printf("# build=%s compiler=%s nproc=%u jobs=%u\n", LCBENCH_BUILD_TYPE,
              LCBENCH_COMPILER, std::thread::hardware_concurrency(),
              makeWorkload(Name)->jobs());
#ifndef NDEBUG
  // With assertions on, patchFrom recompiles and re-solves the whole
  // program after every edit to cross-check itself: that is a different
  // program from the one users run, so refuse to measure it.
  std::fprintf(stderr, "lcbench: built without NDEBUG (assertions on); "
                       "refusing to measure\n");
  return 3;
#endif

  // Set-up: input generation plus the session builds users pay once,
  // repeated so setup_s is a median; the last set-up is the one measured.
  std::unique_ptr<Workload> W;
  std::vector<double> SetupS;
  for (unsigned K = 0; K < kSetupRepeats; ++K) {
    W.reset(); // the previous set-up's teardown is not timed
    W = makeWorkload(Name);
    auto T0 = Clock::now();
    W->setup(Seed);
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000);
  }
  Phase Warmup; // untimed: allocator and arena chunk pools reach steady state
  W->pass(Warmup, false);

  std::vector<Metric> Out;
  uint64_t Attempted = 0, Ok = 0;
  bool Correct = Warmup.Ok == Warmup.Attempted;
  if (Trace == 0) {
    Phase M = runPhase(*W, Seconds, false, kMinTimedRequests);
    Attempted = M.Attempted;
    Ok = M.Ok;
    size_t N = M.LatMs.size();
    std::printf("# timed %zu requests in %zu passes, %.3f s of request "
                "time\n", N, M.Passes, M.WallS);
    // Every time metric is taken over the whole run, not as a median over
    // parts of it: on a shared host the CPU's speed can flip between
    // regimes every few seconds, and a median over parts of a run reports
    // whichever regime held the majority, where the whole run averages
    // them.
    Out.push_back({"latency_p50_ms", median(M.LatMs), "ms"});
    if (N >= kMinTimedRequests)
      Out.push_back({"latency_p99_ms", quantile(M.LatMs, 0.99), "ms"});
    else
      std::printf("# latency_p99_ms invalid: %zu < %zu timed requests\n", N,
                  kMinTimedRequests);
    Out.push_back({"throughput_rps", ratio(double(N), M.WallS), "1/s"});
    Out.push_back(
        {"cpu_ms_per_req", ratio(M.Cpu.ProcessS * 1000, double(N)), "ms"});
    Out.push_back({"peak_rss_mb", peakRssMiB(), "MiB"});
    Out.push_back({"ok_share", ratio(double(M.Ok), double(M.Attempted)),
                   "ratio"});
    Out.push_back({"setup_s", median(SetupS), "s"});
    for (const Metric &Mt : Out) {
      std::printf("# %-16s %14.6f %-5s ", Mt.Name.c_str(), Mt.Value, Mt.Unit);
      if (Mt.Name == "setup_s")
        std::printf("(median of %zu set-ups)\n", SetupS.size());
      else if (Mt.Name == "peak_rss_mb")
        std::printf("(n=1)\n");
      else if (Mt.Name == "ok_share")
        std::printf("(n=%llu)\n", static_cast<unsigned long long>(M.Attempted));
      else
        std::printf("(n=%zu)\n", N);
    }
    // Where the run's CPU went: the client thread (which runs the request
    // and waits for the pool), the other threads (the session pools), and
    // how often the process's threads were switched out.
    std::printf("# cpu split per request: client %.4f ms, other threads "
                "%.4f ms, %.2f context switches\n",
                ratio(M.Cpu.ClientS * 1000, double(N)),
                ratio((M.Cpu.ProcessS - M.Cpu.ClientS) * 1000, double(N)),
                ratio(M.Cpu.Switches, double(N)));
  } else {
    Phase U = runPhase(*W, Seconds / 2, false, 0);
    W->prepareTrace();
    Phase T = runPhase(*W, Seconds / 2, true, 0);
    Attempted = U.Attempted + T.Attempted;
    Ok = U.Ok + T.Ok;
    Out = layerMetrics(T, ratio(double(U.Attempted), U.WallS));
    double Gap = replayGap(T.Layers);
    bool Faithful = std::fabs(Gap) <= kReplayTolerance;
    Correct &= Faithful;
    std::printf("# traced %llu requests (untraced half: %llu)\n",
                static_cast<unsigned long long>(T.Attempted),
                static_cast<unsigned long long>(U.Attempted));
    for (const Metric &Mt : Out)
      std::printf("# %-28s %14.4f %s\n", Mt.Name.c_str(), Mt.Value, Mt.Unit);
    if (!Faithful)
      std::printf("# error: the traced replay is %+.1f%% off the program's "
                  "own request time (tolerance %.0f%%)\n",
                  Gap * 100, kReplayTolerance * 100);
  }
  Correct &= Ok == Attempted;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Attempted - Ok));
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].Name.c_str(), Out[I].Value,
                Out[I].Unit);
  std::printf("}}\n");
  return 0;
}
