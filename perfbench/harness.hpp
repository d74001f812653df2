#pragma once

/**
 * @file
 * Shared pieces of the campaign benchmark: workload matrices, one timed
 * SweepRunner pass, the bit-identity checker, the in-memory span log and
 * the named-metric list the run prints. Everything here calls the
 * repository's public API only; no code under src/ is instrumented.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"

namespace perfbench {

/** Steady-clock seconds. */
double nowS();

/** Process user + system CPU seconds (all threads). */
double cpuS();

/** Peak resident set size of this process in MiB (VmHWM). */
double peakRssMb();

double median(std::vector<double> v);

/**
 * The highest percentile with at least ten samples beyond it, or the
 * median when that percentile would not lie above it (fewer than 21
 * samples). Returns {value, percentile}.
 */
std::pair<double, double> tail(std::vector<double> v);

/** One benchmark workload: a declared campaign matrix. */
struct Workload
{
    std::string name;
    std::vector<create::SweepCell> cells;
    /** Timed passes write a fresh result store (default format). */
    bool store = false;
    /** Index of the first cell of each distinct ledger (fingerprint). */
    std::vector<std::size_t> ledgers;
    std::vector<std::string> fingerprints; //!< per ledger
    std::vector<std::string> platforms;    //!< distinct, first-use order

    long long episodesPerPass() const;
};

/** Build a workload; `reps` <= 0 selects the workload's default. */
Workload makeWorkload(const std::string& name, std::uint64_t seed, int reps);

/** The workload names, in the order the benchmark documents them. */
const std::vector<std::string>& workloadNames();

/** In-memory span log (name, start, end, parent, episode id). */
class Tracer
{
  public:
    Tracer();
    /** Open a span; returns its id. */
    int begin(std::string name, int parent = -1, long long episode = -1);
    void end(int id);
    /** Write `{<head>, "spans": [...]}`; `head` holds JSON members. */
    bool write(const std::string& path, const std::string& head) const;
    std::size_t size() const { return spans_.size(); }

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        long long episode = -1;
    };
    double t0_ = 0.0;
    std::vector<Span> spans_;
};

/** Per-ledger episode results of one pass (indexed like Workload::ledgers). */
using Ledgers = std::vector<std::vector<create::EpisodeResult>>;

/** Outcome and timings of one SweepRunner pass over a workload. */
struct PassResult
{
    double setupS = 0.0;   //!< SweepRunner::system() + prepare() of every config
    double runS = 0.0;     //!< wall time of SweepRunner::run()
    double cpuS = 0.0;     //!< process CPU time during run()
    long long episodesExecuted = 0;
    int ledgersExecuted = 0;
    create::BatchStats batch;
    Ledgers episodes;
    /** Paper-scale energy per episode (only when asked for). */
    std::vector<std::vector<double>> computeJ;
    std::string error; //!< non-empty when the pass threw
};

/** What a pass does after declaring the workload. */
enum class PassKind
{
    Execute,   //!< set up, then run() every episode
    Resume,    //!< run() with resume from the store, no set-up
    SetupOnly, //!< set up and stop
};

/**
 * Run one pass: declare the workload on a fresh SweepRunner (threads,
 * store path and resume per `kind`; every other option at its default),
 * load and prepare every platform/config (not for Resume, which must not
 * need models), then time run(). Spans go under `parent`.
 */
PassResult runPass(const Workload& w, int threads,
                   const std::string& storePath, PassKind kind,
                   bool wantEnergy, Tracer* tracer = nullptr,
                   int parent = -1);

/** Bit-identity bookkeeping: attempted vs failed episodes. */
struct Checker
{
    long long attempted = 0;
    long long failed = 0;

    /** Compare `got` against `ref` episode by episode. */
    void compare(const Workload& w, const Ledgers& ref, const Ledgers& got,
                 const std::string& what);
    /** A pass that threw: every episode it owed counts as failed. */
    void failPass(const Workload& w, const std::string& error,
                  const std::string& what);
    /** Compare a pass's ledgers with matching ledgers of golden stores. */
    void golden(const Workload& w, const PassResult& ref,
                const std::string& goldenDir);
    /** Report one failed episode (printed for the first few). */
    void mismatch(const Workload& w, std::size_t ledger, int episode,
                  const std::string& what);

  private:
    int printed_ = 0;
};

/** True when two episode results are bit-identical in every field. */
bool sameEpisode(const create::EpisodeResult& a,
                 const create::EpisodeResult& b);

/** Named metrics with units, in print order. */
struct Metrics
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;

    void add(const std::string& name, double value, const std::string& unit)
    {
        entries.push_back({name, value, unit});
    }
};

/**
 * Write a finished campaign's records into a fresh store at `path`
 * through openStoreBackend + flush (default format), `batch` episode
 * records per flush, the way SweepRunner streams them. Per-flush wall
 * times (ms) and the store size after each flush go to the optional
 * outputs. Returns false (with `error`) on I/O failure.
 */
bool replayIntoStore(const std::vector<create::JsonRecord>& records,
                     const std::string& path, int batch,
                     std::vector<double>* flushMs,
                     std::vector<double>* bytesAfter, std::string* error,
                     Tracer* tracer = nullptr, int parent = -1);

/** Bytes on disk at `path` (a file, or every file of a directory). */
double pathBytes(const std::string& path);

/** What the traced run needs from the run that calls it. */
struct RunContext
{
    int threads = 1;
    double deadline = 0.0; //!< nowS() at which the measured window closes
    std::string outDir;    //!< scratch and result files
    /** The finished store the resumed passes read (JSON). */
    std::string finishedStore;
    /** Throughput of the run's fastest repeated 1-thread pass. */
    double episodesPerS1t = 0.0;
};

/**
 * The traced run: per-layer counters and timings of a workload
 * (see README.md for the metric list). `ref` is the workload's 1-thread
 * reference pass, used only as the bit-identity reference.
 */
void runTraced(const Workload& w, const RunContext& ctx, const PassResult& ref,
               const PassResult& nt, Metrics& out, Checker& check,
               Tracer& tracer, int root);

} // namespace perfbench
