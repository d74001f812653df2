#pragma once

/**
 * @file
 * EmbodiedSystem: the platform-generic facade over one embodied AI stack
 * (planner + controller + optional entropy predictor on an environment).
 *
 * A CreateConfig describes one deployment point: the injection model
 * (uniform BER for characterization, voltage-derived for evaluation), the
 * per-model operating voltages, and which CREATE techniques are active
 * (AD at the circuit level, WR at the model level, VS at the application
 * level) or which baseline protection replaces them (DMR / ThUnderVolt /
 * ABFT, Sec. 6.10). The config is platform-agnostic: the same deployment
 * point drives the Minecraft/JARVIS-1 stack (MineSystem), the
 * cross-platform manipulation stacks (ManipSystem), and the
 * autonomous-navigation stacks (NavSystem), which is exactly how the
 * paper's Fig. 17 generality study treats them. The platform catalogue
 * lives in core/platform_registry.hpp.
 *
 * evaluate() repeats episodes with deterministic per-episode seeding
 * (seed0 + rep) and aggregates success rate, average steps, effective
 * voltage, and paper-scale energy. With setEvalThreads(n > 1) the
 * repetitions fan out over a ParallelEvaluator worker pool whose replicas
 * are bit-identical to this system, so the aggregate TaskStats is the same
 * whether run with 1 or N threads.
 */

#include <memory>

#include "agent/metrics.hpp"
#include "core/voltage_policy.hpp"

namespace create {

class ParallelEvaluator;

/**
 * Observer of completed episodes, called as they finish. With a parallel
 * evaluator the calls arrive from worker threads in completion order (not
 * episode order), so implementations must be thread-safe; `index` is the
 * episode's position within the runEpisodes() call (seed = seed0 + index).
 * The SweepRunner's store sink streams episodes to disk through this, so
 * a killed campaign keeps every episode that reached a flush instead of
 * losing the whole cell.
 */
class EpisodeSink
{
  public:
    virtual ~EpisodeSink() = default;
    /**
     * `metrics` is the episode's drained observability payload (wall
     * time, per-layer fault attribution; present=false when the
     * MetricsRegistry is disabled). It rides alongside the result rather
     * than inside it so the TaskStats fold never sees it.
     */
    virtual void onEpisode(int index, const EpisodeResult& result,
                           const EpisodeMetrics& metrics) = 0;
};

/** One deployment configuration (platform-agnostic). */
struct CreateConfig
{
    // CREATE techniques.
    bool anomalyDetection = false; //!< AD (Sec. 5.1)
    bool weightRotation = false;   //!< WR on the planner (Sec. 5.2)
    bool voltageScaling = false;   //!< VS on the controller (Sec. 5.3)

    // Error injection.
    InjectionMode mode = InjectionMode::None;
    double uniformBer = 0.0;     //!< Uniform mode: BER for both models
    double plannerBer = -1.0;    //!< optional per-model override (<0: off)
    double controllerBer = -1.0; //!< optional per-model override (<0: off)
    bool injectPlanner = true;
    bool injectController = true;
    /** Substring component filter, e.g. ".attn.k" (empty: everywhere). */
    std::string componentFilter;

    // Operating points (Voltage mode).
    double plannerVoltage = TimingErrorModel::kNominalVoltage;
    double controllerVoltage = TimingErrorModel::kNominalVoltage;

    // Voltage scaling.
    EntropyVoltagePolicy policy; //!< used when voltageScaling
    int vsInterval = 5;          //!< steps between LDO updates (Sec. 6.5)

    // Datapath width (Sec. 6.9) and baseline protection (Sec. 6.10).
    QuantBits bits = QuantBits::Int8;
    Protection protection = Protection::None;

    /**
     * Configure a model's execution context for this deployment point
     * (shared by every backend; was CreateSystem::configureContext).
     */
    void applyTo(ComputeContext& ctx, bool isPlanner) const;

    // --- convenience builders -------------------------------------------
    static CreateConfig clean();
    static CreateConfig uniform(double ber);
    static CreateConfig atVoltage(double plannerV, double controllerV);
    /** Full CREATE stack at given voltages with a VS policy. */
    static CreateConfig fullCreate(double plannerV,
                                   EntropyVoltagePolicy policy,
                                   int interval = 5);
};

/**
 * Platform-generic episode runner + evaluation engine.
 *
 * Concrete backends (MineSystem, ManipSystem, NavSystem) supply the
 * per-episode behavioural simulation and a replicate() factory that rebuilds a
 * bit-identical copy from the deterministic model cache; the base class
 * owns repetition, seeding, aggregation, and (optionally) the parallel
 * fan-out across a worker pool.
 */
class EmbodiedSystem
{
  public:
    /** Default base seed for evaluate(); episode i runs at seed0 + i. */
    static constexpr std::uint64_t kDefaultSeed0 = 1000;

    EmbodiedSystem();
    virtual ~EmbodiedSystem();

    /** Human-readable platform tag, e.g. "jarvis-1" or "openvla+octo". */
    virtual const char* platformName() const = 0;

    /** Task vocabulary of this platform. */
    virtual int numTasks() const = 0;
    virtual const char* taskName(int taskId) const = 0;

    /** Run one episode under a configuration. */
    virtual EpisodeResult runEpisode(int taskId, std::uint64_t seed,
                                     const CreateConfig& cfg) = 0;

    /**
     * Build a functionally identical copy of this system for a parallel
     * worker. Backends share the frozen, immutable model set (FP32
     * weights, cached quantized weights, scales, AD bounds) with their
     * replicas and duplicate only mutable per-worker state, so replica
     * construction is O(1) -- no model reload, recalibration, or
     * re-freeze per worker (see core/shared_models.hpp). prepare() is
     * the serial point that freezes everything a config will touch
     * before episodes fan out. The copy starts without a gemm sink.
     */
    virtual std::unique_ptr<EmbodiedSystem> replicate() const = 0;

    /** Paper-scale energy pricing for this platform's models. */
    virtual const PaperEnergyModel& energyModel() const = 0;

    /**
     * Materialize lazily-built state a configuration needs (rotated
     * planner, entropy predictor) before episodes run. Called serially on
     * every worker replica so no model is trained/loaded inside the pool.
     */
    virtual void prepare(const CreateConfig& cfg);

    /**
     * Run `reps` episodes at seeds seed0, seed0+1, ... and return results
     * in episode order (serial, or fanned out when evalThreads() > 1). An
     * optional sink observes each episode as it completes (thread-safe,
     * completion order; see EpisodeSink).
     */
    std::vector<EpisodeResult> runEpisodes(int taskId,
                                           const CreateConfig& cfg, int reps,
                                           std::uint64_t seed0 = kDefaultSeed0,
                                           EpisodeSink* sink = nullptr);

    /** Repeat episodes and aggregate (paper: >=100 repetitions). */
    TaskStats evaluate(int taskId, const CreateConfig& cfg, int reps,
                       std::uint64_t seed0 = kDefaultSeed0);

    /**
     * Number of worker threads evaluate() fans episodes out to. 1 (the
     * default) runs serially on this instance; n > 1 builds a
     * ParallelEvaluator with n bit-identical replicas on first use.
     */
    void setEvalThreads(int n);
    int evalThreads() const { return evalThreads_; }

    /**
     * GEMM observation sink for this system's episode ComputeContexts
     * (null = direct kernel dispatch; bit-identical either way). Backends
     * install it on every context they build. A sink need not be
     * thread-safe, so ParallelEvaluator replicas never inherit it: with
     * evalThreads() > 1 it observes nothing.
     */
    void setGemmSink(IntGemmSink* sink) { gemmSink_ = sink; }
    IntGemmSink* gemmSink() const { return gemmSink_; }

  private:
    int evalThreads_ = 1;
    IntGemmSink* gemmSink_ = nullptr;
    std::unique_ptr<ParallelEvaluator> evaluator_;
};

} // namespace create
