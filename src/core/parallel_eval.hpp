#pragma once

/**
 * @file
 * ParallelEvaluator: fans episode repetitions of one EmbodiedSystem out
 * across a fixed pool of worker threads.
 *
 * The paper's headline results all come from >=100 repeated episodes per
 * deployment configuration; those repetitions are embarrassingly parallel
 * but were strictly serial in the seed reproduction. The evaluator makes
 * them scale without changing a single digit of the output:
 *
 *  - Each worker owns its own EmbodiedSystem replica. Replicas share the
 *    frozen, immutable model set (weights, quantization scales, AD
 *    bounds; see core/shared_models.hpp) -- prepare() freezes everything
 *    a config touches serially before fan-out -- while every mutable
 *    piece (per-episode ComputeContexts with their RNG streams, energy
 *    meters, and GEMM workspaces) lives per worker, so threads never
 *    share mutable state.
 *  - Episode i always runs at seed0 + i, and every ComputeContext /
 *    action RNG inside an episode is derived from that seed alone, so the
 *    per-episode RNG streams are isolated by construction.
 *  - Results land in a pre-sized vector at their episode index and are
 *    aggregated in episode order, so the floating-point reduction order --
 *    and therefore the aggregate TaskStats -- is bit-identical to the
 *    serial path for any thread count.
 *
 * Work is distributed dynamically (an atomic next-episode cursor), which
 * load-balances the wildly varying episode lengths a corrupted agent
 * produces without affecting determinism.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/embodied_system.hpp"

namespace create {

/** Fixed worker pool evaluating episode repetitions in parallel. */
class ParallelEvaluator
{
  public:
    /**
     * Build `threads` bit-identical replicas of `prototype` (serially, on
     * the calling thread) and start the worker pool.
     *
     * Replicas start without the prototype's gemm sink (see
     * EmbodiedSystem::replicate()), so workers call the kernel directly.
     *
     * @param threads worker count; clamped to >= 1. 0 picks the hardware
     *        concurrency.
     */
    ParallelEvaluator(const EmbodiedSystem& prototype, int threads);
    ~ParallelEvaluator();

    ParallelEvaluator(const ParallelEvaluator&) = delete;
    ParallelEvaluator& operator=(const ParallelEvaluator&) = delete;

    int threads() const { return static_cast<int>(replicas_.size()); }

    /**
     * Run `reps` episodes at seeds seed0, seed0+1, ... across the pool.
     * Returns results in episode order. Blocks until all episodes finish.
     * The optional sink is invoked from the worker threads as episodes
     * complete (it must be thread-safe; completion order is arbitrary but
     * each index is reported exactly once).
     */
    std::vector<EpisodeResult>
    runEpisodes(int taskId, const CreateConfig& cfg, int reps,
                std::uint64_t seed0 = EmbodiedSystem::kDefaultSeed0,
                EpisodeSink* sink = nullptr);

    /** runEpisodes + aggregation at the platform's paper-scale energy. */
    TaskStats evaluate(int taskId, const CreateConfig& cfg, int reps,
                       std::uint64_t seed0 = EmbodiedSystem::kDefaultSeed0);

    /** Default worker count: hardware concurrency (>= 1). */
    static int defaultThreads();

  private:
    struct Job
    {
        int taskId = 0;
        const CreateConfig* cfg = nullptr;
        int reps = 0;
        std::uint64_t seed0 = 0;
        std::vector<EpisodeResult>* out = nullptr;
        EpisodeSink* sink = nullptr;
    };

    void workerLoop(std::size_t workerIdx);

    std::vector<std::unique_ptr<EmbodiedSystem>> replicas_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable workCv_;  //!< signals a new job / shutdown
    std::condition_variable doneCv_;  //!< signals job completion
    Job job_;
    std::uint64_t jobGen_ = 0;        //!< bumped once per submitted job
    std::atomic<int> nextEpisode_{0}; //!< dynamic work cursor
    int workersDone_ = 0;
    bool stop_ = false;
    std::string workerError_;         //!< first exception message, if any
};

} // namespace create
