#include "core/parallel_eval.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>

namespace create {

int
ParallelEvaluator::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ParallelEvaluator::ParallelEvaluator(const EmbodiedSystem& prototype,
                                     int threads)
{
    if (threads <= 0)
        threads = defaultThreads();
    // Replica construction is O(1) (shared frozen model set), but stays
    // on the calling thread: any lazy model build triggered later runs
    // in prepare(), also serially.
    replicas_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        replicas_.push_back(prototype.replicate());
    workers_.reserve(replicas_.size());
    for (std::size_t w = 0; w < replicas_.size(); ++w)
        workers_.emplace_back(&ParallelEvaluator::workerLoop, this, w);
}

ParallelEvaluator::~ParallelEvaluator()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
ParallelEvaluator::workerLoop(std::size_t workerIdx)
{
    EmbodiedSystem& sys = *replicas_[workerIdx];
    std::uint64_t seenGen = 0;
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock,
                         [&] { return stop_ || jobGen_ != seenGen; });
            if (stop_)
                return;
            seenGen = jobGen_;
            job = job_;
        }
        try {
            for (;;) {
                const int i = nextEpisode_.fetch_add(1);
                if (i >= job.reps)
                    break;
                EpisodeResult& slot = (*job.out)[static_cast<std::size_t>(i)];
                // Each episode runs wholly on this worker thread, so the
                // thread-local registry attributes counters to exactly
                // this episode.
                MetricsRegistry& reg = MetricsRegistry::tls();
                reg.beginEpisode();
                const auto t0 = std::chrono::steady_clock::now();
                slot = sys.runEpisode(
                    job.taskId, job.seed0 + static_cast<std::uint64_t>(i),
                    *job.cfg);
                const double wallMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (job.sink)
                    job.sink->onEpisode(i, slot, reg.endEpisode(wallMs));
            }
        } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(mu_);
            if (workerError_.empty())
                workerError_ = e.what();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (++workersDone_ == static_cast<int>(workers_.size()))
                doneCv_.notify_all();
        }
    }
}

std::vector<EpisodeResult>
ParallelEvaluator::runEpisodes(int taskId, const CreateConfig& cfg, int reps,
                               std::uint64_t seed0, EpisodeSink* sink)
{
    // Materialize config-dependent lazy state (rotated planner, entropy
    // predictor) serially before fanning out, so workers never train or
    // load models concurrently.
    for (auto& replica : replicas_)
        replica->prepare(cfg);

    std::vector<EpisodeResult> results(
        static_cast<std::size_t>(reps < 0 ? 0 : reps));
    {
        std::unique_lock<std::mutex> lock(mu_);
        job_ = Job{taskId, &cfg, reps, seed0, &results, sink};
        nextEpisode_.store(0);
        workersDone_ = 0;
        workerError_.clear();
        ++jobGen_;
        workCv_.notify_all();
        doneCv_.wait(lock, [&] {
            return workersDone_ == static_cast<int>(workers_.size());
        });
        if (!workerError_.empty())
            throw std::runtime_error("ParallelEvaluator worker failed: " +
                                     workerError_);
    }
    return results;
}

TaskStats
ParallelEvaluator::evaluate(int taskId, const CreateConfig& cfg, int reps,
                            std::uint64_t seed0)
{
    return aggregate(runEpisodes(taskId, cfg, reps, seed0),
                     replicas_.front()->energyModel());
}

} // namespace create
