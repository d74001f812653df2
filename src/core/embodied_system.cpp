#include "core/embodied_system.hpp"

#include <algorithm>
#include <chrono>

#include "core/parallel_eval.hpp"

namespace create {

CreateConfig
CreateConfig::clean()
{
    return CreateConfig{};
}

CreateConfig
CreateConfig::uniform(double ber)
{
    CreateConfig cfg;
    cfg.mode = InjectionMode::Uniform;
    cfg.uniformBer = ber;
    return cfg;
}

CreateConfig
CreateConfig::atVoltage(double plannerV, double controllerV)
{
    CreateConfig cfg;
    cfg.mode = InjectionMode::Voltage;
    cfg.plannerVoltage = plannerV;
    cfg.controllerVoltage = controllerV;
    return cfg;
}

CreateConfig
CreateConfig::fullCreate(double plannerV, EntropyVoltagePolicy policy,
                         int interval)
{
    CreateConfig cfg;
    cfg.mode = InjectionMode::Voltage;
    cfg.anomalyDetection = true;
    cfg.weightRotation = true;
    cfg.voltageScaling = true;
    cfg.plannerVoltage = plannerV;
    cfg.controllerVoltage = TimingErrorModel::kNominalVoltage;
    cfg.policy = std::move(policy);
    cfg.vsInterval = interval;
    return cfg;
}

void
CreateConfig::applyTo(ComputeContext& ctx, bool isPlanner) const
{
    ctx.anomalyDetection = anomalyDetection;
    ctx.protection = protection;
    ctx.bits = bits;
    ctx.componentFilter = componentFilter;
    const bool inject = isPlanner ? injectPlanner : injectController;
    if (!inject || mode == InjectionMode::None) {
        ctx.setCleanMode();
        ctx.setVoltage(isPlanner ? plannerVoltage : controllerVoltage);
        return;
    }
    if (mode == InjectionMode::Uniform) {
        const double override_ = isPlanner ? plannerBer : controllerBer;
        ctx.setUniformBer(override_ >= 0.0 ? override_ : uniformBer);
        ctx.setVoltage(isPlanner ? plannerVoltage : controllerVoltage);
    } else {
        ctx.setVoltage(isPlanner ? plannerVoltage : controllerVoltage);
        ctx.setVoltageMode();
    }
}

EmbodiedSystem::EmbodiedSystem() = default;

EmbodiedSystem::~EmbodiedSystem() = default;

void
EmbodiedSystem::prepare(const CreateConfig&)
{
}

std::vector<EpisodeResult>
EmbodiedSystem::runEpisodes(int taskId, const CreateConfig& cfg, int reps,
                            std::uint64_t seed0, EpisodeSink* sink)
{
    if (evalThreads_ > 1 && reps > 1) {
        // Never build more replicas than there are episodes to run; keep
        // an existing pool if it is big enough and within the requested
        // thread budget (replicas are whole model stacks -- rebuilding on
        // every reps change would dwarf the episodes themselves).
        const int wanted = std::min(evalThreads_, reps);
        if (!evaluator_ || evaluator_->threads() < wanted ||
            evaluator_->threads() > evalThreads_)
            evaluator_ = std::make_unique<ParallelEvaluator>(*this, wanted);
        return evaluator_->runEpisodes(taskId, cfg, reps, seed0, sink);
    }
    prepare(cfg);
    std::vector<EpisodeResult> results;
    results.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        // An episode runs wholly on this thread, so the thread-local
        // registry brackets exactly one episode's hot-path counters.
        MetricsRegistry& reg = MetricsRegistry::tls();
        reg.beginEpisode();
        const auto t0 = std::chrono::steady_clock::now();
        results.push_back(
            runEpisode(taskId, seed0 + static_cast<std::uint64_t>(i), cfg));
        const double wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (sink)
            sink->onEpisode(i, results.back(), reg.endEpisode(wallMs));
    }
    return results;
}

TaskStats
EmbodiedSystem::evaluate(int taskId, const CreateConfig& cfg, int reps,
                         std::uint64_t seed0)
{
    return aggregate(runEpisodes(taskId, cfg, reps, seed0), energyModel());
}

void
EmbodiedSystem::setEvalThreads(int n)
{
    evalThreads_ = n < 1 ? 1 : n;
}

} // namespace create
