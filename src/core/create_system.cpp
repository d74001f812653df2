#include "core/create_system.hpp"

#include "core/rotation.hpp"

namespace create {

MineSystem::MineSystem(bool verbose)
    : shared_(std::make_shared<SharedModelSet>())
{
    MineModels models = ModelZoo::mineModels(verbose);
    shared_->planner = std::move(models.planner);
    shared_->controller = std::move(models.controller);
    shared_->predictor = std::move(models.predictor);
}

MineSystem::MineSystem(std::shared_ptr<SharedModelSet> shared,
                       AgentConfig agentCfg)
    : shared_(std::move(shared)), agentCfg_(agentCfg)
{
}

PlannerModel&
MineSystem::planner(bool rotated)
{
    if (!rotated)
        return *shared_->planner;
    if (!shared_->rotatedPlanner) {
        // Fresh copy of the trained planner, rotated offline, recalibrated.
        std::shared_ptr<PlannerModel> r =
            ModelZoo::minePlanner(/*verbose=*/false);
        applyWeightRotation(*r);
        ModelZoo::calibrateMinePlanner(*r);
        shared_->rotatedPlanner = std::move(r);
    }
    return *shared_->rotatedPlanner;
}

void
MineSystem::prepare(const CreateConfig& cfg)
{
    // Build lazy members and freeze every layer the config will touch at
    // its deployment width -- serially, so shared model state is read-only
    // once episodes (possibly on a worker pool) start.
    warmFreezePlanner(planner(cfg.weightRotation), cfg.bits);
    warmFreezeController(*shared_->controller, cfg.bits);
    if (cfg.voltageScaling)
        warmFreezePredictor(*shared_->predictor);
}

std::unique_ptr<EmbodiedSystem>
MineSystem::replicate() const
{
    // Replicas share the frozen model set (weights, quant scales, AD
    // bounds exist once per process); only per-worker mutable state --
    // the per-episode contexts with their RNG streams, meters, and
    // workspaces -- is created fresh. See core/shared_models.hpp.
    return std::unique_ptr<EmbodiedSystem>(
        new MineSystem(shared_, agentCfg_));
}

EpisodeResult
MineSystem::runEpisode(int taskId, std::uint64_t seed,
                       const CreateConfig& cfg)
{
    ComputeContext plannerCtx(seed ^ 0x9A9A1ull);
    ComputeContext controllerCtx(seed ^ 0x7B7B2ull);
    // Optional GEMM observer (null = direct dispatch; bit-identical).
    plannerCtx.gemmSink = gemmSink();
    controllerCtx.gemmSink = gemmSink();
    cfg.applyTo(plannerCtx, /*isPlanner=*/true);
    cfg.applyTo(controllerCtx, /*isPlanner=*/false);

    PlannerModel& p = planner(cfg.weightRotation);
    EmbodiedAgent agent(p, *shared_->controller, agentCfg_);

    std::unique_ptr<VoltageScaler> scaler;
    if (cfg.voltageScaling) {
        scaler = std::make_unique<VoltageScaler>(*shared_->predictor,
                                                 cfg.policy, cfg.vsInterval);
        scaler->setGemmSink(gemmSink());
        // VS implies voltage-dependent errors on the controller.
        if (cfg.mode != InjectionMode::None && cfg.injectController)
            controllerCtx.setVoltageMode();
    }
    return agent.runEpisode(static_cast<MineTask>(taskId), seed, plannerCtx,
                            controllerCtx, scaler.get());
}

} // namespace create
