#include "models/platforms.hpp"

#include <cstdio>
#include <stdexcept>

#include "env/manip_expert.hpp"
#include "env/nav_expert.hpp"
#include "tensor/ops.hpp"

namespace create::platforms {

namespace {

PlannerConfig
manipPlannerConfig(const std::string& platform)
{
    PlannerConfig cfg;
    cfg.numTasks = kNumManipTasks;
    cfg.maxDone = 6;
    cfg.maxPlanLen = 6;
    cfg.planVocab = kNumManipSubtasks + 1;
    if (platform == "openvla") {
        cfg.name = "openvla";
        cfg.layers = 3;          // 7B-class stand-in: deeper
        cfg.outlierScale = 12.0f;
    } else if (platform == "roboflamingo") {
        cfg.name = "roboflamingo";
        cfg.layers = 2;          // 3B-class stand-in
        cfg.outlierScale = 9.0f;
    } else {
        throw std::invalid_argument("unknown planner platform: " + platform);
    }
    return cfg;
}

ControllerConfig
manipControllerConfig(const std::string& platform)
{
    ControllerConfig cfg;
    cfg.numSubtasks = kNumManipSubtasks;
    cfg.spatialDim = ManipObs::spatialDim();
    cfg.stateDim = ManipObs::stateDim();
    cfg.numActions = kNumManipActions;
    if (platform == "octo") {
        cfg.name = "octo";
        cfg.layers = 3;
    } else if (platform == "rt1") {
        cfg.name = "rt1";
        cfg.layers = 2;
    } else {
        throw std::invalid_argument("unknown controller platform: " +
                                    platform);
    }
    return cfg;
}

bool
tryLoad(nn::Module& m, const std::string& path)
{
    BlobArchive ar;
    return ar.load(path) && m.load(ar);
}

void
saveModel(nn::Module& m, const std::string& path)
{
    BlobArchive ar;
    m.save(ar);
    ar.save(path);
}

std::vector<BcSample>
manipBcDataset(int seedsPerTask, std::uint64_t seed)
{
    std::vector<BcSample> data;
    Rng rng(seed);
    for (int t = 0; t < kNumManipTasks; ++t) {
        const auto task = static_cast<ManipTask>(t);
        for (int s = 0; s < seedsPerTask; ++s) {
            ManipWorld world(task,
                             seed * 37 + static_cast<std::uint64_t>(t * 11 + s));
            for (const auto st : manipGoldPlan(task)) {
                world.setActiveSubtask(st);
                int steps = 0;
                while (!world.subtaskComplete() && steps < 60) {
                    const ManipObs obs = world.observe();
                    const ManipAction a = ManipExpert::act(world, rng);
                    // Copy-construct: assigning into a fresh sample's empty
                    // vectors trips GCC's -Wnonnull (a null, 0-byte memmove).
                    const BcSample sample{static_cast<int>(st), obs.spatial,
                                          obs.state, static_cast<int>(a)};
                    data.push_back(sample);
                    const bool critical =
                        a == ManipAction::Grasp || a == ManipAction::Release ||
                        a == ManipAction::Press || a == ManipAction::Pull;
                    if (critical) {
                        for (int r = 0; r < 10; ++r)
                            data.push_back(sample);
                    }
                    world.step(a);
                    ++steps;
                }
            }
        }
    }
    return data;
}

PlannerConfig
navPlannerConfig(const std::string& platform)
{
    if (platform != "navllama")
        throw std::invalid_argument("unknown nav planner platform: " +
                                    platform);
    PlannerConfig cfg;
    cfg.name = "navllama";
    cfg.numTasks = kNumNavTasks;
    cfg.maxDone = 5;
    cfg.maxPlanLen = 5;
    cfg.planVocab = kNumNavSubtasks + 1;
    cfg.layers = 2; // ~1B-class drone planner stand-in
    cfg.outlierScale = 10.0f;
    return cfg;
}

ControllerConfig
navControllerConfig(const std::string& platform)
{
    ControllerConfig cfg;
    cfg.numSubtasks = kNumNavSubtasks;
    cfg.spatialDim = NavObs::spatialDim();
    cfg.stateDim = NavObs::stateDim();
    cfg.numActions = kNumNavActions;
    if (platform == "pathrt") {
        cfg.name = "pathrt";
        cfg.layers = 3;
    } else if (platform == "swiftpilot") {
        cfg.name = "swiftpilot";
        cfg.layers = 2;
    } else {
        throw std::invalid_argument("unknown nav controller platform: " +
                                    platform);
    }
    return cfg;
}

std::vector<BcSample>
navBcDataset(int seedsPerTask, std::uint64_t seed)
{
    std::vector<BcSample> data;
    for (int t = 0; t < kNumNavTasks; ++t) {
        const auto task = static_cast<NavTask>(t);
        for (int s = 0; s < seedsPerTask; ++s) {
            NavWorld world(task,
                           seed * 41 + static_cast<std::uint64_t>(t * 13 + s));
            int steps = 0;
            for (const auto st : navGoldPlan(task)) {
                world.setActiveSubtask(st);
                while (!world.subtaskComplete() &&
                       steps < NavWorld::kStepCap) {
                    const NavObs obs = world.observe();
                    const NavAction a = NavExpert::act(world);
                    // Copy-construct: assigning into a fresh sample's empty
                    // vectors trips GCC's -Wnonnull (a null, 0-byte memmove).
                    const BcSample sample{static_cast<int>(st), obs.spatial,
                                          obs.state, static_cast<int>(a)};
                    data.push_back(sample);
                    // Critical-chain and altitude actions are rare in the
                    // trajectories but decide the missions; oversample them.
                    const bool critical =
                        a == NavAction::Hover || a == NavAction::Ascend ||
                        a == NavAction::Descend ||
                        (st == NavSubtask::ScanLine && a == NavAction::MoveE);
                    if (critical) {
                        for (int r = 0; r < 8; ++r)
                            data.push_back(sample);
                    }
                    world.step(a);
                    ++steps;
                }
            }
        }
    }
    return data;
}

} // namespace

int
manipEndToken()
{
    return kNumManipSubtasks;
}

std::vector<ManipSubtask>
decodeManipPlan(const std::vector<int>& tokens)
{
    std::vector<ManipSubtask> plan;
    for (int t : tokens)
        if (t >= 0 && t < kNumManipSubtasks)
            plan.push_back(static_cast<ManipSubtask>(t));
    return plan;
}

PredictorConfig
manipPredictorConfig()
{
    PredictorConfig cfg;
    cfg.imgRes = 24;
    cfg.promptDim = kNumManipSubtasks + ManipObs::spatialDim();
    return cfg;
}

std::vector<float>
manipPrompt(ManipSubtask st, const ManipObs& obs, int promptDim)
{
    std::vector<float> p(static_cast<std::size_t>(promptDim), 0.0f);
    p[static_cast<std::size_t>(st)] = 1.0f;
    std::size_t j = static_cast<std::size_t>(kNumManipSubtasks);
    for (std::size_t i = 0; i < obs.spatial.size() && j < p.size(); ++i)
        p[j++] = obs.spatial[i];
    return p;
}

void
calibrateManipPlanner(PlannerModel& m)
{
    ComputeContext ctx(0x71);
    ctx.calibrating = true;
    for (int t = 0; t < kNumManipTasks; ++t) {
        const int planLen = static_cast<int>(
            manipGoldPlan(static_cast<ManipTask>(t)).size());
        for (int done = 0; done <= planLen; ++done)
            m.inferLogits(t, done, ctx);
    }
}

void
calibrateManipController(ControllerModel& m)
{
    ComputeContext ctx(0x72);
    ctx.calibrating = true;
    Rng rng(0x72);
    for (int t = 0; t < kNumManipTasks; t += 3) {
        const auto task = static_cast<ManipTask>(t);
        ManipWorld world(task, 5300 + static_cast<std::uint64_t>(t));
        for (const auto st : manipGoldPlan(task)) {
            world.setActiveSubtask(st);
            int steps = 0;
            while (!world.subtaskComplete() && steps < 60) {
                const ManipObs obs = world.observe();
                m.inferLogits(static_cast<int>(st), obs.spatial, obs.state,
                              ctx);
                world.step(ManipExpert::act(world, rng));
                ++steps;
            }
        }
    }
}

std::unique_ptr<PlannerModel>
manipPlanner(const std::string& platform, bool verbose)
{
    Rng rng(platform == "openvla" ? 0xA111 : 0xA222);
    auto m = std::make_unique<PlannerModel>(manipPlannerConfig(platform), rng);
    const std::string path =
        ModelZoo::assetsDir() + "/" + platform + "_planner_v2.bin";
    if (!tryLoad(*m, path)) {
        if (verbose)
            std::fprintf(stderr, "[zoo] training %s planner stand-in...\n",
                         platform.c_str());
        std::vector<std::pair<int, int>> inputs;
        std::vector<std::vector<int>> targets;
        for (int t = 0; t < kNumManipTasks; ++t) {
            const auto plan = manipGoldPlan(static_cast<ManipTask>(t));
            for (int done = 0; done <= static_cast<int>(plan.size());
                 ++done) {
                std::vector<int> tgt;
                for (std::size_t i = static_cast<std::size_t>(done);
                     i < plan.size(); ++i)
                    tgt.push_back(static_cast<int>(plan[i]));
                tgt.resize(static_cast<std::size_t>(m->config().maxPlanLen),
                           manipEndToken());
                inputs.push_back({t, done});
                targets.push_back(std::move(tgt));
            }
        }
        ModelZoo::trainPlannerOnCorpus(*m, inputs, targets, 150, 2.5e-3,
                                       verbose);
        saveModel(*m, path);
    }
    calibrateManipPlanner(*m);
    return m;
}

std::unique_ptr<ControllerModel>
manipController(const std::string& platform, bool verbose)
{
    Rng rng(platform == "octo" ? 0xB111 : 0xB222);
    auto m =
        std::make_unique<ControllerModel>(manipControllerConfig(platform), rng);
    const std::string path =
        ModelZoo::assetsDir() + "/" + platform + "_controller_v2.bin";
    if (!tryLoad(*m, path)) {
        if (verbose)
            std::fprintf(stderr, "[zoo] training %s controller stand-in "
                                 "(behavior cloning)...\n",
                         platform.c_str());
        auto data = manipBcDataset(6, platform == "octo" ? 0x7777 : 0x8888);
        if (verbose)
            std::fprintf(stderr, "[zoo] BC dataset: %zu samples\n",
                         data.size());
        ModelZoo::trainControllerBc(*m, std::move(data), 3, 1.5e-3, verbose);
        saveModel(*m, path);
    }
    calibrateManipController(*m);
    return m;
}

std::unique_ptr<EntropyPredictor>
manipPredictor(const std::string& platform, ControllerModel& controller,
               bool verbose)
{
    Rng rng(platform == "octo" ? 0xC111 : 0xC222);
    auto p = std::make_unique<EntropyPredictor>(manipPredictorConfig(), rng);
    const std::string path =
        ModelZoo::assetsDir() + "/" + platform + "_predictor_v2.bin";
    if (!tryLoad(*p, path)) {
        if (verbose)
            std::fprintf(stderr, "[zoo] training %s entropy predictor...\n",
                         platform.c_str());
        // Record clean-execution entropy frames with this controller.
        std::vector<ModelZoo::EntropyFrame> frames;
        Rng sampler(0x4242);
        ComputeContext ctx(0x4242);
        ctx.domain = Domain::Controller;
        const auto pcfg = manipPredictorConfig();
        for (int t = 0; t < kNumManipTasks; ++t) {
            const auto task = static_cast<ManipTask>(t);
            for (int s = 0; s < 4; ++s) {
                ManipWorld world(task, 900 + static_cast<std::uint64_t>(
                                           t * 13 + s));
                for (const auto st : manipGoldPlan(task)) {
                    world.setActiveSubtask(st);
                    int steps = 0;
                    while (!world.subtaskComplete() && steps < 60) {
                        const ManipObs obs = world.observe();
                        const auto logits = controller.inferLogits(
                            static_cast<int>(st), obs.spatial, obs.state,
                            ctx);
                        ModelZoo::EntropyFrame f;
                        f.image = world.renderImage(pcfg.imgRes);
                        f.prompt = manipPrompt(st, obs, pcfg.promptDim);
                        f.entropy = static_cast<float>(
                            ops::entropy(ops::softmax(logits)));
                        frames.push_back(std::move(f));
                        world.step(static_cast<ManipAction>(
                            sampleAction(logits, sampler)));
                        ++steps;
                    }
                }
            }
        }
        if (verbose)
            std::fprintf(stderr, "[zoo] predictor dataset: %zu frames\n",
                         frames.size());
        ModelZoo::trainPredictor(*p, frames, 5, 8e-4, verbose);
        saveModel(*p, path);
    }
    // Calibrate on a few frames.
    {
        ComputeContext pctx(0x91);
        pctx.calibrating = true;
        ComputeContext cctx(0x92);
        Rng rng2(0x93);
        ManipWorld world(ManipTask::Wine, 31337);
        const auto pcfg = p->config();
        for (const auto st : manipGoldPlan(ManipTask::Wine)) {
            world.setActiveSubtask(st);
            int steps = 0;
            while (!world.subtaskComplete() && steps < 60) {
                const ManipObs obs = world.observe();
                p->infer(world.renderImage(pcfg.imgRes),
                         manipPrompt(st, obs, pcfg.promptDim), pctx);
                const auto logits = controller.inferLogits(
                    static_cast<int>(st), obs.spatial, obs.state, cctx);
                world.step(static_cast<ManipAction>(
                    sampleAction(logits, rng2)));
                ++steps;
            }
        }
    }
    return p;
}

// --- navigation platform family ----------------------------------------

int
navEndToken()
{
    return kNumNavSubtasks;
}

std::vector<NavSubtask>
decodeNavPlan(const std::vector<int>& tokens)
{
    std::vector<NavSubtask> plan;
    for (int t : tokens)
        if (t >= 0 && t < kNumNavSubtasks)
            plan.push_back(static_cast<NavSubtask>(t));
    return plan;
}

PredictorConfig
navPredictorConfig()
{
    PredictorConfig cfg;
    cfg.imgRes = 24;
    cfg.promptDim = kNumNavSubtasks + NavObs::spatialDim();
    return cfg;
}

std::vector<float>
navPrompt(NavSubtask st, const NavObs& obs, int promptDim)
{
    std::vector<float> p(static_cast<std::size_t>(promptDim), 0.0f);
    p[static_cast<std::size_t>(st)] = 1.0f;
    std::size_t j = static_cast<std::size_t>(kNumNavSubtasks);
    for (std::size_t i = 0; i < obs.spatial.size() && j < p.size(); ++i)
        p[j++] = obs.spatial[i];
    return p;
}

void
calibrateNavPlanner(PlannerModel& m)
{
    ComputeContext ctx(0x73);
    ctx.calibrating = true;
    for (int t = 0; t < kNumNavTasks; ++t) {
        const int planLen = static_cast<int>(
            navGoldPlan(static_cast<NavTask>(t)).size());
        for (int done = 0; done <= planLen; ++done)
            m.inferLogits(t, done, ctx);
    }
}

void
calibrateNavController(ControllerModel& m)
{
    ComputeContext ctx(0x74);
    ctx.calibrating = true;
    for (int t = 0; t < kNumNavTasks; t += 3) {
        const auto task = static_cast<NavTask>(t);
        NavWorld world(task, 6100 + static_cast<std::uint64_t>(t));
        int steps = 0;
        for (const auto st : navGoldPlan(task)) {
            world.setActiveSubtask(st);
            while (!world.subtaskComplete() && steps < NavWorld::kStepCap) {
                const NavObs obs = world.observe();
                m.inferLogits(static_cast<int>(st), obs.spatial, obs.state,
                              ctx);
                world.step(NavExpert::act(world));
                ++steps;
            }
        }
    }
}

std::unique_ptr<PlannerModel>
navPlanner(const std::string& platform, bool verbose)
{
    Rng rng(0xA333);
    auto m = std::make_unique<PlannerModel>(navPlannerConfig(platform), rng);
    const std::string path =
        ModelZoo::assetsDir() + "/" + platform + "_planner_v2.bin";
    if (!tryLoad(*m, path)) {
        if (verbose)
            std::fprintf(stderr, "[zoo] training %s planner stand-in...\n",
                         platform.c_str());
        std::vector<std::pair<int, int>> inputs;
        std::vector<std::vector<int>> targets;
        for (int t = 0; t < kNumNavTasks; ++t) {
            const auto plan = navGoldPlan(static_cast<NavTask>(t));
            for (int done = 0; done <= static_cast<int>(plan.size());
                 ++done) {
                std::vector<int> tgt;
                for (std::size_t i = static_cast<std::size_t>(done);
                     i < plan.size(); ++i)
                    tgt.push_back(static_cast<int>(plan[i]));
                tgt.resize(static_cast<std::size_t>(m->config().maxPlanLen),
                           navEndToken());
                inputs.push_back({t, done});
                targets.push_back(std::move(tgt));
            }
        }
        ModelZoo::trainPlannerOnCorpus(*m, inputs, targets, 150, 2.5e-3,
                                       verbose);
        saveModel(*m, path);
    }
    calibrateNavPlanner(*m);
    return m;
}

std::unique_ptr<ControllerModel>
navController(const std::string& platform, bool verbose)
{
    Rng rng(platform == "pathrt" ? 0xB333 : 0xB444);
    auto m =
        std::make_unique<ControllerModel>(navControllerConfig(platform), rng);
    const std::string path =
        ModelZoo::assetsDir() + "/" + platform + "_controller_v2.bin";
    if (!tryLoad(*m, path)) {
        if (verbose)
            std::fprintf(stderr, "[zoo] training %s controller stand-in "
                                 "(behavior cloning)...\n",
                         platform.c_str());
        auto data = navBcDataset(6, platform == "pathrt" ? 0x9999 : 0xAAAA);
        if (verbose)
            std::fprintf(stderr, "[zoo] BC dataset: %zu samples\n",
                         data.size());
        ModelZoo::trainControllerBc(*m, std::move(data), 3, 1.5e-3, verbose);
        saveModel(*m, path);
    }
    calibrateNavController(*m);
    return m;
}

std::unique_ptr<EntropyPredictor>
navPredictor(const std::string& platform, ControllerModel& controller,
             bool verbose)
{
    Rng rng(platform == "pathrt" ? 0xC333 : 0xC444);
    auto p = std::make_unique<EntropyPredictor>(navPredictorConfig(), rng);
    const std::string path =
        ModelZoo::assetsDir() + "/" + platform + "_predictor_v2.bin";
    if (!tryLoad(*p, path)) {
        if (verbose)
            std::fprintf(stderr, "[zoo] training %s entropy predictor...\n",
                         platform.c_str());
        // Record clean-execution entropy frames with this controller.
        std::vector<ModelZoo::EntropyFrame> frames;
        Rng sampler(0x5151);
        ComputeContext ctx(0x5151);
        ctx.domain = Domain::Controller;
        const auto pcfg = navPredictorConfig();
        for (int t = 0; t < kNumNavTasks; ++t) {
            const auto task = static_cast<NavTask>(t);
            for (int s = 0; s < 4; ++s) {
                NavWorld world(task, 1700 + static_cast<std::uint64_t>(
                                          t * 17 + s));
                int steps = 0;
                for (const auto st : navGoldPlan(task)) {
                    world.setActiveSubtask(st);
                    while (!world.subtaskComplete() &&
                           steps < NavWorld::kStepCap) {
                        const NavObs obs = world.observe();
                        const auto logits = controller.inferLogits(
                            static_cast<int>(st), obs.spatial, obs.state,
                            ctx);
                        ModelZoo::EntropyFrame f;
                        f.image = world.renderImage(pcfg.imgRes);
                        f.prompt = navPrompt(st, obs, pcfg.promptDim);
                        f.entropy = static_cast<float>(
                            ops::entropy(ops::softmax(logits)));
                        frames.push_back(std::move(f));
                        world.step(static_cast<NavAction>(
                            sampleAction(logits, sampler)));
                        ++steps;
                    }
                }
            }
        }
        if (verbose)
            std::fprintf(stderr, "[zoo] predictor dataset: %zu frames\n",
                         frames.size());
        ModelZoo::trainPredictor(*p, frames, 5, 8e-4, verbose);
        saveModel(*p, path);
    }
    // Calibrate on a few frames.
    {
        ComputeContext pctx(0x94);
        pctx.calibrating = true;
        ComputeContext cctx(0x95);
        Rng rng2(0x96);
        NavWorld world(NavTask::Patrol, 24601);
        const auto pcfg = p->config();
        int steps = 0;
        for (const auto st : navGoldPlan(NavTask::Patrol)) {
            world.setActiveSubtask(st);
            while (!world.subtaskComplete() && steps < NavWorld::kStepCap) {
                const NavObs obs = world.observe();
                p->infer(world.renderImage(pcfg.imgRes),
                         navPrompt(st, obs, pcfg.promptDim), pctx);
                const auto logits = controller.inferLogits(
                    static_cast<int>(st), obs.spatial, obs.state, cctx);
                world.step(
                    static_cast<NavAction>(sampleAction(logits, rng2)));
                ++steps;
            }
        }
    }
    return p;
}

} // namespace create::platforms
