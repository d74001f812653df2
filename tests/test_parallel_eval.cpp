/** @file Tests for the ParallelEvaluator and the EmbodiedSystem facade:
 *  serial-vs-parallel bit-identity on both platform backends, per-episode
 *  RNG stream isolation, gemm-sink observation (never shared into worker
 *  replicas, reaching every model context), and the generic interface
 *  surface. */

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/create_system.hpp"
#include "core/manip_system.hpp"
#include "core/parallel_eval.hpp"
#include "hw/faulty_gemm.hpp"
#include "test_util.hpp"

using namespace create;
using testutil::expectIdentical;

namespace {

MineSystem&
mineSys()
{
    static MineSystem s(/*verbose=*/false);
    return s;
}

ManipSystem&
manipSys()
{
    static ManipSystem s("openvla", "octo", /*verbose=*/false);
    return s;
}

/** Single-threaded gemm observer: counts calls per weight buffer. */
struct RecordingSink : IntGemmSink
{
    void gemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wq, std::int64_t n,
              std::int32_t* acc) override
    {
        intGemm(xq, m, k, wq, n, acc);
        ++calls;
        ++seen[wq];
    }

    std::uint64_t calls = 0;
    std::map<const std::int8_t*, std::uint64_t> seen;
};

} // namespace

TEST(ParallelEval, MineSerialVs4ThreadsBitIdentical)
{
    // Injection active so the fault-injection RNG streams matter.
    CreateConfig cfg = CreateConfig::uniform(5e-4);
    cfg.anomalyDetection = true;
    const int reps = 6;

    const TaskStats serial =
        mineSys().evaluate(MineTask::Wooden, cfg, reps);
    ParallelEvaluator pool(mineSys(), /*threads=*/4);
    const TaskStats parallel =
        pool.evaluate(static_cast<int>(MineTask::Wooden), cfg, reps);
    expectIdentical(serial, parallel);
}

TEST(ParallelEval, ManipSerialVs4ThreadsBitIdentical)
{
    // Planner-side CREATE point: AD+WR at an aggressive planner voltage.
    CreateConfig cfg = CreateConfig::atVoltage(0.72, 0.90);
    cfg.anomalyDetection = true;
    cfg.weightRotation = true;
    const int reps = 6;

    const TaskStats serial =
        manipSys().evaluate(ManipTask::Wine, cfg, reps);
    ParallelEvaluator pool(manipSys(), /*threads=*/4);
    const TaskStats parallel =
        pool.evaluate(static_cast<int>(ManipTask::Wine), cfg, reps);
    expectIdentical(serial, parallel);
}

TEST(ParallelEval, EvaluateViaSystemThreadsMatchesSerial)
{
    CreateConfig cfg = CreateConfig::uniform(5e-4);
    const int reps = 5;
    mineSys().setEvalThreads(1);
    const TaskStats serial = mineSys().evaluate(MineTask::Stone, cfg, reps);
    mineSys().setEvalThreads(4);
    const TaskStats parallel = mineSys().evaluate(MineTask::Stone, cfg, reps);
    mineSys().setEvalThreads(1);
    expectIdentical(serial, parallel);
}

TEST(ParallelEval, EpisodeRngStreamsAreIsolated)
{
    // Every episode must depend only on its own seed: running episode i
    // alone, in reverse order, or in a 4-thread pool yields the identical
    // EpisodeResult -- no RNG state leaks between repetitions.
    CreateConfig cfg = CreateConfig::uniform(5e-4);
    cfg.anomalyDetection = true;
    const int reps = 4;
    const std::uint64_t seed0 = 4242;

    ParallelEvaluator pool(mineSys(), /*threads=*/4);
    const auto pooled = pool.runEpisodes(static_cast<int>(MineTask::Wooden),
                                         cfg, reps, seed0);
    ASSERT_EQ(pooled.size(), static_cast<std::size_t>(reps));

    for (int i = reps - 1; i >= 0; --i) {
        const EpisodeResult solo = mineSys().runEpisode(
            MineTask::Wooden, seed0 + static_cast<std::uint64_t>(i), cfg);
        expectIdentical(solo, pooled[static_cast<std::size_t>(i)]);
    }
}

TEST(ParallelEval, RepeatedParallelRunsAreDeterministic)
{
    CreateConfig cfg = CreateConfig::uniform(5e-4);
    ParallelEvaluator pool(mineSys(), /*threads=*/3);
    const TaskStats a =
        pool.evaluate(static_cast<int>(MineTask::Wooden), cfg, 5);
    const TaskStats b =
        pool.evaluate(static_cast<int>(MineTask::Wooden), cfg, 5);
    expectIdentical(a, b);
}

TEST(EmbodiedSystem, GenericInterfaceCoversBothPlatforms)
{
    EmbodiedSystem& mine = mineSys();
    EXPECT_STREQ(mine.platformName(), "jarvis-1");
    EXPECT_EQ(mine.numTasks(), kNumMineTasks);
    EXPECT_STREQ(mine.taskName(static_cast<int>(MineTask::Wooden)),
                 "wooden");

    EmbodiedSystem& manip = manipSys();
    EXPECT_STREQ(manip.platformName(), "openvla+octo");
    EXPECT_EQ(manip.numTasks(), kNumManipTasks);
    EXPECT_STREQ(manip.taskName(static_cast<int>(ManipTask::Wine)), "wine");

    // Both run the same deployment configuration through the same entry
    // point and produce sane aggregates.
    const CreateConfig cfg = CreateConfig::clean();
    for (EmbodiedSystem* sys : {&mine, &manip}) {
        const TaskStats s = sys->evaluate(0, cfg, 2);
        EXPECT_EQ(s.episodes, 2);
        EXPECT_GE(s.successRate, 0.0);
        EXPECT_LE(s.successRate, 1.0);
        EXPECT_GT(s.avgComputeJ, 0.0);
    }
}

TEST(ParallelEval, ReplicasInheritAgentConfig)
{
    // A customized AgentConfig must carry over to worker replicas, or the
    // parallel path silently runs different episode limits.
    MineSystem sys(/*verbose=*/false);
    sys.agentConfig().subtaskBudget = 120; // non-default
    CreateConfig cfg = CreateConfig::uniform(2e-3);
    const TaskStats serial = sys.evaluate(MineTask::Wooden, cfg, 4);
    sys.setEvalThreads(4);
    const TaskStats parallel = sys.evaluate(MineTask::Wooden, cfg, 4);
    expectIdentical(serial, parallel);
}

TEST(EmbodiedSystem, ReplicateIsBitIdentical)
{
    CreateConfig cfg = CreateConfig::uniform(5e-4);
    const auto replica = manipSys().replicate();
    const EpisodeResult a =
        manipSys().runEpisode(ManipTask::Button, 777, cfg);
    const EpisodeResult b =
        replica->runEpisode(static_cast<int>(ManipTask::Button), 777, cfg);
    expectIdentical(a, b);
}

TEST(EmbodiedSystem, ReplicasShareFrozenWeightBuffers)
{
    // replicate() must not deep-copy or re-freeze the frozen model set:
    // every replica sees the prototype's FP32 weight buffers and cached
    // quantized weights at the same addresses (shared, not rebuilt).
    CreateConfig cfg = CreateConfig::clean();
    manipSys().prepare(cfg); // freeze once, serially
    const auto ra = manipSys().replicate();
    const auto rb = manipSys().replicate();
    auto* a = dynamic_cast<ManipSystem*>(ra.get());
    auto* b = dynamic_cast<ManipSystem*>(rb.get());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    nn::Linear& protoHead = manipSys().planner(false).head();
    ASSERT_TRUE(protoHead.quantState().frozen);
    for (ManipSystem* replica : {a, b}) {
        nn::Linear& head = replica->planner(false).head();
        EXPECT_EQ(head.weight().data(), protoHead.weight().data());
        EXPECT_EQ(head.quantState().wq.data(),
                  protoHead.quantState().wq.data());
        EXPECT_EQ(&replica->controller(), &manipSys().controller());
    }

    // Same holds for the Minecraft backend.
    const auto mr = mineSys().replicate();
    auto* m = dynamic_cast<MineSystem*>(mr.get());
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->planner(false).head().weight().data(),
              mineSys().planner(false).head().weight().data());
    EXPECT_EQ(&m->controller(), &mineSys().controller());
}

TEST(ParallelEval, WorkersRunWithoutSink)
{
    // Observation sinks need not be thread-safe (the counter below is a
    // plain integer), so a sink installed on the prototype must never be
    // shared into worker replicas: workers call the kernel directly, and
    // threaded results still match serial ones.
    CreateConfig cfg = CreateConfig::uniform(5e-4);
    cfg.anomalyDetection = true;
    const int reps = 5;
    MineSystem sys(/*verbose=*/false);
    RecordingSink sink;
    sys.setGemmSink(&sink);

    const TaskStats serial = sys.evaluate(MineTask::Wooden, cfg, reps);
    EXPECT_GT(sink.calls, 0u);

    sink.calls = 0;
    ParallelEvaluator pool(sys, /*threads=*/4);
    const TaskStats parallel =
        pool.evaluate(static_cast<int>(MineTask::Wooden), cfg, reps);
    EXPECT_EQ(0u, sink.calls);
    EXPECT_EQ(&sink, sys.gemmSink());
    expectIdentical(serial, parallel);
}

TEST(EmbodiedSystem, MineSinkSeesPredictorGemms)
{
    // JARVIS-1's VoltageScaler builds its own predictor context; the
    // system's sink must reach it, like the manip/nav predictor contexts,
    // and observing must not change a single bit of the episode.
    MineSystem sys(/*verbose=*/false);
    const CreateConfig cfg = CreateConfig::fullCreate(
        0.72, EntropyVoltagePolicy::preset('C'));
    sys.prepare(cfg);
    const std::uint64_t seed = 4321;
    const EpisodeResult plain =
        sys.runEpisode(static_cast<int>(MineTask::Wooden), seed, cfg);

    RecordingSink sink;
    sys.setGemmSink(&sink);
    const EpisodeResult observed =
        sys.runEpisode(static_cast<int>(MineTask::Wooden), seed, cfg);
    sys.setGemmSink(nullptr);

    // fuse2 is the predictor's last layer: one GEMM per invocation.
    ASSERT_GT(observed.predictorInvocations, 0);
    const auto head =
        sink.seen.find(sys.predictor().fuse2().quantState().wq.data());
    ASSERT_NE(head, sink.seen.end());
    EXPECT_EQ(static_cast<std::uint64_t>(observed.predictorInvocations),
              head->second);
    expectIdentical(plain, observed);
}
