/**
 * @file
 * The traced run: where a workload's time goes, layer by layer, measured
 * from the benchmark's side of each module's public functions.
 *
 *  - core/sweep, core/batched_queue, core/parallel_eval: counters of the
 *    run's 1-thread and N-thread SweepRunner passes.
 *  - setup: spans around PlatformRegistry::make, prepare and replicate.
 *  - core/embodied_system + hw + fault/anomaly/baselines: a serial replay
 *    of every ledger through runEpisode, with a timing IntGemmSink
 *    (installed with setGemmSink) around intGemm and the MetricsRegistry
 *    episode block around each episode. Timers observe only: the replay
 *    must reproduce the reference ledgers bit for bit.
 *  - common/metrics and trace: the same replay untraced and with the
 *    registry off, interleaved, for the overhead fractions.
 *  - models/env: a probe calling each model's inference entry point and
 *    each World's observe/step/renderImage on its own.
 *  - core/store_backend: the finished store replayed into a fresh one
 *    through openStoreBackend + flush, 16 episodes per flush, then loaded.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "common/metrics.hpp"
#include "core/create_system.hpp"
#include "core/manip_system.hpp"
#include "core/nav_system.hpp"
#include "core/platform_registry.hpp"
#include "core/store_backend.hpp"
#include "harness.hpp"
#include "hw/faulty_gemm.hpp"

using namespace create;

namespace perfbench {

namespace {

enum Owner { kPlanner = 0, kController, kPredictor, kOther, kOwners };

/** IntGemmSink that times each intGemm and attributes it to a model. */
class TimingSink : public IntGemmSink
{
  public:
    void gemm(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wq, std::int64_t n,
              std::int32_t* acc) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        intGemm(xq, m, k, wq, n, acc);
        const double dt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        int owner = kOther;
        if (learning_ >= 0) {
            owners_[wq] = learning_;
            owner = learning_;
        } else if (const auto it = owners_.find(wq); it != owners_.end()) {
            owner = it->second;
        }
        ++calls;
        macs += static_cast<double>(m) * static_cast<double>(k) *
                static_cast<double>(n);
        busy += dt;
        ownerBusy[static_cast<std::size_t>(owner)] += dt;
    }

    /** Attribute every weight buffer seen until the next call to `owner`
     *  (-1 stops learning). */
    void learn(int owner) { learning_ = owner; }

    void reset()
    {
        calls = 0;
        macs = busy = 0.0;
        ownerBusy.fill(0.0);
    }

    std::uint64_t calls = 0;
    double macs = 0.0;
    double busy = 0.0;
    std::array<double, kOwners> ownerBusy{};

  private:
    int learning_ = -1;
    std::unordered_map<const void*, int> owners_;
};

/** Per-call unit times (µs) of one platform's models and world. */
struct Probe
{
    std::vector<double> planner, controller, predictor, step, observe, render;
};

double
usSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Call each model's inference entry point and the world's
 * observe/step/renderImage `iters` times with contexts set by
 * CreateConfig::applyTo. With `learn`, one untimed round first maps each
 * model's weight buffers to it in the timing sink.
 */
template <class Sys, class World, class Render, class Step>
void
probePlatform(Sys& sys, World& world, const CreateConfig& cfg, int task,
              int subtask, int numSubtasks, Render render, Step step,
              int iters, Probe& p, TimingSink* learn)
{
    ComputeContext pctx(1), cctx(2), dctx(3);
    pctx.domain = Domain::Planner;
    cctx.domain = Domain::Controller;
    dctx.domain = Domain::Predictor;
    cfg.applyTo(pctx, /*isPlanner=*/true);
    cfg.applyTo(cctx, /*isPlanner=*/false);
    PlannerModel& planner = sys.planner(cfg.weightRotation);
    ControllerModel& controller = sys.controller();
    EntropyPredictor& pred = sys.predictor();
    const int promptDim = pred.config().promptDim;

    if (learn) {
        ComputeContext lp(1), lc(2), ld(3);
        lp.gemmSink = lc.gemmSink = ld.gemmSink = learn;
        const auto obs = world.observe();
        learn->learn(kPlanner);
        sys.planner(false).inferPlan(task, 0, lp);
        sys.planner(true).inferPlan(task, 0, lp);
        learn->learn(kController);
        controller.inferLogits(subtask, obs.spatial, obs.state, lc);
        learn->learn(kPredictor);
        pred.infer(render(world, pred),
                   predictorPrompt(subtask, numSubtasks, obs.spatial,
                                   obs.state, promptDim),
                   ld);
        learn->learn(-1);
    }

    for (int i = 0; i < iters; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        const auto obs = world.observe();
        p.observe.push_back(usSince(t0));

        t0 = std::chrono::steady_clock::now();
        planner.inferPlan(task, 0, pctx);
        p.planner.push_back(usSince(t0));

        t0 = std::chrono::steady_clock::now();
        controller.inferLogits(subtask, obs.spatial, obs.state, cctx);
        p.controller.push_back(usSince(t0));

        t0 = std::chrono::steady_clock::now();
        const Tensor img = render(world, pred);
        p.render.push_back(usSince(t0));

        const auto prompt = predictorPrompt(subtask, numSubtasks, obs.spatial,
                                            obs.state, promptDim);
        t0 = std::chrono::steady_clock::now();
        pred.infer(img, prompt, dctx);
        p.predictor.push_back(usSince(t0));

        t0 = std::chrono::steady_clock::now();
        step(world, i);
        p.step.push_back(usSince(t0));
    }
}

/** Dispatch the probe on the platform's concrete backend. */
void
probe(EmbodiedSystem& sys, const SweepCell& c, int iters, Probe& p,
      TimingSink* learn)
{
    if (auto* mine = dynamic_cast<MineSystem*>(&sys)) {
        const auto task = static_cast<MineTask>(c.taskId);
        MineWorld world(MineWorld::Config{40, 40, task, c.seed0});
        const Subtask st = goldPlan(task).front();
        world.setActiveSubtask(st);
        probePlatform(
            *mine, world, c.cfg, c.taskId, static_cast<int>(st.type),
            kNumSubtaskTypes,
            [](MineWorld& w, EntropyPredictor& pr) {
                return w.renderImage(pr.config().imgRes,
                                     pr.config().viewRadius);
            },
            [](MineWorld& w, int i) {
                w.step(static_cast<Action>(i % kNumActions));
            },
            iters, p, learn);
    } else if (auto* manip = dynamic_cast<ManipSystem*>(&sys)) {
        const auto task = static_cast<ManipTask>(c.taskId);
        ManipWorld world(task, c.seed0);
        const ManipSubtask st = manipGoldPlan(task).front();
        world.setActiveSubtask(st);
        probePlatform(
            *manip, world, c.cfg, c.taskId, static_cast<int>(st),
            kNumManipSubtasks,
            [](ManipWorld& w, EntropyPredictor& pr) {
                return w.renderImage(pr.config().imgRes);
            },
            [](ManipWorld& w, int i) {
                w.step(static_cast<ManipAction>(i % kNumManipActions));
            },
            iters, p, learn);
    } else if (auto* nav = dynamic_cast<NavSystem*>(&sys)) {
        const auto task = static_cast<NavTask>(c.taskId);
        NavWorld world(task, c.seed0);
        const NavSubtask st = navGoldPlan(task).front();
        world.setActiveSubtask(st);
        probePlatform(
            *nav, world, c.cfg, c.taskId, static_cast<int>(st),
            kNumNavSubtasks,
            [](NavWorld& w, EntropyPredictor& pr) {
                return w.renderImage(pr.config().imgRes);
            },
            [](NavWorld& w, int i) {
                w.step(static_cast<NavAction>(i % kNumNavActions));
            },
            iters, p, learn);
    }
}

enum class Variant { Untraced, Traced, MetricsOff };

/** Sums over one traced replay. */
struct ReplayTotals
{
    std::vector<double> episodeMs;
    double episodeS = 0.0;
    double steps = 0.0, plannerCalls = 0.0, predictorCalls = 0.0;
    EpisodeMetrics metrics;
    double modelEstS[3] = {0.0, 0.0, 0.0}; //!< planner/controller/predictor
    double envEstS = 0.0;
};

} // namespace

void
runTraced(const Workload& w, const RunContext& ctx, const PassResult& ref,
          const PassResult& nt, Metrics& out, Checker& check, Tracer& tracer,
          int root)
{
    // --- campaign counters of this run's passes --------------------------
    out.add("sweep.ledgers_executed", nt.ledgersExecuted, "count");
    out.add("sweep.episodes_executed", static_cast<double>(nt.episodesExecuted),
            "count");
    out.add("batched_queue.requests", static_cast<double>(nt.batch.requests),
            "count");
    out.add("batched_queue.groups", static_cast<double>(nt.batch.groups),
            "count");
    out.add("batched_queue.avg_batch", nt.batch.avgBatch(), "requests");
    out.add("batched_queue.window_expiries",
            static_cast<double>(nt.batch.windowExpiries), "count");
    out.add("batched_queue.inline_runs",
            static_cast<double>(nt.batch.inlineRuns), "count");
    // The reference pass warms the process up and runs slow; the repeated
    // 1-thread pass gives eps1.
    const double epsN = static_cast<double>(nt.episodesExecuted) / nt.runS;
    out.add("parallel_eval.scaling_eff",
            ctx.episodesPerS1t > 0 ? epsN / (ctx.threads * ctx.episodesPerS1t)
                                   : 0.0,
            "frac");

    // --- setup -------------------------------------------------------------
    std::map<std::string, std::unique_ptr<EmbodiedSystem>> systems;
    double loadS = 0.0, prepareS = 0.0, replicateS = 0.0;
    const int setupSpan = tracer.begin("setup", root);
    for (const std::string& p : w.platforms) {
        const int s = tracer.begin("setup.model_load", setupSpan);
        const double t0 = nowS();
        systems[p] = PlatformRegistry::instance().make(p);
        loadS += nowS() - t0;
        tracer.end(s);
    }
    {
        const int s = tracer.begin("setup.prepare", setupSpan);
        const double t0 = nowS();
        for (const SweepCell& c : w.cells)
            systems[c.platform]->prepare(c.cfg);
        prepareS = nowS() - t0;
        tracer.end(s);
    }
    {
        const int s = tracer.begin("setup.replicate", setupSpan);
        const double t0 = nowS();
        for (const std::string& p : w.platforms)
            for (int i = 0; i < ctx.threads; ++i)
                systems[p]->replicate();
        replicateS = nowS() - t0;
        tracer.end(s);
    }
    tracer.end(setupSpan);
    out.add("setup.model_load_s", loadS, "s");
    out.add("setup.prepare_s", prepareS, "s");
    out.add("setup.replicate_s", replicateS, "s");

    // --- models / env probe (also maps weight buffers to models) ---------
    TimingSink sink;
    std::map<std::string, Probe> probes;
    {
        const int s = tracer.begin("probe.models_env", root);
        for (const std::string& p : w.platforms) {
            const auto it =
                std::find_if(w.cells.begin(), w.cells.end(),
                             [&](const SweepCell& c) { return c.platform == p; });
            probe(*systems[p], *it, 64, probes[p], &sink);
        }
        tracer.end(s);
    }
    // Per-platform unit costs (s) for the computed shares.
    struct Unit
    {
        double planner, controller, predictor, stepObserve, render;
    };
    std::map<std::string, Unit> units;
    for (const auto& [p, pr] : probes)
        units[p] = {median(pr.planner) * 1e-6, median(pr.controller) * 1e-6,
                    median(pr.predictor) * 1e-6,
                    (median(pr.step) + median(pr.observe)) * 1e-6,
                    median(pr.render) * 1e-6};
    Probe pooled;
    for (const auto& [p, pr] : probes)
        for (auto [dst, src] :
             {std::pair{&pooled.planner, &pr.planner},
              std::pair{&pooled.controller, &pr.controller},
              std::pair{&pooled.predictor, &pr.predictor},
              std::pair{&pooled.step, &pr.step},
              std::pair{&pooled.observe, &pr.observe},
              std::pair{&pooled.render, &pr.render}})
            dst->insert(dst->end(), src->begin(), src->end());

    // --- serial replay: untraced / traced / registry off, interleaved ----
    std::vector<double> untracedS, tracedS, offS;
    ReplayTotals totals;
    double gemmCalls = 0.0, gemmMacs = 0.0, gemmBusy = 0.0;
    std::array<double, kOwners> ownerBusy{};
    const bool registryWasOn = MetricsRegistry::enabled();
    auto replay = [&](Variant v) {
        const bool traced = v == Variant::Traced;
        MetricsRegistry::setEnabled(v != Variant::MetricsOff);
        Ledgers results;
        ReplayTotals t;
        if (traced)
            sink.reset();
        const int span = tracer.begin(
            traced ? "replay.traced"
                   : (v == Variant::Untraced ? "replay.untraced"
                                             : "replay.metrics_off"),
            root);
        long long episodeId = 0;
        const double t0 = nowS();
        for (std::size_t l = 0; l < w.ledgers.size(); ++l) {
            const SweepCell& c = w.cells[w.ledgers[l]];
            EmbodiedSystem& sys = *systems[c.platform];
            const Unit& u = units[c.platform];
            sys.prepare(c.cfg);
            sys.setGemmSink(traced ? &sink : nullptr);
            results.emplace_back();
            for (int i = 0; i < c.reps; ++i, ++episodeId) {
                const int es =
                    traced ? tracer.begin("episode", span, episodeId) : -1;
                MetricsRegistry::tls().beginEpisode();
                const double e0 = nowS();
                results.back().push_back(
                    sys.runEpisode(c.taskId, c.seed0 + static_cast<std::uint64_t>(i),
                                   c.cfg));
                const double dt = nowS() - e0;
                const EpisodeMetrics m =
                    MetricsRegistry::tls().endEpisode(dt * 1e3);
                if (!traced)
                    continue;
                tracer.end(es);
                const EpisodeResult& r = results.back().back();
                t.episodeMs.push_back(dt * 1e3);
                t.episodeS += dt;
                t.steps += r.steps;
                t.plannerCalls += r.plannerInvocations;
                t.predictorCalls += r.predictorInvocations;
                t.metrics += m;
                t.modelEstS[0] += r.plannerInvocations * u.planner;
                t.modelEstS[1] += r.steps * u.controller;
                t.modelEstS[2] += r.predictorInvocations * u.predictor;
                t.envEstS += r.steps * u.stepObserve +
                             r.predictorInvocations * u.render;
            }
            sys.setGemmSink(nullptr);
        }
        const double total = nowS() - t0;
        tracer.end(span);
        MetricsRegistry::setEnabled(registryWasOn);
        check.compare(w, ref.episodes, results,
                      traced ? "traced serial replay"
                             : (v == Variant::Untraced
                                    ? "untraced serial replay"
                                    : "registry-off serial replay"));
        if (traced) {
            totals = std::move(t);
            gemmCalls = static_cast<double>(sink.calls);
            gemmMacs = sink.macs;
            gemmBusy = sink.busy;
            ownerBusy = sink.ownerBusy;
        }
        return total;
    };
    for (int round = 0;; ++round) {
        const double roundStart = nowS();
        // Rotate the order so no variant always runs first.
        const Variant order[3] = {Variant::Untraced, Variant::Traced,
                                  Variant::MetricsOff};
        for (int k = 0; k < 3; ++k) {
            const Variant v = order[(k + round) % 3];
            const double s = replay(v);
            (v == Variant::Untraced ? untracedS
                                    : v == Variant::Traced ? tracedS : offS)
                .push_back(s);
        }
        // Another round only if it fits in the measured window.
        const double roundS = nowS() - roundStart;
        if (nowS() + roundS > ctx.deadline)
            break;
    }

    const double episodeS = totals.episodeS;
    out.add("episode.count", static_cast<double>(totals.episodeMs.size()),
            "count");
    out.add("episode.ms_p50", median(totals.episodeMs), "ms");
    const auto [tailMs, tailPct] = tail(totals.episodeMs);
    out.add("episode.ms_tail", tailMs, "ms");
    out.add("episode.ms_tail_pct", tailPct, "%");
    out.add("episode.self_s", episodeS - gemmBusy, "s");
    out.add("episode.steps", totals.steps, "count");
    out.add("episode.planner_calls", totals.plannerCalls, "count");
    out.add("episode.predictor_calls", totals.predictorCalls, "count");

    out.add("hw.intgemm.calls", gemmCalls, "count");
    out.add("hw.intgemm.macs", gemmMacs, "count");
    out.add("hw.intgemm.busy_s", gemmBusy, "s");
    out.add("hw.intgemm.gmacs_per_s", gemmBusy > 0 ? gemmMacs / gemmBusy / 1e9 : 0.0,
            "GMAC/s");
    out.add("hw.intgemm.share", episodeS > 0 ? gemmBusy / episodeS : 0.0, "frac");
    out.add("hw.intgemm.planner.busy_s", ownerBusy[kPlanner], "s");
    out.add("hw.intgemm.controller.busy_s", ownerBusy[kController], "s");
    out.add("hw.intgemm.predictor.busy_s", ownerBusy[kPredictor], "s");
    out.add("hw.intgemm.other.busy_s", ownerBusy[kOther], "s");

    const EpisodeMetrics& m = totals.metrics;
    out.add("hw.faulty_linear.calls", static_cast<double>(m.gemms), "count");
    out.add("fault.flips_injected", static_cast<double>(m.flipsInjected),
            "count");
    out.add("fault.flips_escaped", static_cast<double>(m.flipsEscaped),
            "count");
    out.add("anomaly.flips_detected", static_cast<double>(m.flipsDetected),
            "count");
    out.add("baselines.reexecutions", static_cast<double>(m.reExecutions),
            "count");

    const double untraced = median(untracedS);
    const double off = median(offS);
    out.add("metrics_registry.overhead_frac", off > 0 ? untraced / off - 1.0 : 0.0,
            "frac");
    out.add("trace.overhead_frac",
            untraced > 0 ? median(tracedS) / untraced - 1.0 : 0.0, "frac");
    out.add("trace.replay_rounds", static_cast<double>(tracedS.size()), "count");

    out.add("models.planner.call_us", median(pooled.planner), "us");
    out.add("models.controller.call_us", median(pooled.controller), "us");
    out.add("models.predictor.call_us", median(pooled.predictor), "us");
    out.add("env.step_us", median(pooled.step), "us");
    out.add("env.observe_us", median(pooled.observe), "us");
    out.add("env.render_us", median(pooled.render), "us");
    // Computed, not measured in place: call counts x probe unit time over
    // traced episode time.
    const double denom = episodeS > 0 ? episodeS : 1.0;
    out.add("models.planner.share", totals.modelEstS[0] / denom, "frac");
    out.add("models.controller.share", totals.modelEstS[1] / denom, "frac");
    out.add("models.predictor.share", totals.modelEstS[2] / denom, "frac");
    out.add("env.share", totals.envEstS / denom, "frac");

    // --- store backend ----------------------------------------------------
    std::vector<JsonRecord> records;
    if (!ctx.finishedStore.empty()) {
        StoreLoadInfo info;
        openStoreBackend(ctx.finishedStore, StoreFormat::Json, "perfbench")
            ->load(records, &info, false);
    }
    std::vector<double> flushMs, bytesAfter, loadS3;
    const std::string probePath = ctx.outDir + "/store-probe-" + w.name;
    std::string err;
    const int storeSpan = tracer.begin("store.replay", root);
    if (!replayIntoStore(records, probePath, 16, &flushMs, &bytesAfter, &err,
                         &tracer, storeSpan))
        check.failPass(w, "store replay: " + err, "store probe");
    tracer.end(storeSpan);
    std::size_t loaded = 0;
    for (int k = 0; k < 3; ++k) {
        const int s = tracer.begin("store.load", root);
        std::vector<JsonRecord> back;
        StoreLoadInfo info;
        const double t0 = nowS();
        openStoreBackend(probePath, StoreFormat::Json, "perfbench")
            ->load(back, &info, false);
        loadS3.push_back(nowS() - t0);
        tracer.end(s);
        loaded = back.size();
    }
    if (loaded != records.size())
        check.failPass(w, "store probe reloaded " + std::to_string(loaded) +
                              " of " + std::to_string(records.size()) +
                              " records",
                       "store probe");
    double written = 0.0, flushS = 0.0;
    for (const double b : bytesAfter)
        written += b;
    for (const double ms : flushMs)
        flushS += ms * 1e-3;
    out.add("store.flushes", static_cast<double>(flushMs.size()), "count");
    out.add("store.flush_ms_p50", median(flushMs), "ms");
    const auto [flushTail, flushPct] = tail(flushMs);
    out.add("store.flush_ms_tail", flushTail, "ms");
    out.add("store.flush_ms_tail_pct", flushPct, "%");
    out.add("store.flush_s", flushS, "s");
    out.add("store.bytes_written", written, "bytes");
    out.add("store.load_s", median(loadS3), "s");
    out.add("store.records", static_cast<double>(loaded), "count");
    out.add("store.bytes", pathBytes(probePath), "bytes");
    std::error_code ec;
    std::filesystem::remove_all(probePath, ec);
}

} // namespace perfbench
