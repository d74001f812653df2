#pragma once

/**
 * @file
 * Autonomy-adaptive voltage scaling (paper Sec. 5.3, Figs. 11/21).
 *
 * EntropyVoltagePolicy maps the controller's (normalized) action-logit
 * entropy to an operating voltage: low entropy = critical step = robust
 * voltage; high entropy = non-critical step = aggressive undervolting.
 * Presets A-F mirror Fig. 21's searched policies; random candidates
 * support the 100-candidate policy search of Sec. 6.5.
 *
 * VoltageScaler is the runtime piece: every `interval` steps (default 5,
 * Sec. 6.5) it runs the entropy predictor at nominal voltage, maps the
 * prediction through the policy, and retunes the controller's context via
 * the slew-rate-limited digital LDO.
 */

#include "agent/agent.hpp"
#include "hw/ldo.hpp"
#include "models/entropy_predictor.hpp"

namespace create {

/** Piecewise-constant entropy -> voltage mapping. */
class EntropyVoltagePolicy
{
  public:
    /** Constant-nominal policy. */
    EntropyVoltagePolicy();

    /**
     * @param thresholds ascending normalized-entropy breakpoints in (0,1)
     * @param voltages   one voltage per bucket (thresholds.size()+1 values,
     *                   ordered from the low-entropy/critical bucket up)
     */
    EntropyVoltagePolicy(std::vector<double> thresholds,
                         std::vector<double> voltages, std::string name);

    /** Voltage for a normalized entropy in [0, 1]. */
    double voltageFor(double normalizedEntropy) const;

    const std::string& name() const { return name_; }
    const std::vector<double>& thresholds() const { return thresholds_; }
    const std::vector<double>& voltages() const { return voltages_; }

    /** Fixed-voltage policy (the paper's constant-voltage baseline). */
    static EntropyVoltagePolicy constant(double v);

    /** Fig. 21 presets; `which` in 'A'..'F'. */
    static EntropyVoltagePolicy preset(char which);
    static std::vector<EntropyVoltagePolicy> presets();

    /** Random candidate for the 100-candidate policy search. */
    static EntropyVoltagePolicy random(Rng& rng, int index);

  private:
    std::vector<double> thresholds_;
    std::vector<double> voltages_;
    std::string name_;
};

/** Per-step hook implementing predictor-driven LDO voltage scaling. */
class VoltageScaler : public AgentHooks
{
  public:
    /**
     * @param maxEntropy normalization constant; defaults to ln(#actions)
     *        (the paper's 13.07 for JARVIS-1's factored action space).
     */
    VoltageScaler(EntropyPredictor& predictor, EntropyVoltagePolicy policy,
                  int intervalSteps = 5, double maxEntropy = 0.0);

    void beforeController(const MineWorld& w, std::uint64_t step,
                          ComputeContext& controllerCtx,
                          EpisodeResult& r) override;

    /** Observe the predictor's GEMMs (see IntGemmSink; null = direct). */
    void setGemmSink(IntGemmSink* sink) { predictorCtx_.gemmSink = sink; }

    DigitalLdo& ldo() { return ldo_; }
    const EntropyVoltagePolicy& policy() const { return policy_; }
    double lastPredictedEntropy() const { return lastEntropy_; }

  private:
    EntropyPredictor& predictor_;
    ComputeContext predictorCtx_; //!< clean, nominal-voltage context
    EntropyVoltagePolicy policy_;
    DigitalLdo ldo_;
    int interval_;
    double maxEntropy_;
    double lastEntropy_ = 0.0;
};

} // namespace create
