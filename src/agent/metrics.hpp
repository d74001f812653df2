#pragma once

/**
 * @file
 * Episode aggregation and paper-scale energy accounting (Sec. 6.1
 * evaluation metrics: success rate, average steps, average power, total
 * energy; effective voltage).
 *
 * The behavioural simulation decides *how many* planner invocations and
 * controller steps an episode needs and at *what* voltages they ran; the
 * energy model prices them at the paper-scale per-invocation costs
 * (Table 4: 5,344 GOps per planner call, 102 GOps per controller step,
 * 43 MOps per entropy prediction), so Joule-level results keep the
 * magnitudes of Figs. 16-18.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "common/metrics.hpp"
#include "common/serialize.hpp"
#include "perf/energy.hpp"
#include "perf/workloads.hpp"

namespace create {

/** Prices episodes at paper-scale workload costs. */
class PaperEnergyModel
{
  public:
    /** Defaults to the JARVIS-1 stack. */
    PaperEnergyModel();
    PaperEnergyModel(Workload plannerW, Workload controllerW,
                     Workload predictorW);

    /** Computational energy of one episode in joules. */
    double episodeComputeJ(const EpisodeResult& r) const;

    /** Planner-only / controller-only / predictor-only components. */
    double plannerJ(const EpisodeResult& r) const;
    double controllerJ(const EpisodeResult& r) const;
    double predictorJ(const EpisodeResult& r) const;

    /** Energy per operation at nominal voltage (J/op). */
    double jPerOpNominal() const { return 0.107e-12; }

    const Workload& plannerWorkload() const { return plannerW_; }
    const Workload& controllerWorkload() const { return controllerW_; }

  private:
    Workload plannerW_, controllerW_, predictorW_;
};

/** Aggregated statistics over repeated episodes (>=100 in the paper). */
struct TaskStats
{
    int episodes = 0;
    int successes = 0;
    double successRate = 0.0;
    double avgStepsSuccess = 0.0; //!< mean steps among successful trials
    double avgComputeJ = 0.0;     //!< includes failed episodes (full run)
    double avgPlannerEffV = 0.9;
    double avgControllerEffV = 0.9;
    double avgPlannerInvocations = 0.0;
    double avgPlannerV2 = 1.0;    //!< mean (V/Vnom)^2 over planner compute
    double avgControllerV2 = 1.0; //!< mean (V/Vnom)^2 over controller compute
};

/**
 * The unit of record of the campaign result pipeline: one episode's
 * behavioural outcome plus its paper-scale compute energy, priced once at
 * completion time. A cell's TaskStats is a pure deterministic fold
 * (aggregate()) over an ordered ledger of these, which is why a persisted
 * reps=120 ledger can serve any reps<=120 request bit-identically by
 * slicing the prefix.
 */
struct EpisodeRecord
{
    EpisodeResult result;
    double computeJ = 0.0; //!< PaperEnergyModel::episodeComputeJ(result)
    /**
     * Observability payload (store schema v3). Optional: present=false
     * for records read from v2 stores or collected with the registry
     * disabled. Never an input to aggregate() -- the TaskStats fold sees
     * only result+computeJ, which is what keeps metrics-on and
     * metrics-off campaigns bit-identical.
     */
    EpisodeMetrics metrics;
};

/**
 * Name -> member mapping of TaskStats' derived (double) fields; the
 * sweep-diff comparator walks it, so a new field only needs to be added
 * here.
 */
inline constexpr std::pair<const char*, double TaskStats::*>
    kTaskStatFields[] = {
        {"successRate", &TaskStats::successRate},
        {"avgStepsSuccess", &TaskStats::avgStepsSuccess},
        {"avgComputeJ", &TaskStats::avgComputeJ},
        {"avgPlannerEffV", &TaskStats::avgPlannerEffV},
        {"avgControllerEffV", &TaskStats::avgControllerEffV},
        {"avgPlannerInvocations", &TaskStats::avgPlannerInvocations},
        {"avgPlannerV2", &TaskStats::avgPlannerV2},
        {"avgControllerV2", &TaskStats::avgControllerV2},
};

/**
 * The pure fold: aggregate the first `n` records of an episode ledger.
 * Deterministic in the record values alone (the energy was priced when
 * the record was made), so folding a ledger read back from a store is
 * bit-identical to folding the live results it was written from.
 */
TaskStats aggregate(const EpisodeRecord* records, std::size_t n);
TaskStats aggregate(const std::vector<EpisodeRecord>& records);

/** Aggregate episode results with paper-scale energy pricing. */
TaskStats aggregate(const std::vector<EpisodeResult>& results,
                    const PaperEnergyModel& energy);

/**
 * JsonRecord round trip for one ledger entry. Every field is written
 * through the %.17g path of common/serialize, so a write/read round trip
 * reproduces the episode bit-exactly (integer counters up to 2^53 are
 * exact in a double; episode step/flip counts sit far below that).
 */
JsonRecord episodeToRecord(std::string name, const EpisodeRecord& record);

/** Parse a record written by episodeToRecord. False if fields are missing. */
bool episodeFromRecord(const JsonRecord& rec, EpisodeRecord& out);

} // namespace create
