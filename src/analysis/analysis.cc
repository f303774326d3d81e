#include "analysis/analysis.h"

namespace echo::analysis {

AnalysisReport
analyzeAll(const std::vector<graph::Val> &fetches,
           const std::vector<graph::Val> &weight_grads,
           std::optional<memory::PlannedSchedule> *planned)
{
    AnalysisReport report = verifyFetches(fetches);
    // A structurally broken graph makes schedule construction panic, so
    // the schedule-level analyzers only run on verified graphs.
    if (!report.ok())
        return report;

    memory::PlannedSchedule s =
        memory::planSchedule(fetches, weight_grads);
    report.merge(
        analyzeLifetimes(s.liveness, fetches, weight_grads, &s.plan));
    report.merge(detectParallelHazards(buildTopology(fetches)));
    if (planned != nullptr)
        *planned = std::move(s);
    return report;
}

} // namespace echo::analysis
