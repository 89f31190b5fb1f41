#include "serve/fleet.hh"

#include <sstream>
#include <utility>

namespace serve
{

namespace
{

ttda::MachineConfig
darkConfig(ttda::MachineConfig cfg)
{
    cfg.trace = nullptr;
    cfg.tracer = nullptr;
    cfg.metrics = nullptr;
    return cfg;
}

} // namespace

sim::fault::FaultPlan
resolveJobFaults(const sim::fault::FaultPlan &plan,
                 std::uint64_t machineSeed, std::uint64_t jobId)
{
    sim::fault::FaultPlan resolved = plan;
    if (resolved.enabled() && resolved.seed == 0)
        resolved.seed = sim::deriveJobSeed(machineSeed, jobId);
    return resolved;
}

TtdaReplica::TtdaReplica(const graph::Program &program,
                         ttda::MachineConfig machine,
                         bool captureStatsJson)
    : machine_(std::make_unique<ttda::Machine>(
          program, darkConfig(std::move(machine)))),
      captureStatsJson_(captureStatsJson)
{
}

FleetJobResult
TtdaReplica::run(const FleetJob &job, std::uint64_t jobId)
{
    ttda::Machine &m = *machine_;
    m.reset();
    m.setFaultPlan(resolveJobFaults(job.faults, m.config().seed, jobId));
    for (const FleetRequest &req : job.requests)
        m.submit(job.cb, req.args, req.arrival);

    FleetJobResult r;
    r.outputs = m.serve();
    r.cycles = m.cycles();
    r.deadlocked = m.deadlocked();
    r.submitted = m.requestsSubmitted();
    r.completed = m.requestsCompleted();
    r.watermarkHits = m.watermarkHits();
    r.latency = m.requestLatency();
    if (captureStatsJson_) {
        std::ostringstream os;
        m.dumpStatsJson(os);
        r.statsJson = os.str();
    }
    return r;
}

TtdaFleet::TtdaFleet(const graph::Program &program,
                     const ttda::MachineConfig &machine,
                     const FleetConfig &cfg)
    : fleet_(sim::Fleet::Config{cfg.workers})
{
    replicas_.reserve(fleet_.workers());
    for (unsigned w = 0; w < fleet_.workers(); ++w)
        replicas_.emplace_back(program, machine, cfg.captureStatsJson);
}

std::vector<FleetJobResult>
TtdaFleet::run(const std::vector<FleetJob> &jobs)
{
    std::vector<FleetJobResult> results(jobs.size());
    fleet_.run(jobs.size(), [&](unsigned worker, std::size_t j) {
        results[j] = replicas_[worker].run(jobs[j], j);
        results[j].worker = worker;
    });
    return results;
}

sim::Histogram
TtdaFleet::mergedLatency(const std::vector<FleetJobResult> &results)
{
    sim::Histogram merged;
    for (const FleetJobResult &r : results)
        merged.merge(r.latency);
    return merged;
}

VnFleetJobResult
runVnJob(vn::VnMachineConfig machine, const VnFleetJob &job)
{
    machine.metrics = nullptr;
    vn::VnMachine m(std::move(machine));
    workloads::VnServeDriver drv(m, job.requests);
    drv.attach();
    m.run();

    VnFleetJobResult r;
    r.cycles = m.cycles();
    r.submitted = drv.submitted();
    r.completed = drv.completed();
    r.latency = drv.latency();
    return r;
}

VnFleet::VnFleet(const vn::VnMachineConfig &machine,
                 const FleetConfig &cfg)
    : fleet_(sim::Fleet::Config{cfg.workers}), machineCfg_(machine)
{
}

std::vector<VnFleetJobResult>
VnFleet::run(const std::vector<VnFleetJob> &jobs)
{
    std::vector<VnFleetJobResult> results(jobs.size());
    fleet_.run(jobs.size(), [&](unsigned, std::size_t j) {
        results[j] = runVnJob(machineCfg_, jobs[j]);
    });
    return results;
}

} // namespace serve
