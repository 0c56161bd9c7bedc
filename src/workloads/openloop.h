/**
 * @file
 * Open-loop multi-tenant traffic engine (docs/workloads.md).
 *
 * Closed-loop workers (ApacheWorker, YcsbRunner...) issue the next
 * request only after the previous one completes, so offered load
 * collapses exactly when the system saturates and tail latency is
 * flattered. Here arrivals are generated *open loop*: every request
 * carries a virtual arrival timestamp drawn from a deterministic
 * stochastic process, and request latency is measured from that
 * arrival — queueing delay included — no matter how far behind the
 * servers fall.
 *
 * Three arrival processes are modeled, all driven by per-client
 * xoshiro256** streams derived with Rng::jump() (never `seed + i`):
 *  - Poisson: memoryless arrivals at a constant mean rate;
 *  - Bursty: a 2-state Markov-modulated Poisson process (MMPP-2),
 *    calm/burst dwell times exponential, tenant-wide modulation so
 *    client bursts correlate;
 *  - Diurnal: a triangle ramp of the rate between (1-amp) and
 *    (1+amp) of the mean — a day/night cycle compressed to
 *    simulation scale (closed form, no libm trigonometry).
 *
 * Mean offered load always equals ArrivalConfig::ratePerSec: the
 * modulated processes are generated by thinning a peak-rate Poisson
 * stream with a mean-normalized rate factor.
 *
 * Connection churn: each client's request stream is partitioned into
 * sessions of geometrically distributed length; the first request of
 * a session is flagged and charged TCP accept costs by the server.
 *
 * Execution is two-phase on one System/engine:
 *  1. Generation: one ArrivalGenTask per tenant materializes the
 *     tenant's merged arrival schedule. The tasks share no simulated
 *     state, so the schedule does not depend on how they interleave.
 *  2. Service: OpenLoopServer tasks claim schedule entries in arrival
 *     order (deterministic FCFS under min-clock stepping), wait for
 *     the arrival when idle, and charge the tenant's real
 *     file-system/VM work. Latency histograms, queueing delay and
 *     SLO-violation counters land in the MetricsRegistry under
 *     "openloop.<tenant>.*".
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace dax::sys {
class System;
}

namespace dax::wl {

struct AccessOptions;

/** Arrival process family (docs/workloads.md). */
enum class ArrivalKind
{
    Poisson, ///< constant-rate memoryless arrivals
    Bursty,  ///< MMPP-2: calm/burst modulated Poisson
    Diurnal, ///< triangle rate ramp between (1±amplitude) x mean
};

const char *arrivalKindName(ArrivalKind kind);

struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean offered load over all clients, requests per second. */
    double ratePerSec = 100000.0;
    /** Independent client streams (each gets its own jump() stream). */
    unsigned clients = 64;
    /** Mean geometric session length in requests (>= 1). */
    double meanSessionRequests = 64.0;

    // Bursty (MMPP-2) ---------------------------------------------------
    /** Burst-state rate relative to the calm state. */
    double burstRateFactor = 6.0;
    sim::Time meanBurstNs = 2000000;  ///< mean burst dwell
    sim::Time meanCalmNs = 10000000;  ///< mean calm dwell

    // Diurnal ramp ------------------------------------------------------
    /** Rate swings base*(1-amp)..base*(1+amp). In [0, 1). */
    double diurnalAmplitude = 0.75;
    sim::Time diurnalPeriodNs = 40000000;
};

/** One scheduled request. */
struct Arrival
{
    sim::Time at;         ///< arrival time relative to schedule start
    std::uint32_t client; ///< issuing client stream
    bool newSession;      ///< first request of a connection
};

/**
 * Deterministic arrival generator for one tenant. Client streams are
 * `base.stream(1 + client)`; stream 0 modulates the tenant-wide MMPP
 * state so bursts correlate across clients. Generation order of
 * clients never changes the output (each stream is self-contained and
 * the modulation timeline extends append-only from its own stream).
 */
class ArrivalProcess
{
  public:
    ArrivalProcess(ArrivalConfig config, sim::Rng base);

    /**
     * Exactly @p count arrivals of client @p client, ascending
     * strictly increasing timestamps (>= 1 ns apart).
     */
    std::vector<Arrival> generateClient(unsigned client,
                                        std::uint64_t count);

    /**
     * Merge per-client streams into one time-sorted schedule. Ties
     * (equal timestamps) order by client id — a total order, so the
     * schedule is independent of merge order.
     */
    static std::vector<Arrival>
    mergeSchedules(std::vector<std::vector<Arrival>> perClient);

    const ArrivalConfig &config() const { return config_; }

  private:
    /** Mean-normalized rate factor at @p t (thinning weight). */
    double factorAt(sim::Time t);
    /** Peak of factorAt over all t (thinning envelope). */
    double peakFactor() const;
    /** Extend the MMPP state timeline to cover @p t. */
    void ensureModulation(sim::Time t);

    struct RateSegment
    {
        sim::Time start;
        double factor;
    };

    ArrivalConfig config_;
    sim::Rng base_;
    sim::Rng modRng_;                   ///< MMPP dwell stream
    std::vector<RateSegment> segments_; ///< Bursty only, append-only
    sim::Time modCovered_ = 0;
    bool modStateBurst_ = false;
};

/**
 * Engine task that materializes one tenant's arrival schedule, one
 * client stream per quantum, then merges. The task touches only its
 * output vector, so the schedule is a pure function of the config and
 * the random stream. Virtual cost is a token ~100 ns per quantum
 * (schedule synthesis is control-plane work, not simulated machine
 * time).
 */
class ArrivalGenTask : public sim::Task
{
  public:
    ArrivalGenTask(ArrivalConfig config, sim::Rng base,
                   std::uint64_t totalRequests,
                   std::vector<Arrival> *out, std::string label);

    bool step(sim::Cpu &cpu) override;
    std::string name() const override { return label_; }

  private:
    ArrivalProcess process_;
    std::uint64_t totalRequests_;
    std::vector<Arrival> *out_;
    std::vector<std::vector<Arrival>> perClient_;
    unsigned nextClient_ = 0;
    std::string label_;
};

/** Tenant-side service hooks driven by OpenLoopServer. */
class OpenLoopService
{
  public:
    virtual ~OpenLoopService() = default;

    /** Serve one request; charge all work to @p cpu. */
    virtual void serve(sim::Cpu &cpu, const Arrival &arrival) = 0;

    /** AccessOptions for quantum-start housekeeping (IPI/LATR). */
    virtual const AccessOptions &access() const = 0;
};

/** Per-tenant open-loop instruments (names under "openloop.<name>"). */
struct OpenLoopStats
{
    sim::Counter requests;
    sim::Counter connections;
    sim::Counter sloViolations;
    sim::LatencyHistogram latency;    ///< completion - arrival
    sim::LatencyHistogram queueDelay; ///< service start - arrival
    sim::LatencyHistogram service;    ///< completion - service start
    sim::Time sloNs = 0;              ///< 0 disables violation counting

    static OpenLoopStats make(sim::MetricsScope scope, sim::Time sloNs);
};

/**
 * Shared dispatch state of one tenant's server pool. Min-clock
 * stepping serializes the servers' claims deterministically.
 */
struct OpenLoopQueue
{
    std::vector<Arrival> schedule;
    std::size_t next = 0;
    /** Virtual time the schedule's t=0 maps to (service run start). */
    sim::Time base = 0;
    /** Completion time of the last finished request. */
    sim::Time lastDone = 0;
    /**
     * Trace flow id of the tenant's claim chain: one causal arrow
     * threads every schedule claim in FCFS order, so Perfetto shows
     * how a tenant's requests hop across server tracks. 0 when no
     * chain is open (tracing off or schedule finished).
     */
    std::uint64_t flowId = 0;
};

/**
 * One server worker: claims the next scheduled arrival, waits for it
 * when idle (open loop: arrivals never wait for servers), serves it
 * through the tenant hook and accounts latency *from the arrival
 * timestamp*. One request per quantum keeps queueing exact.
 *
 * With Openloop tracing enabled each request gets a `request` span
 * whose detail carries `tenant=<name> seq=<n> arr=<ns>` (the key the
 * tail analyzer stitches on, tools/tail_analysis.h), the queue's
 * claim chain gets flow arrows, and completed requests are offered to
 * the SpanRecorder's per-tenant exemplar reservoir. The server also
 * ticks the System's windowed timeline, when one is enabled.
 */
class OpenLoopServer : public sim::Task
{
  public:
    /** Exemplar reservoir depth per tenant (slowest K requests). */
    static constexpr std::size_t kExemplarTopK = 8;

    OpenLoopServer(sys::System &system, OpenLoopService &service,
                   OpenLoopQueue &queue, OpenLoopStats &stats,
                   std::string tenant, std::string label);

    bool step(sim::Cpu &cpu) override;
    std::string name() const override { return label_; }

  private:
    sys::System &system_;
    OpenLoopService &service_;
    OpenLoopQueue &queue_;
    OpenLoopStats &stats_;
    std::string tenant_;
    std::string label_;
};

} // namespace dax::wl
