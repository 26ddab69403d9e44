//! The metric spec: every metric the benchmark may print, declared once
//! in [`METRICS`] with its unit, section, layer, better direction,
//! description and the workloads it applies to. `BENCHMARK.json` is its
//! projection ([`manifest`]), and [`Report`] refuses any name the table
//! does not declare.

use crate::json::Json;
use crate::workload::Kind as W;
use std::collections::BTreeMap;

/// How `BENCHMARK.json` runs the benchmark.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "starbench/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["starbench"];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 30;

/// Where a metric is printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Section {
    /// Result line of an untraced run (`--trace 0`). `bound` is the
    /// share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    EndToEnd {
        /// Regression bound.
        bound: f64,
    },
    /// Result line of a traced run (`--trace 1`).
    PerLayer,
    /// Only the report line that precedes the result line.
    ReportLine,
}

impl Section {
    /// Whether a run in this mode prints the metric.
    #[must_use]
    pub fn printed(self, traced: bool) -> bool {
        match self {
            Section::EndToEnd { .. } => !traced,
            Section::PerLayer => traced,
            Section::ReportLine => true,
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` or `higher`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Unique name, `layer.what` for per-layer metrics.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Where it is printed.
    pub section: Section,
    /// The crate the metric measures (`all` and `model` for whole calls
    /// and simulated results).
    pub layer: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Workloads on whose path the metric's layer lies; elsewhere it
    /// prints as 0.
    pub workloads: &'static [W],
    /// One line.
    pub description: &'static str,
}

const ALL: &[W] = &W::ALL;
const JOBS: &[W] = &[W::JobsS7];
const ALLREDUCE: &[W] = &[W::AllreduceS6];

/// Host-time bound: the largest the manifest allows, because this
/// benchmark's host-time metrics are measured on shared virtual CPUs.
/// Times are the fastest call or build of a run. Across runs the median
/// call spread by up to 0.3, the fastest call by 0.02 to 0.15.
const HOST: Section = Section::EndToEnd { bound: 0.25 };
/// Peak memory barely moves between runs (spread under 0.02), so a
/// growth of a tenth already counts.
const MEMORY: Section = Section::EndToEnd { bound: 0.1 };
/// Simulated results repeat exactly for a seed, so their bounds only
/// have to clear their spread across seeds, kept below a third of the
/// bound. A semantic change too small for a bound shows in the digest.
///
/// Makespan: `uniform-s9` resolves in 15, 16 or 17 whole rounds
/// depending on the seed, so its quartiles over ten seeds can be 15 and
/// 16, a spread of 0.067.
const SIM_MAKESPAN: Section = Section::EndToEnd { bound: 0.2 };
/// Mean latency: spread at most ~0.005 across seeds (`jobs-s7`).
const SIM_LATENCY: Section = Section::EndToEnd { bound: 0.02 };
const LAYER: Section = Section::PerLayer;

const fn metric(
    name: &'static str,
    unit: &'static str,
    section: Section,
    layer: &'static str,
    better: Better,
    workloads: &'static [W],
    description: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        section,
        layer,
        better,
        workloads,
        description,
    }
}

use Better::{Higher, Lower};

/// Every metric the benchmark prints, in print order.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    metric("setup_s", "s", HOST, "net", Lower, ALL,
        "host seconds of the fastest Network::new for the workload's network (default configuration), one build after every call"),
    metric("wall_s", "s", HOST, "all", Lower, ALL,
        "host seconds of the fastest end-to-end call in a closed loop of back-to-back calls"),
    metric("flits_per_s", "1/s", HOST, "all", Higher, ALL,
        "simulated link traversals of one call (forwarded_flits of its result) per host second of wall_s"),
    metric("peak_rss_mb", "MB", MEMORY, "all", Lower, ALL,
        "process VmHWM in MiB after the timed calls, read before any oracle runs"),
    metric("sim_makespan_rounds", "rounds", SIM_MAKESPAN, "model", Lower, ALL,
        "simulated time of the call: round of the last packet resolution (jobs-s7: schedule horizon)"),
    metric("sim_mean_latency_rounds", "rounds", SIM_LATENCY, "model", Lower, ALL,
        "simulated mean delivered packet latency of the call in rounds (jobs-s7: the composed tenant run)"),
    metric("wall_median_s", "s", Section::ReportLine, "all", Lower, ALL,
        "median host seconds of one end-to-end call of the closed loop"),
    metric("error_rate", "ratio", Section::ReportLine, "all", Lower, ALL,
        "failed calls / attempted calls; a call fails if it panics or its output differs from the oracle (also the result's failed / attempted)"),

    metric("perm.unrank.calls", "count", LAYER, "perm", Lower, ALL,
        "unrank calls timed by the probe: both endpoints of every packet of the call"),
    metric("perm.unrank.ns_per_call", "ns", LAYER, "perm", Lower, ALL,
        "host ns per sg_perm::lehmer::unrank over the workload's endpoints"),
    metric("perm.rank.ns_per_call", "ns", LAYER, "perm", Lower, ALL,
        "host ns per sg_perm::lehmer::rank over the unranked endpoints"),
    metric("star.route.calls", "count", LAYER, "star", Lower, ALL,
        "GreedyRouting::route calls timed by the probe, one per packet"),
    metric("star.route.ns_per_call", "ns", LAYER, "star", Lower, ALL,
        "host ns per GreedyRouting::route over the workload's (src, dst) pairs"),
    metric("star.route.hops", "count", LAYER, "star", Lower, ALL,
        "total generators in the greedy routes of the workload's pairs (checked equal to the summed star distance)"),
    metric("star.distance.ns_per_call", "ns", LAYER, "star", Lower, ALL,
        "host ns per sg_star::distance::distance over the workload's pairs"),
    metric("net.build_s", "s", LAYER, "net", Lower, ALL,
        "median self time of the net.build spans (Network::new, one build after every traced call)"),
    metric("net.loop.arrivals_s", "s", LAYER, "net", Lower, ALL,
        "round-loop arrivals phase seconds per call from run_profiled (jobs-s7: summed over the profiled drain co-simulations)"),
    metric("net.loop.injections_s", "s", LAYER, "net", Lower, ALL,
        "round-loop injections phase seconds per call from run_profiled (jobs-s7: drain co-simulations)"),
    metric("net.loop.arbitration_s", "s", LAYER, "net", Lower, ALL,
        "round-loop arbitration phase seconds per call from run_profiled (jobs-s7: drain co-simulations)"),
    metric("net.loop.accounting_s", "s", LAYER, "net", Lower, ALL,
        "round-loop accounting phase seconds per call from run_profiled (jobs-s7: drain co-simulations)"),
    metric("net.loop.rounds", "rounds", LAYER, "net", Lower, ALL,
        "rounds the fast engine executed in the profiled runs of one call"),
    metric("net.outside_loop_s", "s", LAYER, "net", Lower, ALL,
        "profiled-run span minus its four loop phases: route precompute, packet assembly and finish"),
    metric("net.finish_s", "s", LAYER, "net", Lower, ALL,
        "TrafficStats::from_records on the call's packet records and counters (checked equal to the call's stats)"),
    metric("net.ns_per_flit", "ns", LAYER, "net", Lower, ALL,
        "host ns of the call's main network-run span per forwarded flit of its result"),
    metric("net.delivered_ratio", "ratio", LAYER, "net", Higher, ALL,
        "delivered / injected packets of the call's result"),
    metric("net.wait_rounds", "rounds", LAYER, "net", Lower, ALL,
        "flit-rounds spent queued in the call's result (total_wait_rounds)"),
    metric("net.runs_per_call", "count", LAYER, "net", Lower, ALL,
        "Network runs one call makes: 1, one drain co-simulation per placement plus the tenant run, or one per phase plus the chained run"),
    metric("sched.placement_s", "s", LAYER, "sched", Lower, JOBS,
        "placement phase seconds per call from schedule_profiled with wall_clock"),
    metric("sched.drain_s", "s", LAYER, "sched", Lower, JOBS,
        "drain co-simulation phase seconds per call from schedule_profiled"),
    metric("sched.backfill_s", "s", LAYER, "sched", Lower, JOBS,
        "EASY backfill phase seconds per call from schedule_profiled"),
    metric("sched.release_s", "s", LAYER, "sched", Lower, JOBS,
        "release phase seconds per call from schedule_profiled"),
    metric("sched.rounds", "rounds", LAYER, "sched", Lower, JOBS,
        "event-loop rounds of the scheduler per call"),
    metric("sched.placements", "count", LAYER, "sched", Higher, JOBS,
        "jobs placed per call"),
    metric("sched.backfills", "count", LAYER, "sched", Higher, JOBS,
        "jobs placed by EASY backfill per call"),
    metric("sched.tenant_run_s", "s", LAYER, "sched", Lower, JOBS,
        "median self time of the sched.tenant_run span (Schedule::tenant_run)"),
    metric("sched.tenant_sim_s", "s", LAYER, "sched", Lower, JOBS,
        "median self time of the sched.tenant_sim span (TenantRun::run, the partitioned network run)"),
    metric("sched.mean_queueing_delay_rounds", "rounds", LAYER, "sched", Lower, JOBS,
        "simulated mean queueing delay of the schedule"),
    metric("coll.build_s", "s", LAYER, "coll", Lower, ALLREDUCE,
        "median self time of the coll.build span (allreduce_lattice)"),
    metric("coll.compile_s", "s", LAYER, "coll", Lower, ALLREDUCE,
        "median self time of the coll.compile span (CollSchedule::compile: isolated phase runs plus compose)"),
    metric("coll.run_s", "s", LAYER, "coll", Lower, ALLREDUCE,
        "median self time of the coll.run span (the compiled workload run on the network)"),
    metric("coll.phases", "count", LAYER, "coll", Lower, ALLREDUCE,
        "barrier phases of the schedule"),
    metric("coll.sends", "count", LAYER, "coll", Lower, ALLREDUCE,
        "point-to-point sends (network packets) of the schedule"),
    metric("coll.slots", "count", LAYER, "coll", Lower, ALLREDUCE,
        "payload slot pairs the schedule carries, which its memory grows with"),
    metric("coll.rounds_over_lb", "ratio", LAYER, "coll", Lower, ALLREDUCE,
        "simulated makespan / distance_lower_bound of the star order"),
    metric("trace.overhead_frac", "ratio", LAYER, "trace", Lower, ALL,
        "median traced call / median untraced call - 1, from interleaved calls of the traced run"),
    metric("trace.unattributed_frac", "ratio", LAYER, "trace", Lower, ALL,
        "median share of a traced call that no layer span covers"),
];

/// The declared metric called `name`.
#[must_use]
pub fn metric_named(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The whole of `BENCHMARK.json`, projected from the constants above,
/// [`METRICS`] and the workloads' reasons.
#[must_use]
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    let section = |end_to_end: bool| {
        let entries = METRICS.iter().filter_map(|m| {
            let mut f = vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ];
            match (m.section, end_to_end) {
                (Section::EndToEnd { bound }, true) => f.push(("bound", Json::Num(bound))),
                (Section::PerLayer, false) => {}
                _ => return None,
            }
            Some(Json::obj(f))
        });
        Json::Arr(entries.collect())
    };
    let workloads = W::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", section(true)),
        ("per_layer", section(false)),
    ])
}

/// Metric values of one run, checked against [`METRICS`] as they are
/// set.
#[derive(Debug)]
pub struct Report {
    workload: W,
    traced: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report for `workload` in untraced or traced mode.
    #[must_use]
    pub fn new(workload: W, traced: bool) -> Self {
        Report {
            workload,
            traced,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Errors
    /// Refuses a name the table does not declare, a metric of the other
    /// mode, one that does not apply to this workload, a second value
    /// for one name, and a non-finite value.
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let m = metric_named(name).ok_or_else(|| format!("metric {name:?} is not declared"))?;
        if !m.section.printed(self.traced) {
            return Err(format!("metric {name:?} does not belong to this mode"));
        }
        if !m.workloads.contains(&self.workload) {
            return Err(format!(
                "metric {name:?} does not apply to {}",
                self.workload.name()
            ));
        }
        if !value.is_finite() {
            return Err(format!("metric {name:?} is not finite: {value}"));
        }
        if self.values.insert(m.name, value).is_some() {
            return Err(format!("metric {name:?} set twice"));
        }
        Ok(())
    }

    /// Every metric this mode prints, in table order, with its value.
    /// Metrics declared for other workloads print as 0: their layer is
    /// not on this workload's path.
    ///
    /// # Errors
    /// A metric that applies to this workload but was never set.
    pub fn finish(&self) -> Result<Vec<(&'static Metric, f64)>, String> {
        METRICS
            .iter()
            .filter(|m| m.section.printed(self.traced))
            .map(|m| {
                if !m.workloads.contains(&self.workload) {
                    return Ok((m, 0.0));
                }
                self.values
                    .get(m.name)
                    .map(|&v| (m, v))
                    .ok_or_else(|| format!("metric {:?} was never measured", m.name))
            })
            .collect()
    }
}
