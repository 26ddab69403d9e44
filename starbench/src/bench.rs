//! One benchmark run: set-up, a closed loop of back-to-back calls by a
//! single caller, output checks, and the metrics of the run's mode.

use crate::host;
use crate::json::Json;
use crate::spec::{Metric, Report, Section};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::{allreduce_schedule, same, Case, Kind, Output, Profiles};
use sg_net::{GreedyRouting, Network, RoutingPolicy, RunCounters, TrafficStats};
use sg_obs::PhaseProfile;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// How long the closed loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
}

/// Usage line for errors.
pub const USAGE: &str =
    "usage: starbench --workload <uniform-s9|jobs-s7|allreduce-s6> [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1` (seed 1,
    /// 10 seconds and no tracing unless given).
    ///
    /// # Errors
    /// An unknown flag or workload, or a malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::from_name(&value).ok_or_else(|| bad("unknown workload"))?);
                }
                "--seed" => seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("not a non-negative number"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let kind = kind.ok_or("--workload is required")?;
        Ok(Args {
            kind,
            seed,
            seconds,
            trace,
        })
    }
}

/// Counts attempted and failed calls. The first good output becomes
/// the baseline every later call must equal; the oracle then judges
/// the baseline once, and if it is wrong every call that matched it
/// failed too.
#[derive(Debug, Default)]
pub struct Tally {
    baseline: Option<Output>,
    matched: u64,
    failed: u64,
}

impl Tally {
    /// Records one call: a panic or an output unequal to the baseline
    /// is a failure.
    pub fn record(&mut self, out: std::thread::Result<Output>) {
        match (out, &self.baseline) {
            (Err(_), _) => self.failed += 1,
            (Ok(o), None) => {
                self.baseline = Some(o);
                self.matched += 1;
            }
            (Ok(o), Some(b)) if o == *b => self.matched += 1,
            (Ok(_), Some(_)) => self.failed += 1,
        }
    }

    /// The first good output.
    #[must_use]
    pub fn baseline(&self) -> Option<&Output> {
        self.baseline.as_ref()
    }

    /// Calls recorded.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.matched + self.failed
    }

    /// Failed calls, given whether the baseline passed its oracle.
    #[must_use]
    pub fn failed(&self, oracle_ok: bool) -> u64 {
        if oracle_ok {
            self.failed
        } else {
            self.attempted()
        }
    }
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Outputs verified and no call failed.
    pub correct: bool,
    /// Calls made.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Host seconds of every timed untraced call, in call order.
    pub walls: Vec<f64>,
    /// Every metric of the run's mode plus the report-only ones.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Digest of the verified output.
    pub digest: String,
    /// `ok`, or what the oracle found wrong.
    pub oracle: String,
    /// Where the spans went (traced runs).
    pub spans_file: Option<PathBuf>,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.is_empty() {
        f64::NAN
    } else if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest value: on shared virtual CPUs a neighbour slows whole
/// stretches of a run by up to ~1.7x, and the fastest call still shows
/// what the code costs when nothing contends with it.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Builds the workload's network once more and drops it, returning the
/// seconds the build took (inside a `net.build` span when traced). The
/// loops make one such build after every call, so `setup_s` samples the
/// same stretch of host time as `wall_s` rather than its first seconds.
fn timed_build(kind: Kind, tracer: Option<&mut Tracer>) -> f64 {
    let t0 = Instant::now();
    let net = match tracer {
        Some(t) => t.span("net.build", |_| kind.build_network()),
        None => kind.build_network(),
    };
    let secs = t0.elapsed().as_secs_f64();
    drop(black_box(net));
    secs
}

fn call(case: &Case, net: &Network) -> std::thread::Result<Output> {
    catch_unwind(AssertUnwindSafe(|| black_box(case.call(net))))
}

/// Runs the benchmark once as `args` asks.
///
/// # Errors
/// A call that never produced an output, a metric the table refuses,
/// or an unwritable span file.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let case = Case::generate(args.kind, args.seed);
    if args.trace {
        run_traced(args, &case)
    } else {
        run_untraced(args, &case)
    }
}

fn run_untraced(args: &Args, case: &Case) -> Result<Outcome, String> {
    let net = case.kind.build_network();
    let mut tally = Tally::default();
    tally.record(call(case, &net)); // warm-up, verified but not timed
    let (mut walls, mut builds) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let out = call(case, &net);
        walls.push(t0.elapsed().as_secs_f64());
        tally.record(out);
        builds.push(timed_build(case.kind, None));
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let rss = host::peak_rss_mb()?;
    let base = tally.baseline().ok_or("every call panicked")?;
    let oracle = case.oracle(&net, base);
    let wall = fastest(&walls);
    let mut r = Report::new(case.kind, false);
    r.set("setup_s", fastest(&builds))?;
    r.set("wall_s", wall)?;
    r.set("wall_median_s", median(&walls))?;
    r.set("flits_per_s", base.stats().forwarded_flits as f64 / wall)?;
    r.set("peak_rss_mb", rss)?;
    r.set("sim_makespan_rounds", base.makespan_rounds())?;
    r.set("sim_mean_latency_rounds", base.stats().avg_latency())?;
    finish(r, &tally, oracle, walls, base.digest(), None)
}

fn finish(
    mut r: Report,
    tally: &Tally,
    oracle: Result<(), String>,
    walls: Vec<f64>,
    digest: String,
    spans_file: Option<PathBuf>,
) -> Result<Outcome, String> {
    let failed = tally.failed(oracle.is_ok());
    let attempted = tally.attempted();
    r.set("error_rate", failed as f64 / attempted as f64)?;
    Ok(Outcome {
        correct: oracle.is_ok() && failed == 0,
        attempted,
        failed,
        walls,
        metrics: r.finish()?,
        digest,
        oracle: oracle.err().unwrap_or_else(|| "ok".into()),
        spans_file,
    })
}

/// Per-call observations of the traced loop.
struct TracedCall {
    profiles: Profiles,
    /// Duration of the call's main network-run span, ns.
    run_ns: u64,
}

fn run_traced(args: &Args, case: &Case) -> Result<Outcome, String> {
    let kind = case.kind;
    let mut t = Tracer::default();
    let net = kind.build_network();
    let mut tally = Tally::default();
    tally.record(call(case, &net)); // warm-up
                                    // Untraced and traced calls alternate, so drift hits both alike.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let out = call(case, &net);
        untraced.push(t0.elapsed().as_secs_f64());
        tally.record(out);

        let first = t.spans().len();
        let (out, profiles) = catch_unwind(AssertUnwindSafe(|| {
            t.span("call", |t| case.call_traced(&net, t))
        }))
        .map_err(|_| "a traced call panicked".to_owned())?;
        let run_ns = t.spans()[first..]
            .iter()
            .find(|s| s.name == kind.run_span())
            .map_or(0, Span::duration_ns);
        traced.push(TracedCall { profiles, run_ns });
        tally.record(Ok(out));
        timed_build(kind, Some(&mut t));
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let base = tally.baseline().ok_or("every call panicked")?.clone();
    let mut r = Report::new(kind, true);
    let (probe, drain) = t.span("probe", |t| {
        let checks = probe_layers(case, &net, &base, t, &mut r);
        let drain = (kind == Kind::JobsS7).then(|| drain_profile(case, &net, &base, t));
        (checks, drain)
    });
    let oracle = probe.and_then(|()| case.oracle(&net, &base));

    let spans = t.spans();
    let selfs = self_times(spans);
    let self_median = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| secs(ns))
            .collect();
        median(&v)
    };
    let calls: Vec<(&Span, u64)> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "call")
        .map(|(s, &ns)| (s, ns))
        .collect();
    let call_median = median(
        &calls
            .iter()
            .map(|(s, _)| secs(s.duration_ns()))
            .collect::<Vec<_>>(),
    );
    let stats = base.stats();

    r.set("net.build_s", self_median("net.build"))?;
    let (loop_prof, outside): (Vec<PhaseProfile>, Vec<f64>) = match drain {
        Some(drain) => {
            let outside = secs(duration_of_last(&t, "net.drain")) - secs(drain.total_ticks());
            (vec![drain], vec![outside])
        }
        None => traced
            .iter()
            .map(|c| {
                let p = c
                    .profiles
                    .net
                    .expect("traffic and allreduce calls are profiled");
                (p, secs(c.run_ns) - secs(p.total_ticks()))
            })
            .unzip(),
    };
    let phase = |f: fn(&PhaseProfile) -> u64| {
        median(&loop_prof.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    r.set("net.loop.arrivals_s", phase(|p| p.arrivals_ticks) / 1e9)?;
    r.set("net.loop.injections_s", phase(|p| p.injections_ticks) / 1e9)?;
    r.set(
        "net.loop.arbitration_s",
        phase(|p| p.arbitration_ticks) / 1e9,
    )?;
    r.set("net.loop.accounting_s", phase(|p| p.accounting_ticks) / 1e9)?;
    r.set("net.loop.rounds", phase(|p| p.rounds))?;
    r.set("net.outside_loop_s", median(&outside))?;
    let run_ns = median(&traced.iter().map(|c| c.run_ns as f64).collect::<Vec<_>>());
    r.set("net.ns_per_flit", run_ns / stats.forwarded_flits as f64)?;
    r.set(
        "net.delivered_ratio",
        stats.delivered as f64 / stats.injected as f64,
    )?;
    r.set("net.wait_rounds", stats.total_wait_rounds as f64)?;
    let runs = match &base {
        Output::Traffic(_) => 1,
        Output::Jobs { schedule, .. } => schedule.placements().len() + 1,
        Output::Allreduce(_) => allreduce_schedule().phase_count() + 1,
    };
    r.set("net.runs_per_call", runs as f64)?;

    if let Output::Jobs { schedule, .. } = &base {
        let sched: Vec<_> = traced.iter().filter_map(|c| c.profiles.sched).collect();
        let m = |f: fn(&sg_obs::SchedPhaseProfile) -> u64| {
            median(&sched.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
        };
        r.set("sched.placement_s", m(|p| p.placement_ticks) / 1e9)?;
        r.set("sched.drain_s", m(|p| p.drain_ticks) / 1e9)?;
        r.set("sched.backfill_s", m(|p| p.backfill_ticks) / 1e9)?;
        r.set("sched.release_s", m(|p| p.release_ticks) / 1e9)?;
        r.set("sched.rounds", m(|p| p.rounds))?;
        r.set("sched.placements", schedule.placements().len() as f64)?;
        r.set("sched.backfills", schedule.backfills() as f64)?;
        r.set("sched.tenant_run_s", self_median("sched.tenant_run"))?;
        r.set("sched.tenant_sim_s", self_median("sched.tenant_sim"))?;
        r.set(
            "sched.mean_queueing_delay_rounds",
            schedule.mean_queueing_delay(),
        )?;
    }
    if kind == Kind::AllreduceS6 {
        let coll = allreduce_schedule();
        let slots: usize = coll.phases().iter().flatten().map(|s| s.slots.len()).sum();
        r.set("coll.build_s", self_median("coll.build"))?;
        r.set("coll.compile_s", self_median("coll.compile"))?;
        r.set("coll.run_s", self_median("coll.run"))?;
        r.set("coll.phases", coll.phase_count() as f64)?;
        r.set("coll.sends", coll.total_sends() as f64)?;
        r.set("coll.slots", slots as f64)?;
        let lb = sg_coll::distance_lower_bound(coll.order());
        r.set(
            "coll.rounds_over_lb",
            f64::from(stats.makespan) / f64::from(lb),
        )?;
    }
    r.set("wall_median_s", median(&untraced))?;
    r.set("trace.overhead_frac", call_median / median(&untraced) - 1.0)?;
    let unattributed: Vec<f64> = calls
        .iter()
        .map(|(s, own)| *own as f64 / s.duration_ns() as f64)
        .collect();
    r.set("trace.unattributed_frac", median(&unattributed))?;

    let path =
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", kind.name(), args.seed));
    t.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let digest = base.digest();
    finish(r, &tally, oracle, untraced, digest, Some(path))
}

fn duration_of_last(t: &Tracer, name: &str) -> u64 {
    t.spans()
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map_or(0, Span::duration_ns)
}

/// `jobs-s7` only: reruns each placement's traffic alone with the
/// round-loop profiler armed, the same isolated runs the scheduler's
/// drain co-simulation makes, inside a `net.drain` span.
fn drain_profile(case: &Case, net: &Network, base: &Output, t: &mut Tracer) -> PhaseProfile {
    let Output::Jobs { schedule, .. } = base else {
        unreachable!("{} has no schedule", case.kind.name())
    };
    let run = schedule.tenant_run();
    let policies = run.policies();
    t.span("net.drain", |_| {
        let mut total = PhaseProfile::default();
        for (i, policy) in policies.iter().enumerate() {
            let (_, p) = net.run_profiled(run.part(i), *policy);
            total.rounds += p.rounds;
            total.arrivals_ticks += p.arrivals_ticks;
            total.injections_ticks += p.injections_ticks;
            total.arbitration_ticks += p.arbitration_ticks;
            total.accounting_ticks += p.accounting_ticks;
        }
        total
    })
}

/// Times the `perm` and `star` entry points over the endpoints of every
/// packet the call injects, and the `net` finish over the call's
/// records, each in its own span, checking their results on the way.
fn probe_layers(
    case: &Case,
    net: &Network,
    base: &Output,
    t: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let n = net.n();
    let pairs = case.pairs(base);
    let ranks: Vec<u64> = pairs.iter().flat_map(|&(s, d)| [s, d]).collect();
    let perms = t.span("perm.unrank", |_| {
        ranks
            .iter()
            .map(|&x| black_box(sg_perm::lehmer::unrank(x, n).expect("rank in range")))
            .collect::<Vec<_>>()
    });
    let round_trip = t.span("perm.rank", |_| {
        perms
            .iter()
            .zip(&ranks)
            .all(|(p, &x)| black_box(sg_perm::lehmer::rank(p)) == x)
    });
    let hops: usize = t.span("star.route", |_| {
        perms
            .chunks_exact(2)
            .map(|p| black_box(GreedyRouting.route(&p[0], &p[1])).len())
            .sum()
    });
    let dist: u64 = t.span("star.distance", |_| {
        perms
            .chunks_exact(2)
            .map(|p| u64::from(black_box(sg_star::distance::distance(&p[0], &p[1]))))
            .sum()
    });
    let stats = base.stats();
    let (records, counters) = (stats.packets.clone(), counters_of(stats));
    let rebuilt = t.span("net.finish", |_| {
        TrafficStats::from_records(n, records, counters)
    });

    let ns = |name: &str| duration_of_last(t, name) as f64;
    let (calls, routes) = (perms.len() as f64, pairs.len() as f64);
    r.set("perm.unrank.calls", calls)?;
    r.set("perm.unrank.ns_per_call", ns("perm.unrank") / calls)?;
    r.set("perm.rank.ns_per_call", ns("perm.rank") / calls)?;
    r.set("star.route.calls", routes)?;
    r.set("star.route.ns_per_call", ns("star.route") / routes)?;
    r.set("star.route.hops", hops as f64)?;
    r.set("star.distance.ns_per_call", ns("star.distance") / routes)?;
    r.set("net.finish_s", ns("net.finish") / 1e9)?;
    if !round_trip {
        return Err("rank(unrank(x)) != x on the workload's endpoints".into());
    }
    if hops as u64 != dist {
        return Err(format!(
            "greedy routes take {hops} hops, distances sum to {dist}"
        ));
    }
    same(&rebuilt, stats, "from_records and the call's statistics")
}

/// The online counters a run hands to [`TrafficStats::from_records`],
/// read back from its statistics.
fn counters_of(s: &TrafficStats) -> RunCounters {
    RunCounters {
        last_event: s.makespan,
        total_wait_rounds: s.total_wait_rounds,
        injection_stall_rounds: s.injection_stall_rounds,
        peak_edge: s.peak_edge_occupancy,
        peak_node: s.peak_node_occupancy,
        forwarded: s.forwarded_flits,
        escape_diversions: s.escape_diversions,
        escape_forwarded: s.escape_forwarded_flits,
        peak_escape: s.peak_escape_occupancy,
    }
}

/// The report line: provenance, call counts, digest, oracle verdict
/// and every metric with its unit and layer.
#[must_use]
pub fn report_line(args: &Args, out: &Outcome, cpus: host::Cpus) -> Json {
    let metrics = out.metrics.iter().map(|(m, v)| {
        let entry = Json::obj([
            ("value", Json::Num(*v)),
            ("unit", Json::str(m.unit)),
            ("layer", Json::str(m.layer)),
        ]);
        (m.name, entry)
    });
    Json::obj([
        ("workload", Json::str(args.kind.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("provenance", host::provenance(cpus)),
        (
            "calls",
            Json::obj([
                ("attempted", Json::Num(out.attempted as f64)),
                ("timed", Json::Num(out.walls.len() as f64)),
                ("failed", Json::Num(out.failed as f64)),
            ]),
        ),
        (
            "wall_samples_s",
            Json::Arr(out.walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("digest", Json::str(&out.digest)),
        ("oracle", Json::str(&out.oracle)),
        (
            "spans_file",
            out.spans_file
                .as_ref()
                .map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the run's mode as `{value, unit}`.
#[must_use]
pub fn result_line(out: &Outcome) -> Json {
    let metrics = out
        .metrics
        .iter()
        .filter(|(m, _)| m.section != Section::ReportLine)
        .map(|(m, v)| {
            let entry = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]);
            (m.name, entry)
        });
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}
