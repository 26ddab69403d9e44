//! The three workloads: inputs generated from a seed, one end-to-end
//! call, the same call with spans around each layer, and the oracle a
//! call's output must satisfy.

use crate::trace::Tracer;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sg_coll::{allreduce_case, allreduce_lattice, execute, CollSchedule};
use sg_net::{Engine, GreedyRouting, Network, TrafficStats, Workload};
use sg_obs::{NullProbe, PhaseProfile, SchedPhaseProfile};
use sg_sched::{
    generate, schedule_profiled, schedule_with, AllocPolicy, ArrivalPattern, JobSpec, SchedConfig,
    Schedule, ScheduleReport, StreamConfig, TrafficProfile,
};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `S_9`, uniform Bernoulli traffic, greedy source routes.
    UniformS9,
    /// A 160-job stream scheduled onto `S_7` and run as tenants.
    JobsS7,
    /// Lattice allreduce built, compiled and run on `S_6`.
    AllreduceS6,
}

impl Kind {
    /// Every workload, in spec order.
    pub const ALL: [Kind; 3] = [Kind::UniformS9, Kind::JobsS7, Kind::AllreduceS6];

    /// Name as passed to `--workload`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::UniformS9 => "uniform-s9",
            Kind::JobsS7 => "jobs-s7",
            Kind::AllreduceS6 => "allreduce-s6",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Star order of the simulated network.
    #[must_use]
    pub fn order(self) -> usize {
        match self {
            Kind::UniformS9 => 9,
            Kind::JobsS7 => 7,
            Kind::AllreduceS6 => 6,
        }
    }

    /// Why the workload was chosen, one line.
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Kind::UniformS9 => "largest network the simulator materializes (9! PEs, ~363k packets): greedy source-route precompute plus the round loop, working set far beyond L2",
            Kind::JobsS7 => "160-job scheduled stream with drained release and backfill: ~160 small drain co-simulations plus one partitioned tenant run, so per-run fixed cost dominates",
            Kind::AllreduceS6 => "only workload reaching the collectives layer: lattice allreduce built, compiled into 30 barrier phases and run, many short network runs",
        }
    }

    /// The set-up a caller pays before the first call: the default
    /// configuration, tail-drop with unbounded queues.
    #[must_use]
    pub fn build_network(self) -> Network {
        Network::new(self.order())
    }

    /// The span, inside a traced call, around the call's main network
    /// run.
    #[must_use]
    pub fn run_span(self) -> &'static str {
        match self {
            Kind::UniformS9 => "net.run",
            Kind::JobsS7 => "sched.tenant_sim",
            Kind::AllreduceS6 => "coll.run",
        }
    }
}

/// The job population of `jobs-s7`: 160 jobs with random arrivals
/// (mean gap 3), orders 3 to 6, a quarter greedy, a quarter adaptive,
/// the rest embedding-routed, one in ten under-declared. Every tenant
/// is confined, so drained release is exact.
#[must_use]
pub fn job_stream(seed: u64) -> StreamConfig {
    StreamConfig {
        min_order: 3,
        max_order: 6,
        pattern: ArrivalPattern::Random { mean_gap: 3 },
        greedy_pct: 25,
        adaptive_pct: 25,
        underdeclare_pct: 10,
        ..StreamConfig::isolated(7, 160, seed)
    }
}

/// Seed of the fixed `jobs-s7` population.
const JOB_POPULATION_SEED: u64 = 0x5eed_7000;

/// The `jobs-s7` stream for `seed`: the fixed population of
/// [`job_stream`], arrivals included, with the seed reseeding every
/// random traffic profile. The seed thus picks each job's packets but
/// not the job mix or the arrival order: whole streams drawn per seed
/// let the count of order-6 jobs, and with it a call's work, swing by a
/// sixth, and permuted arrivals moved the schedule horizon by ~5 %.
#[must_use]
pub fn jobs_for_seed(seed: u64) -> Vec<JobSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut jobs = generate(&job_stream(JOB_POPULATION_SEED));
    for job in &mut jobs {
        match &mut job.traffic {
            TrafficProfile::UniformPairs { seed, .. } | TrafficProfile::Bernoulli { seed, .. } => {
                *seed = rng.next_u64();
            }
            _ => {}
        }
    }
    jobs
}

/// Inputs of one workload, generated from the seed before any timing.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Packets to inject.
    Traffic(Workload),
    /// Jobs to schedule.
    Jobs(Vec<JobSpec>),
    /// The payload matrix the allreduce oracle folds; the schedule
    /// itself does not depend on the seed.
    Allreduce(Vec<Vec<u64>>),
}

/// A workload with its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Which workload.
    pub kind: Kind,
    /// Its generated inputs.
    pub input: Input,
}

/// The result of one call.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Statistics of one network run.
    Traffic(TrafficStats),
    /// The schedule and its multi-tenant run.
    Jobs {
        /// Placements of the stream.
        schedule: Schedule,
        /// The composed run, total and per tenant.
        report: ScheduleReport,
    },
    /// Statistics of the compiled allreduce run.
    Allreduce(TrafficStats),
}

/// What the layer profilers report for one traced call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profiles {
    /// Round-loop phases of the call's profiled network run, if any.
    pub net: Option<PhaseProfile>,
    /// Event-loop phases of the scheduler, if it ran.
    pub sched: Option<SchedPhaseProfile>,
}

/// The allreduce the `allreduce-s6` workload runs.
#[must_use]
pub fn allreduce_schedule() -> CollSchedule {
    allreduce_lattice(Kind::AllreduceS6.order())
}

impl Case {
    /// Generates the inputs of `kind` from `seed`.
    #[must_use]
    pub fn generate(kind: Kind, seed: u64) -> Case {
        let input = match kind {
            Kind::UniformS9 => Input::Traffic(Workload::bernoulli_uniform(9, 1, 100, seed)),
            Kind::JobsS7 => Input::Jobs(jobs_for_seed(seed)),
            Kind::AllreduceS6 => Input::Allreduce(sg_coll::seeded_matrix(kind.order(), seed)),
        };
        Case { kind, input }
    }

    fn traffic(&self) -> &Workload {
        match &self.input {
            Input::Traffic(w) => w,
            _ => unreachable!("{} has no traffic input", self.kind.name()),
        }
    }

    fn jobs(&self) -> &[JobSpec] {
        match &self.input {
            Input::Jobs(j) => j,
            _ => unreachable!("{} has no job input", self.kind.name()),
        }
    }

    /// One end-to-end call.
    #[must_use]
    pub fn call(&self, net: &Network) -> Output {
        match self.kind {
            Kind::UniformS9 => Output::Traffic(net.run(self.traffic(), &GreedyRouting)),
            Kind::JobsS7 => {
                let mut alloc = AllocPolicy::BestFit.build(net.n());
                let cfg = SchedConfig::drained(net).with_backfill();
                let schedule = schedule_with(self.jobs(), alloc.as_mut(), &cfg, &mut NullProbe);
                let report = schedule.tenant_run().run(net);
                Output::Jobs { schedule, report }
            }
            Kind::AllreduceS6 => {
                let chained = allreduce_schedule().compile(net, &GreedyRouting);
                Output::Allreduce(net.run(&chained.workload, &GreedyRouting))
            }
        }
    }

    /// The same call with a span around each layer entry point and the
    /// layers' own profilers armed. Its output must equal [`Case::call`]'s.
    pub fn call_traced(&self, net: &Network, t: &mut Tracer) -> (Output, Profiles) {
        match self.kind {
            Kind::UniformS9 => {
                let (stats, prof) = t.span("net.run", |_| {
                    net.run_profiled(self.traffic(), &GreedyRouting)
                });
                let profiles = Profiles {
                    net: Some(prof),
                    sched: None,
                };
                (Output::Traffic(stats), profiles)
            }
            Kind::JobsS7 => {
                let mut alloc = AllocPolicy::BestFit.build(net.n());
                let cfg = SchedConfig::drained(net).with_backfill();
                let (schedule, prof) = t.span("sched.schedule", |_| {
                    schedule_profiled(
                        self.jobs(),
                        alloc.as_mut(),
                        &cfg,
                        &mut NullProbe,
                        sg_obs::wall_clock,
                    )
                });
                let run = t.span("sched.tenant_run", |_| schedule.tenant_run());
                let report = t.span("sched.tenant_sim", |_| run.run(net));
                let profiles = Profiles {
                    net: None,
                    sched: Some(prof),
                };
                (Output::Jobs { schedule, report }, profiles)
            }
            Kind::AllreduceS6 => {
                let coll = t.span("coll.build", |_| allreduce_schedule());
                let chained = t.span("coll.compile", |_| coll.compile(net, &GreedyRouting));
                let (stats, prof) = t.span("coll.run", |_| {
                    net.run_profiled(&chained.workload, &GreedyRouting)
                });
                let profiles = Profiles {
                    net: Some(prof),
                    sched: None,
                };
                (Output::Allreduce(stats), profiles)
            }
        }
    }

    /// `(src, dst)` of every packet the call injects, in injection
    /// order.
    #[must_use]
    pub fn pairs(&self, out: &Output) -> Vec<(u64, u64)> {
        let of = |w: &Workload| w.injections().iter().map(|i| (i.src, i.dst)).collect();
        match (self.kind, out) {
            (Kind::JobsS7, Output::Jobs { schedule, .. }) => of(schedule.tenant_run().workload()),
            (Kind::AllreduceS6, _) => allreduce_schedule()
                .phases()
                .iter()
                .flatten()
                .map(|s| (s.src, s.dst))
                .collect(),
            _ => of(self.traffic()),
        }
    }

    /// Checks a call's output against an independent oracle, run once
    /// per process and never timed.
    ///
    /// * traffic and the allreduce run: byte-equal to the reference
    ///   engine on the same input;
    /// * jobs: placements pairwise disjoint while resident, the
    ///   quiescence-checked rerun clean and equal, and the total equal
    ///   to the reference engine's;
    /// * allreduce payload: the executed schedule leaves every PE with
    ///   the reference column sums of the seeded matrix.
    ///
    /// # Errors
    /// What the oracle found wrong.
    pub fn oracle(&self, net: &Network, out: &Output) -> Result<(), String> {
        match (&self.input, out) {
            (Input::Traffic(w), Output::Traffic(stats)) => {
                let reference = net.run_with(w, &GreedyRouting, Engine::Reference);
                same(&reference, stats, "fast and reference engines")
            }
            (Input::Jobs(_), Output::Jobs { schedule, report }) => {
                if !schedule.concurrent_placements_disjoint() {
                    return Err("concurrent placements share PEs".into());
                }
                let run = schedule.tenant_run();
                let checked = catch_unwind(AssertUnwindSafe(|| run.run_quiesce_checked(net)))
                    .map_err(|_| "a sub-star was handed over before its traffic drained")?;
                same(&checked, report, "quiescence-checked rerun and call")?;
                same(
                    &run.run_reference_total(net),
                    &report.total,
                    "reference and fast tenant runs",
                )
            }
            (Input::Allreduce(matrix), Output::Allreduce(stats)) => {
                let coll = allreduce_schedule();
                let chained = coll.compile(net, &GreedyRouting);
                let reference = net.run_with(&chained.workload, &GreedyRouting, Engine::Reference);
                same(&reference, stats, "fast and reference engines")?;
                let case = allreduce_case(coll.order(), matrix);
                match execute(&coll, &case.init) {
                    Ok(got) if got == case.expected => Ok(()),
                    Ok(_) => Err("allreduce payload differs from the reference column sums".into()),
                    Err(e) => Err(format!("allreduce payload failed: {e}")),
                }
            }
            _ => Err("output of another workload".into()),
        }
    }
}

/// `Ok` if `a == b`, else an error saying `what` differ.
pub(crate) fn same<T: PartialEq>(a: &T, b: &T, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differ"))
    }
}

impl Output {
    /// Whole-network statistics of the call's (main) run.
    #[must_use]
    pub fn stats(&self) -> &TrafficStats {
        match self {
            Output::Traffic(s) | Output::Allreduce(s) => s,
            Output::Jobs { report, .. } => &report.total,
        }
    }

    /// Simulated makespan in rounds (`jobs-s7`: the schedule horizon).
    #[must_use]
    pub fn makespan_rounds(&self) -> f64 {
        match self {
            Output::Jobs { schedule, .. } => f64::from(schedule.horizon()),
            _ => f64::from(self.stats().makespan),
        }
    }

    /// FNV-1a hash of the output's full `Debug` form: two commits that
    /// simulate identically print the same digest.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        write!(h, "{self:?}").expect("hashing cannot fail");
        format!("{:016x}", h.0)
    }
}

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
