//! # sg-sched — multi-tenant sub-star scheduling on one `S_n`
//!
//! The paper's expansion-1 / dilation-3 embedding (Theorem 6) makes a
//! mesh job a first-class tenant of the star graph: a job asking for
//! the mesh `D_k` is exactly a request for an order-`k` sub-star, and
//! the recursive decomposition of `S_n` into `n` copies of `S_{n−1}`
//! is a processor-allocation lattice. This crate turns that
//! observation into a batch scheduler for a shared interconnect:
//!
//! * [`job`] — mesh-shaped job specs: order, arrival, declared
//!   walltime, a seeded [`job::TrafficProfile`], a per-tenant
//!   routing discipline ([`job::TenantRouting`]), and a per-job
//!   escape-channel opt-in ([`job::JobSpec::escape`], honored when
//!   the host network runs
//!   [`sg_net::FlowControl::EscapeChannel`]);
//! * [`stream`] — deterministic seeded job streams (steady / bursty /
//!   random arrivals, order and routing mixes);
//! * [`alloc`] — the allocation lattice and its one
//!   [`alloc::Allocator`], under one of three placement policies:
//!   [`alloc::AllocPolicy::FirstFit`] (leftmost),
//!   [`alloc::AllocPolicy::BestFit`] (smallest sufficient block,
//!   busiest parent), and [`alloc::AllocPolicy::Buddy`] (per-order
//!   LIFO free lists with coalescing);
//! * [`scheduler`] — the FCFS event loop producing a
//!   [`scheduler::Schedule`] (placements + fragmentation timeline),
//!   compiled by [`scheduler::Schedule::tenant_run`] into **one**
//!   [`sg_net::Network`] run with per-job routing and per-job
//!   [`sg_net::TrafficStats`];
//! * [`policy`] — per-tenant routing: [`policy::SubstarEmbedding`]
//!   routes in local sub-star coordinates (provably confined), while
//!   greedy/adaptive tenants route globally and interfere.
//!
//! ## The isolation theorem, executable
//!
//! Embedding-routed tenants on disjoint sub-stars use only generators
//! local to their slice, so their packets never share a queue with
//! anyone: each tenant's attributed statistics are **byte-equal** to
//! the same job run alone on an empty machine
//! ([`scheduler::ScheduleReport::perturbed_jobs`] returns nobody).
//! Two measured refinements sharpen the picture: sub-stars are
//! *geodesically closed*, so even the tenancy-oblivious minimal
//! routers (greedy, adaptive) stay confined and byte-isolate; the
//! discipline that really trespasses is dimension-order routing in
//! **machine** coordinates ([`job::TenantRouting::GlobalEmbedding`]),
//! whose Lemma-2 paths wander through foreign sub-stars and
//! measurably perturb their owners — quantified per job by
//! [`scheduler::ScheduleReport::interference_wait`].
//!
//! ```
//! use sg_net::Network;
//! use sg_sched::alloc::AllocPolicy;
//! use sg_sched::scheduler::schedule;
//! use sg_sched::stream::{generate, StreamConfig};
//!
//! let n = 5;
//! let jobs = generate(&StreamConfig::isolated(n, 6, 42));
//! let mut alloc = AllocPolicy::BestFit.build(n);
//! let sched = schedule(&jobs, alloc.as_mut());
//! assert!(sched.concurrent_placements_disjoint());
//!
//! let run = sched.tenant_run();
//! let report = run.run(&Network::new(n));
//! let isolated = run.isolated_stats(&Network::new(n));
//! assert!(report.perturbed_jobs(&isolated).is_empty()); // isolation
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod job;
pub mod policy;
pub mod scheduler;
pub mod stream;

pub use alloc::{AllocPolicy, Allocator};
pub use job::{JobId, JobSpec, TenantRouting, TrafficProfile};
pub use policy::{AdmissionPolicy, ReleaseMode, SchedConfig, SchedPolicy, SubstarEmbedding};
pub use scheduler::{
    schedule, schedule_profiled, schedule_with, Placement, Schedule, ScheduleReport, TenantRun,
};
pub use stream::{generate, ArrivalPattern, StreamConfig};
