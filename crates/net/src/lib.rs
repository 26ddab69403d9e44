//! # sg-net — contention-aware interconnect simulator for `S_n`
//!
//! The paper proves its dilation-3 embedding is non-blocking *in
//! lockstep SIMD* (Lemma 5 / Theorem 6) and defines congestion without
//! ever numbering it. This crate measures both claims under arbitrary,
//! asynchronous traffic: a deterministic, round-based discrete-event
//! simulator of the star-graph interconnect with per-generator output
//! queues, one-flit-per-link-per-round arbitration, configurable link
//! latency and queue capacity, pluggable routing, seeded workload
//! generators, and node/edge fault plans.
//!
//! ## Quick start
//!
//! ```
//! use sg_net::{EmbeddingRouting, GreedyRouting, Network, Workload};
//!
//! let net = Network::new(5);
//!
//! // The Lemma-5 scenario: one mesh unit route along dimension 2.
//! // Under embedding-path routing it is provably contention-free and
//! // completes in exactly 3 rounds.
//! let sweep = Workload::dimension_sweep(5, 2, true);
//! let stats = net.run(&sweep, &EmbeddingRouting);
//! assert_eq!(stats.makespan, 3);
//! assert!(stats.is_contention_free());
//!
//! // Uniform random traffic has no such certificate: it queues.
//! let uniform = Workload::bernoulli_uniform(5, 20, 100, 42);
//! let stats = net.run(&uniform, &GreedyRouting);
//! assert!(stats.total_wait_rounds > 0);
//! assert_eq!(stats.delivered, stats.injected); // …but nothing is lost
//! ```
//!
//! ## Model
//!
//! One PE per star node, addressed by Lehmer rank. Per round (see
//! [`network`] for the exact phase order): arrivals land and re-queue,
//! this round's packets inject, every link forwards at most one flit
//! (FIFO), queued flits accrue wait. Everything is scanned in a fixed
//! order and all randomness is seeded, so a run is a pure function of
//! its inputs — the property suite asserts packet conservation,
//! latency ≥ star distance, and bit-identical [`TrafficStats`] per
//! seed.
//!
//! ## Engines
//!
//! Two engines execute that model, both driving one run core that
//! holds every rule they share (injection, landing, hop selection,
//! tail drop, the escape bank, strands, the event bracket), generic
//! over the queue store and the accounting sink.
//! [`Engine::Reference`] is the transparent oracle: a `VecDeque` per
//! queue scanned in full every round, every landing routed through
//! hop selection, no skipped rounds, and its own counter arithmetic.
//! [`Engine::Fast`] (the default behind [`Network::run`]) drives an
//! active-queue worklist over intrusive per-link FIFOs with batched
//! round-keyed arrivals whose records name each flit's next queue,
//! skips idle rounds, and counts through the run tally — the engine
//! that makes full-injection sweeps at `n = 8` (40 320 PEs) finish in
//! seconds. `tests/differential.rs` proves them
//! observationally identical, and so checks everything they keep
//! apart: byte-equal [`TrafficStats`] across every workload × routing ×
//! fault axis. Three scenario axes ride on the engines:
//! [`AdaptiveRouting`] (contention-aware least-occupied shortest-path
//! hops), [`FlowControl::CreditBased`] (packets stall at the source
//! instead of tail-dropping — and can deadlock at tiny pools, as real
//! blocking flow control does), and [`FlowControl::EscapeChannel`]
//! (the deadlock-free refinement: starved heads divert onto a per-PE
//! escape bank graded by residual hops and drained lowest-class-first
//! along the canonical embedding routes; `tests/deadlock.rs` proves
//! zero [`PacketOutcome::Stranded`] over an exhaustive tiny-pool
//! sweep whose credit runs demonstrably wedge). Source routes live in
//! one flat shared arena (offset + len per packet) rather than
//! per-packet heap vectors, and greedy packets have none: each carries
//! its packed `dst⁻¹ ∘ cur` and reads every hop off it.
//!
//! ## Entry points
//!
//! Every run goes through [`Network::simulate`]: a workload, its
//! [`Tenants`], an [`Engine`] and an [`sg_obs::Probe`] in, the
//! [`RunStats`] out. [`Network::run`] and [`Network::run_with`] call
//! it for one policy, [`Network::run_profiled`] arms the fast engine's
//! phase profiler, and [`trace::record`] attaches an event log that
//! [`trace::replay`] turns back into the same [`RunStats`]. A run's
//! accounting lives in this crate, once: the fast engine's counters
//! all go through one run tally, which the trace replayer feeds from
//! a log, and which builds the [`RunStats`] of every fast run and
//! every replay, per job included. The reference engine keeps its own
//! counter arithmetic, so the differential suite checks the tally
//! independently. Per-packet hop traces come from the event stream:
//! attach a [`HopTraces`] probe.
//!
//! ## Multi-tenancy
//!
//! [`Workload::compose`] stably merges per-tenant workloads with
//! round offsets and an owner map, keeping any part's phase barriers
//! ([`Workload::chain`]) local to that part; [`Tenants::PerJob`] runs
//! the merged traffic with **one routing policy and one escape opt-in
//! per job** (so adaptivity is a per-job choice), and the fast engine
//! returns fully attributed per-job [`TrafficStats`] next to the
//! global ones; [`TrafficStats::rebased`] shifts a tenant's slice onto
//! its own clock for byte-level comparison against an isolated run.
//! The `sg-sched` crate builds the sub-star scheduler on these
//! primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod network;
pub mod packet;
pub mod routing;
pub mod stats;
mod tally;
pub mod trace;
pub mod workload;

pub use fault::{FaultPlan, FaultPolicy};
pub use network::{
    Engine, FlowControl, NetConfig, Network, QuiescenceViolation, Tenants, MAX_ORDER,
};
pub use packet::{HopRecord, HopTraces, PacketId, PacketOutcome, PacketRecord};
pub use routing::{AdaptiveRouting, EmbeddingRouting, GreedyRouting, HopRule, RoutingPolicy};
pub use stats::{saturation_sweep, RunCounters, RunStats, SaturationPoint, TrafficStats};
pub use workload::{ChainedWorkload, Injection, Workload};
