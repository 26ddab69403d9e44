//! # sg-obs — deterministic tracing, dashboards, and self-profiling
//!
//! Observability for the `S_n` interconnect simulator (`sg-net`) and
//! the multi-tenant scheduler (`sg-sched`), built around one rule:
//! **watching a run never changes it, and not watching costs
//! nothing.**
//!
//! * [`Probe`] is the sink: engines emit typed [`Event`]s (round
//!   begin/end, forwards, enqueues, stalls, diversions, drops,
//!   deliveries, job arrivals/placements/releases) in deterministic
//!   reference-scan order — both `sg-net` engines produce *identical*
//!   event streams, asserted by the differential suite.
//! * [`NullProbe`] is the default: its `ENABLED = false` constant
//!   folds every emission site out of the monomorphized engine, so
//!   the unprobed path compiles to the pre-instrumentation loops.
//! * [`EventLog`] records the raw stream (optionally capacity-bounded)
//!   and exports newline-delimited JSON.
//! * [`NetProbe`] turns the stream into the numbers a run's
//!   `TrafficStats` cannot give — per-link forward counts, the
//!   queue-depth [`Histogram`] and its peak, the peak queued flits
//!   and their round, per-tenant in-flight peaks — and counts nothing
//!   `TrafficStats` already counts.
//! * [`SchedProbe`] assembles job events into spans and renders an
//!   ASCII Gantt timeline.
//! * [`PhaseProfile`] + an injected monotonic counter ([`wall_clock`],
//!   or a counting clock a test brings) profile the fast engine's
//!   four phases without perturbing its behaviour;
//!   [`SchedPhaseProfile`] does the same for `sg-sched`'s event loop.
//! * **`sg-trace`** ([`trace`] / [`diff`]): a versioned,
//!   self-describing JSONL schema ([`Trace`]) that round-trips every
//!   event losslessly, and a structural differ ([`diff_events`]) that
//!   localizes the first divergence between two streams to its round
//!   and in-round index. Replaying a log into a run's statistics is
//!   `sg-net`'s (`sg_net::trace::replay`): it needs the accounting,
//!   which lives there.
//!
//! This crate has no dependencies (events carry plain integers); it
//! sits below `sg-net` / `sg-sched`, which emit into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod netprobe;
pub mod probe;
pub mod profile;
pub mod sched;
pub mod trace;

pub use diff::{diff_events, DiffSide, Divergence};
pub use netprobe::{Histogram, HotLink, NetProbe};
pub use probe::{DropReason, Event, EventLog, NullProbe, Probe, StallKind};
pub use profile::{wall_clock, PhaseProfile, SchedPhaseProfile};
pub use sched::{JobSpan, SchedProbe};
pub use trace::{Trace, TraceError, TraceHeader, TracePacket, SCHEMA_VERSION};
