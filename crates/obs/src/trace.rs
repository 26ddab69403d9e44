//! The `sg-trace` on-disk format: a versioned, self-describing JSONL
//! schema for probe event streams, with a streaming parser that
//! round-trips every [`Event`] losslessly.
//!
//! A trace is newline-delimited JSON in three sections:
//!
//! 1. **Header** (first line): `{"trace":"sg-trace","schema":1,...}` —
//!    schema version, engine, star order, workload seed, a
//!    config fingerprint, section counts, and the number of events the
//!    recording [`crate::EventLog`] dropped past its capacity bound.
//! 2. **Packet preamble**: one `{"packet":pid,...}` line per injection
//!    in packet-id order. Events alone cannot reconstruct the
//!    source/destination of a packet that dies early (a fault drop
//!    names only the source PE), so the preamble carries what the
//!    workload knew: `src`, `dst`, injection `round`, and — for
//!    partitioned runs — the owning `job`.
//! 3. **Events**: the verbatim [`Event::to_json`] stream.
//!
//! The parser is strict: the header must come first, every packet
//! line must precede the first event line, and the section counts
//! must match the header — a truncated file is an error, never a
//! silently shorter run. A trace carries events and what the workload
//! knew, nothing measured beside them: every record is one flat JSON
//! object. Everything here is plain integers plus two opaque strings
//! (`engine`, `fingerprint`), so the module — like the rest of
//! `sg-obs` — depends on nothing above it.
//!
//! This module reads and writes the format only. Replaying a trace into
//! a run's statistics needs the run's accounting, so it is `sg-net`'s
//! `trace::replay`, which reports a stream it refuses as a
//! [`TraceError`].

use crate::probe::{DropReason, Event, StallKind};
use std::fmt;

/// The schema version this build writes and understands.
pub const SCHEMA_VERSION: u32 = 1;

/// Everything that can go wrong reading (or replaying) a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input had no lines at all.
    Empty,
    /// The first line is not an `sg-trace` header record. A line that
    /// names itself one (`"trace":"sg-trace"`) but does not parse is
    /// [`TraceError::Malformed`] on line 1 instead, with the reason.
    NotATrace,
    /// The header names a schema version this build cannot read.
    UnsupportedSchema {
        /// Version found in the header.
        found: u32,
    },
    /// A line failed to parse (1-based line number + reason).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A section ended before the header said it would.
    Truncated {
        /// Which section ("packet" or "event").
        kind: &'static str,
        /// Count promised by the header.
        expected: u64,
        /// Count actually present.
        found: u64,
    },
    /// The recording log was capacity-bounded and dropped events; the
    /// stream is incomplete, so derived state cannot be reconstructed.
    DroppedEvents {
        /// How many events the recorder discarded.
        dropped: u64,
    },
    /// Replay found the stream internally inconsistent (e.g. a
    /// `round_end` total disagreeing with the replayed queue state).
    Inconsistent {
        /// The 1-based line of the refused event ([`Trace::event_line`]);
        /// `None` when no one event is at fault (a header, preamble or
        /// section count, or the stream as a whole).
        line: Option<usize>,
        /// First inconsistency found.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "empty input: not a trace"),
            TraceError::NotATrace => {
                write!(f, "first line is not an sg-trace header record")
            }
            TraceError::UnsupportedSchema { found } => write!(
                f,
                "unsupported schema version {found} (this build reads {SCHEMA_VERSION})"
            ),
            TraceError::Malformed { line, msg } => write!(f, "line {line}: {msg}"),
            TraceError::Truncated {
                kind,
                expected,
                found,
            } => write!(
                f,
                "truncated trace: header promises {expected} {kind} record(s), found {found}"
            ),
            TraceError::DroppedEvents { dropped } => write!(
                f,
                "refusing to replay a truncated log: the recorder's capacity bound dropped \
                 {dropped} event(s), so derived state cannot be reconstructed — record with an \
                 unbounded EventLog"
            ),
            TraceError::Inconsistent {
                line: Some(line),
                msg,
            } => write!(f, "inconsistent event stream: line {line}: {msg}"),
            TraceError::Inconsistent { line: None, msg } => {
                write!(f, "inconsistent event stream: {msg}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The self-describing first record of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Schema version ([`SCHEMA_VERSION`] when written by this build).
    pub schema: u32,
    /// Which engine produced the stream (`"fast"` or `"reference"`).
    pub engine: String,
    /// Star order of the run.
    pub n: u32,
    /// Workload (or job-stream) seed.
    pub seed: u64,
    /// Opaque configuration fingerprint — enough to tell two logs
    /// were recorded under the same knobs.
    pub fingerprint: String,
    /// Number of tenant jobs for a partitioned run; 0 when the run
    /// was not partitioned.
    pub jobs: u32,
    /// Packet-preamble records that follow.
    pub packets: u64,
    /// Event records that follow.
    pub events: u64,
    /// Events the recording [`crate::EventLog`] dropped past its
    /// capacity bound. Non-zero means the stream is incomplete and
    /// replay will refuse it.
    pub dropped: u64,
}

impl TraceHeader {
    /// Render the header as one newline-free JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"trace\":\"sg-trace\",\"schema\":{},\"engine\":\"{}\",\"n\":{},\"seed\":{},\
             \"fingerprint\":\"{}\",\"jobs\":{},\"packets\":{},\"events\":{},\"dropped\":{}}}",
            self.schema,
            escape(&self.engine),
            self.n,
            self.seed,
            escape(&self.fingerprint),
            self.jobs,
            self.packets,
            self.events,
            self.dropped,
        )
    }
}

/// One packet-preamble record: what the workload knew about packet
/// `pid` before the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePacket {
    /// Packet id (= injection index; records appear in this order).
    pub pid: u32,
    /// Source PE (Lehmer rank).
    pub src: u64,
    /// Destination PE (Lehmer rank).
    pub dst: u64,
    /// Scheduled injection round.
    pub round: u32,
    /// Owning job for a partitioned run.
    pub job: Option<u32>,
}

impl TracePacket {
    /// Render the record as one newline-free JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self.job {
            Some(j) => format!(
                "{{\"packet\":{},\"src\":{},\"dst\":{},\"round\":{},\"job\":{j}}}",
                self.pid, self.src, self.dst, self.round
            ),
            None => format!(
                "{{\"packet\":{},\"src\":{},\"dst\":{},\"round\":{}}}",
                self.pid, self.src, self.dst, self.round
            ),
        }
    }
}

/// A fully parsed trace: header, packet preamble, event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The self-describing header record.
    pub header: TraceHeader,
    /// Packet preamble in packet-id order (empty for scheduler runs).
    pub packets: Vec<TracePacket>,
    /// The recorded event stream, in emission order.
    pub events: Vec<Event>,
    /// The 1-based numbers of the blank lines [`Trace::parse`] skipped,
    /// ascending, so that [`Trace::event_line`] names the line each
    /// event was read from. Empty for a trace built in memory:
    /// [`Trace::to_jsonl`] writes no blank line.
    pub blank_lines: Vec<usize>,
}

impl Trace {
    /// Serialize the whole trace back to JSONL. Inverse of
    /// [`Trace::parse`]: `parse(t.to_jsonl())` reproduces `t` exactly.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        debug_assert_eq!(self.header.packets, self.packets.len() as u64);
        debug_assert_eq!(self.header.events, self.events.len() as u64);
        let mut out = self.header.to_json();
        out.push('\n');
        for p in &self.packets {
            out.push_str(&p.to_json());
            out.push('\n');
        }
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// The 1-based line event `k` stands on: in [`Trace::to_jsonl`]'s
    /// layout (the header, one line per packet, then the events) shifted
    /// past every blank line that came before it.
    #[must_use]
    pub fn event_line(&self, k: usize) -> usize {
        let mut line = self.packets.len() + k + 2;
        for &blank in &self.blank_lines {
            if blank > line {
                break;
            }
            line += 1;
        }
        line
    }

    /// Parse a JSONL trace. Streaming and strict: one pass over the
    /// lines, and any structural problem — missing header, wrong
    /// schema version, malformed line, out-of-order section, counts
    /// short of the header's promise — is an error.
    ///
    /// # Errors
    /// See [`TraceError`].
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let mut blank_lines = Vec::new();
        let mut lines = text.lines().enumerate().filter(|&(idx, l)| {
            let blank = l.trim().is_empty();
            if blank {
                blank_lines.push(idx + 1);
            }
            !blank
        });
        let (_, first) = lines.next().ok_or(TraceError::Empty)?;
        let header = parse_header(first)?;
        // The header's counts are promises, not sizes: the file holds
        // at most one record per line.
        let lines_in = text.lines().count();
        let fits = |promised: u64| usize::try_from(promised).map_or(lines_in, |p| p.min(lines_in));
        let mut packets = Vec::with_capacity(fits(header.packets));
        let mut events = Vec::with_capacity(fits(header.events));
        let mut in_events = false;
        for (idx, line) in lines {
            let lineno = idx + 1;
            let fields =
                parse_flat(line).map_err(|msg| TraceError::Malformed { line: lineno, msg })?;
            let err = |msg: String| TraceError::Malformed { line: lineno, msg };
            if get(&fields, "ev").is_some() {
                in_events = true;
                events.push(
                    Event::from_json(line)
                        .map_err(|msg| TraceError::Malformed { line: lineno, msg })?,
                );
            } else if get(&fields, "packet").is_some() {
                if in_events {
                    return Err(err("packet record after the first event record".into()));
                }
                let pid = req_u32(&fields, "packet").map_err(&err)?;
                if u64::from(pid) != packets.len() as u64 {
                    return Err(err(format!(
                        "packet records out of order: expected pid {}, found {pid}",
                        packets.len()
                    )));
                }
                packets.push(TracePacket {
                    pid,
                    src: req_u64(&fields, "src").map_err(&err)?,
                    dst: req_u64(&fields, "dst").map_err(&err)?,
                    round: req_u32(&fields, "round").map_err(&err)?,
                    job: opt_u32(&fields, "job").map_err(&err)?,
                });
            } else if get(&fields, "trace").is_some() {
                return Err(err("second header record".into()));
            } else {
                return Err(err("unrecognized record (no \"ev\"/\"packet\" key)".into()));
            }
        }
        if (packets.len() as u64) < header.packets {
            return Err(TraceError::Truncated {
                kind: "packet",
                expected: header.packets,
                found: packets.len() as u64,
            });
        }
        if (packets.len() as u64) > header.packets {
            return Err(TraceError::Inconsistent {
                line: None,
                msg: format!(
                    "header promises {} packet record(s), found {}",
                    header.packets,
                    packets.len()
                ),
            });
        }
        if (events.len() as u64) < header.events {
            return Err(TraceError::Truncated {
                kind: "event",
                expected: header.events,
                found: events.len() as u64,
            });
        }
        if (events.len() as u64) > header.events {
            return Err(TraceError::Inconsistent {
                line: None,
                msg: format!(
                    "header promises {} event record(s), found {}",
                    header.events,
                    events.len()
                ),
            });
        }
        Ok(Trace {
            header,
            packets,
            events,
            blank_lines,
        })
    }
}

impl Event {
    /// Parse one [`Event::to_json`] line back into the event. Total
    /// inverse: every variant round-trips losslessly (property-tested
    /// in this module and across whole recorded runs by the
    /// round-trip suite).
    ///
    /// # Errors
    /// A human-readable reason when the line is not a valid event
    /// record.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let fields = parse_flat(line)?;
        let name = req_str(&fields, "ev")?;
        let round = |key: &str| req_u32(&fields, key);
        Ok(match name.as_str() {
            "round_begin" => Event::RoundBegin {
                round: round("round")?,
            },
            "round_end" => Event::RoundEnd {
                round: round("round")?,
                queued: req_u64(&fields, "queued")?,
                in_flight: req_u64(&fields, "in_flight")?,
                stalled: req_u64(&fields, "stalled")?,
            },
            "forwarded" => Event::Forwarded {
                round: round("round")?,
                pid: req_u32(&fields, "pid")?,
                from: req_u32(&fields, "from")?,
                to: req_u32(&fields, "to")?,
                gen: req_u8(&fields, "gen")?,
                escape: req_bool(&fields, "escape")?,
            },
            "queued" => Event::Queued {
                round: round("round")?,
                pid: req_u32(&fields, "pid")?,
                pe: req_u32(&fields, "pe")?,
                gen: req_u8(&fields, "gen")?,
                depth: req_u32(&fields, "depth")?,
                escape: req_bool(&fields, "escape")?,
            },
            "stalled" => Event::Stalled {
                round: round("round")?,
                pid: req_u32(&fields, "pid")?,
                pe: req_u32(&fields, "pe")?,
                kind: match req_str(&fields, "kind")?.as_str() {
                    "injection" => StallKind::Injection,
                    "credit_head" => StallKind::CreditHead,
                    other => return Err(format!("unknown stall kind {other:?}")),
                },
            },
            "diverted" => Event::Diverted {
                round: round("round")?,
                pid: req_u32(&fields, "pid")?,
                pe: req_u32(&fields, "pe")?,
                class: req_u32(&fields, "class")?,
            },
            "dropped" => Event::Dropped {
                round: round("round")?,
                pid: req_u32(&fields, "pid")?,
                pe: req_u32(&fields, "pe")?,
                reason: match req_str(&fields, "reason")?.as_str() {
                    "fault" => DropReason::Fault,
                    "unreachable" => DropReason::Unreachable,
                    "overflow" => DropReason::Overflow,
                    "stranded" => DropReason::Stranded,
                    other => return Err(format!("unknown drop reason {other:?}")),
                },
            },
            "delivered" => Event::Delivered {
                round: round("round")?,
                pid: req_u32(&fields, "pid")?,
                pe: req_u32(&fields, "pe")?,
                hops: req_u32(&fields, "hops")?,
            },
            "job_arrived" => Event::JobArrived {
                round: round("time")?,
                job: req_u32(&fields, "job")?,
            },
            "job_placed" => Event::JobPlaced {
                round: round("time")?,
                job: req_u32(&fields, "job")?,
                order: req_u8(&fields, "order")?,
                pes: req_u64(&fields, "pes")?,
            },
            "job_released" => Event::JobReleased {
                round: round("time")?,
                job: req_u32(&fields, "job")?,
            },
            "job_reserved" => Event::JobReserved {
                round: round("time")?,
                job: req_u32(&fields, "job")?,
                start: req_u32(&fields, "start")?,
            },
            "job_backfilled" => Event::JobBackfilled {
                round: round("time")?,
                job: req_u32(&fields, "job")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// A line that names itself an sg-trace header (in the fields read
/// before any scan error) but fails to parse is `Malformed` with the
/// reason; any other first line is `NotATrace`.
fn parse_header(line: &str) -> Result<TraceHeader, TraceError> {
    let mut fields = Vec::new();
    let scanned = scan_flat(line, &mut fields);
    match get(&fields, "trace").map(unquote) {
        Some(Ok(tag)) if tag == "sg-trace" => {}
        _ => return Err(TraceError::NotATrace),
    }
    let err = |msg: String| TraceError::Malformed { line: 1, msg };
    scanned.map_err(err)?;
    let schema = req_u32(&fields, "schema").map_err(err)?;
    if schema != SCHEMA_VERSION {
        return Err(TraceError::UnsupportedSchema { found: schema });
    }
    Ok(TraceHeader {
        schema,
        engine: req_str(&fields, "engine").map_err(err)?,
        n: req_u32(&fields, "n").map_err(err)?,
        seed: req_u64(&fields, "seed").map_err(err)?,
        fingerprint: req_str(&fields, "fingerprint").map_err(err)?,
        jobs: req_u32(&fields, "jobs").map_err(err)?,
        packets: req_u64(&fields, "packets").map_err(err)?,
        events: req_u64(&fields, "events").map_err(err)?,
        dropped: req_u64(&fields, "dropped").map_err(err)?,
    })
}

// ---- minimal flat-JSON scanner ------------------------------------
//
// The build container is offline (no serde); every record we read is
// one flat JSON object whose values are integers, booleans, or strings
// without exotic escapes. The scanner below parses exactly that
// grammar, byte by byte, and rejects anything else.

/// Split one JSON object into `(key, raw-value)` slices.
fn parse_flat(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    scan_flat(line, &mut pairs)?;
    Ok(pairs)
}

/// [`parse_flat`] into `pairs`, which keeps the pairs read before a
/// scan error.
fn scan_flat<'a>(line: &'a str, pairs: &mut Vec<(&'a str, &'a str)>) -> Result<(), String> {
    let s = line.trim();
    let b = s.as_bytes();
    if b.first() != Some(&b'{') {
        return Err("expected '{'".into());
    }
    let mut i = 1usize;
    loop {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        match b.get(i) {
            None => return Err("unterminated object".into()),
            Some(b'}') => {
                i += 1;
                break;
            }
            Some(b'"') => {}
            Some(c) => return Err(format!("expected key, found {:?}", *c as char)),
        }
        let kstart = i + 1;
        let kend = quote_end(b, kstart)?;
        let key = &s[kstart..kend];
        i = kend + 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        let vstart = i;
        match b.get(i) {
            Some(b'"') => i = quote_end(b, i + 1)? + 1,
            Some(b'{' | b'[') => return Err(format!("value of {key:?} is not flat")),
            Some(_) => {
                while i < b.len() && b[i] != b',' && b[i] != b'}' {
                    i += 1;
                }
            }
            None => return Err(format!("missing value for key {key:?}")),
        }
        pairs.push((key, s[vstart..i].trim_end()));
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {}
            _ => return Err(format!("expected ',' or '}}' after value of {key:?}")),
        }
    }
    while i < b.len() {
        if !b[i].is_ascii_whitespace() {
            return Err("trailing garbage after object".into());
        }
        i += 1;
    }
    Ok(())
}

/// Index of the closing quote of a string whose body starts at `i`.
fn quote_end(b: &[u8], mut i: usize) -> Result<usize, String> {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Ok(i),
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

fn get<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

fn req<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, String> {
    get(pairs, key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_u64(pairs: &[(&str, &str)], key: &str) -> Result<u64, String> {
    let raw = req(pairs, key)?;
    raw.parse::<u64>()
        .map_err(|_| format!("field {key:?}: {raw:?} is not a u64"))
}

fn req_u32(pairs: &[(&str, &str)], key: &str) -> Result<u32, String> {
    let v = req_u64(pairs, key)?;
    u32::try_from(v).map_err(|_| format!("field {key:?}: {v} overflows u32"))
}

fn opt_u32(pairs: &[(&str, &str)], key: &str) -> Result<Option<u32>, String> {
    match get(pairs, key) {
        None => Ok(None),
        Some(_) => req_u32(pairs, key).map(Some),
    }
}

fn req_u8(pairs: &[(&str, &str)], key: &str) -> Result<u8, String> {
    let v = req_u64(pairs, key)?;
    u8::try_from(v).map_err(|_| format!("field {key:?}: {v} overflows u8"))
}

fn req_bool(pairs: &[(&str, &str)], key: &str) -> Result<bool, String> {
    match req(pairs, key)? {
        "true" => Ok(true),
        "false" => Ok(false),
        raw => Err(format!("field {key:?}: {raw:?} is not a bool")),
    }
}

fn req_str(pairs: &[(&str, &str)], key: &str) -> Result<String, String> {
    unquote(req(pairs, key)?).map_err(|msg| format!("field {key:?}: {msg}"))
}

fn unquote(raw: &str) -> Result<String, String> {
    let inner = raw
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("{raw:?} is not a string"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                other => return Err(format!("unsupported escape \\{other:?}")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

/// Escape a string for embedding in a JSON value (quote + backslash).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<Event> {
        vec![
            Event::RoundBegin { round: 3 },
            Event::RoundEnd {
                round: 3,
                queued: 7,
                in_flight: 2,
                stalled: 1,
            },
            Event::Forwarded {
                round: 3,
                pid: 9,
                from: 4,
                to: 5,
                gen: 2,
                escape: true,
            },
            Event::Queued {
                round: 3,
                pid: 9,
                pe: 4,
                gen: 1,
                depth: 2,
                escape: false,
            },
            Event::Stalled {
                round: 3,
                pid: 9,
                pe: 4,
                kind: StallKind::Injection,
            },
            Event::Stalled {
                round: 4,
                pid: 9,
                pe: 4,
                kind: StallKind::CreditHead,
            },
            Event::Diverted {
                round: 3,
                pid: 9,
                pe: 4,
                class: 2,
            },
            Event::Dropped {
                round: 3,
                pid: 9,
                pe: 4,
                reason: DropReason::Overflow,
            },
            Event::Dropped {
                round: 3,
                pid: 10,
                pe: 4,
                reason: DropReason::Stranded,
            },
            Event::Delivered {
                round: 3,
                pid: 9,
                pe: 4,
                hops: 2,
            },
            Event::JobArrived { round: 0, job: 1 },
            Event::JobPlaced {
                round: 2,
                job: 1,
                order: 3,
                pes: 6,
            },
            Event::JobReleased { round: 9, job: 1 },
            Event::JobReserved {
                round: 2,
                job: 4,
                start: 9,
            },
            Event::JobBackfilled { round: 2, job: 5 },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for ev in every_variant() {
            let line = ev.to_json();
            let back = Event::from_json(&line).expect("parses");
            assert_eq!(back, ev, "round-trip failed for {line}");
        }
    }

    fn sample_trace() -> Trace {
        Trace {
            header: TraceHeader {
                schema: SCHEMA_VERSION,
                engine: "fast".into(),
                n: 3,
                seed: 42,
                fingerprint: "s3;latency=1;flow=tail_drop(cap=none)".into(),
                jobs: 2,
                packets: 2,
                events: 3,
                dropped: 0,
            },
            packets: vec![
                TracePacket {
                    pid: 0,
                    src: 0,
                    dst: 5,
                    round: 0,
                    job: Some(0),
                },
                TracePacket {
                    pid: 1,
                    src: 3,
                    dst: 1,
                    round: 2,
                    job: Some(1),
                },
            ],
            events: vec![
                Event::RoundBegin { round: 0 },
                Event::Queued {
                    round: 0,
                    pid: 0,
                    pe: 0,
                    gen: 1,
                    depth: 1,
                    escape: false,
                },
                Event::RoundEnd {
                    round: 0,
                    queued: 1,
                    in_flight: 0,
                    stalled: 0,
                },
            ],
            blank_lines: Vec::new(),
        }
    }

    #[test]
    fn trace_round_trips() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let back = Trace::parse(&text).expect("parses");
        assert_eq!(back, t);
    }

    /// An unpartitioned run: no jobs, and no owner on any packet.
    #[test]
    fn header_without_profile_round_trips() {
        let mut t = sample_trace();
        t.header.jobs = 0;
        t.packets.iter_mut().for_each(|p| p.job = None);
        let back = Trace::parse(&t.to_jsonl()).expect("parses");
        assert_eq!(back, t);
    }

    /// Blank lines, which the parser skips, do not shift the line an
    /// event is said to stand on.
    #[test]
    fn event_lines_count_skipped_blank_lines() {
        let t = sample_trace();
        // The header, two packets, then events 0..3 on lines 4..=6.
        assert_eq!(
            (0..3).map(|k| t.event_line(k)).collect::<Vec<_>>(),
            [4, 5, 6]
        );
        let text = t.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(4, " ");
        lines.insert(4, "");
        lines.insert(0, "");
        let back = Trace::parse(&lines.join("\n")).expect("parses");
        assert_eq!(back.blank_lines, [1, 6, 7]);
        assert_eq!(back.events, t.events);
        for k in 0..3 {
            let line = back.event_line(k);
            assert_eq!(
                Event::from_json(lines[line - 1]),
                Ok(t.events[k]),
                "event {k}"
            );
        }
    }

    #[test]
    fn missing_header_is_rejected() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let body = text.split_once('\n').unwrap().1;
        assert_eq!(Trace::parse(body), Err(TraceError::NotATrace));
        assert_eq!(Trace::parse(""), Err(TraceError::Empty));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut t = sample_trace();
        t.header.schema = SCHEMA_VERSION + 1;
        assert_eq!(
            Trace::parse(&t.to_jsonl()),
            Err(TraceError::UnsupportedSchema {
                found: SCHEMA_VERSION + 1
            })
        );
    }

    #[test]
    fn truncated_sections_are_rejected() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        assert_eq!(
            Trace::parse(&lines.join("\n")),
            Err(TraceError::Truncated {
                kind: "event",
                expected: 3,
                found: 2
            })
        );
        let only_header: String = text.lines().take(1).collect();
        assert_eq!(
            Trace::parse(&only_header),
            Err(TraceError::Truncated {
                kind: "packet",
                expected: 2,
                found: 0
            })
        );
    }

    /// A header promising `u64::MAX` packets is a truncated file, not
    /// a capacity request.
    #[test]
    fn oversized_header_counts_are_truncation() {
        let mut t = sample_trace();
        t.header.packets = u64::MAX;
        t.header.events = u64::MAX;
        let text = [t.header.to_json()]
            .into_iter()
            .chain(t.packets.iter().map(TracePacket::to_json))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(
            Trace::parse(&text),
            Err(TraceError::Truncated {
                kind: "packet",
                expected: u64::MAX,
                found: 2
            })
        );
    }

    #[test]
    fn packet_after_event_is_rejected() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        let pkt = lines.remove(1);
        lines.push(pkt);
        let got = Trace::parse(&lines.join("\n"));
        assert!(
            matches!(got, Err(TraceError::Malformed { .. })),
            "got {got:?}"
        );
    }

    #[test]
    fn fingerprint_escaping_round_trips() {
        let mut t = sample_trace();
        t.header.fingerprint = "quote \" and backslash \\ survive".into();
        let back = Trace::parse(&t.to_jsonl()).expect("parses");
        assert_eq!(back.header.fingerprint, t.header.fingerprint);
    }

    /// Records are flat: a nested object is refused whole, not split
    /// at its first comma or brace.
    #[test]
    fn nested_values_are_refused() {
        let text = sample_trace().to_jsonl();
        let nested_header = text.replacen("\"dropped\":0}", "\"dropped\":0,\"x\":{\"a\":1}}", 1);
        assert!(
            matches!(
                Trace::parse(&nested_header),
                Err(TraceError::Malformed { line: 1, .. })
            ),
            "{:?}",
            Trace::parse(&nested_header)
        );
        let nested_event = format!("{text}{{\"ev\":\"round_begin\",\"round\":{{\"a\":1}}}}\n");
        assert!(
            matches!(
                Trace::parse(&nested_event),
                Err(TraceError::Malformed { line: 7, .. })
            ),
            "{:?}",
            Trace::parse(&nested_event)
        );
    }

    /// A first line that names itself an sg-trace header says why it
    /// failed the scan; one that does not is not a trace.
    #[test]
    fn header_scan_errors_keep_their_reason() {
        let reason = |line: &str| match Trace::parse(line) {
            Err(TraceError::Malformed { line: 1, msg }) => msg,
            other => panic!("{line}: expected Malformed on line 1, got {other:?}"),
        };
        let nested = r#"{"trace":"sg-trace","schema":1,"engine":"fast","n":{"x":1}}"#;
        assert_eq!(reason(nested), "value of \"n\" is not flat");
        let open = r#"{"trace":"sg-trace","schema":1,"engine":"fast"#;
        assert_eq!(reason(open), "unterminated string");
        for line in [
            r#"{"trace":"other","n":{"x":1}}"#,
            r#"{"n":{"x":1},"trace":"sg-trace"}"#,
            r#"{"trace":"sg-trace"#,
        ] {
            assert_eq!(Trace::parse(line), Err(TraceError::NotATrace), "{line}");
        }
    }

    #[test]
    fn malformed_lines_name_their_line() {
        let t = sample_trace();
        let mut text = t.to_jsonl();
        text.push_str("{\"ev\":\"no_such_event\"}\n");
        match Trace::parse(&text) {
            Err(TraceError::Malformed { line, .. }) => assert_eq!(line, 7),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
