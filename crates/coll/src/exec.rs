//! The payload executor: runs a [`CollSchedule`] over concrete
//! values and enforces exactly-once delivery.
//!
//! Each PE's state is a map `slot → u64`. A phase executes with
//! snapshot semantics — all reads see the state at the start of the
//! phase, then give-away slots leave their senders, then payloads
//! land — which is the payload-level mirror of the network barrier:
//! within a phase all sends are concurrent, between phases everything
//! is ordered. Violations (reading an absent slot, two sends giving
//! away the same slot, two payloads landing on one slot without
//! `Reduce`) are hard errors, so a schedule cannot pass the
//! correctness suite by double-counting or overwriting.

use crate::schedule::{CollSchedule, SlotAction};
use std::collections::BTreeMap;

/// One PE's payload: slot → value.
pub type PeState = BTreeMap<u64, u64>;

/// Global payload state: PE rank → slots. Works unchanged for local
/// schedules (ranks in `S_m`) and lifted ones (ranks in the host
/// `S_n`).
pub type GlobalState = BTreeMap<u64, PeState>;

/// A schedule/payload mismatch detected during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// A send read a slot its source does not hold.
    MissingSlot {
        /// Phase index.
        phase: usize,
        /// Sending PE.
        pe: u64,
        /// The absent slot.
        slot: u64,
    },
    /// Two give-away sends ([`SlotAction::Reduce`]/[`SlotAction::Move`])
    /// shipped the same slot of the same PE in one phase.
    DoubleGive {
        /// Phase index.
        phase: usize,
        /// Sending PE.
        pe: u64,
        /// The doubly-shipped slot.
        slot: u64,
    },
    /// A [`SlotAction::Copy`]/[`SlotAction::Move`] payload landed on a
    /// slot the receiver already holds — delivery was not
    /// exactly-once.
    DuplicateSlot {
        /// Phase index.
        phase: usize,
        /// Receiving PE.
        pe: u64,
        /// The contested slot.
        slot: u64,
    },
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadError::MissingSlot { phase, pe, slot } => {
                write!(f, "phase {phase}: PE {pe} sent absent slot {slot}")
            }
            PayloadError::DoubleGive { phase, pe, slot } => {
                write!(f, "phase {phase}: PE {pe} gave slot {slot} away twice")
            }
            PayloadError::DuplicateSlot { phase, pe, slot } => {
                write!(f, "phase {phase}: PE {pe} received slot {slot} twice")
            }
        }
    }
}

impl std::error::Error for PayloadError {}

/// Executes `schedule` phase by phase from `init` and returns the
/// final global state.
///
/// Within a phase: (1) every send reads its source slots from the
/// phase-start snapshot, (2) [`SlotAction::Reduce`]/[`SlotAction::Move`]
/// sends remove the shipped slots from their sources, (3) payloads
/// land — `Copy`/`Move` insert (duplicate ⇒ error), `Reduce`
/// wrapping-adds.
///
/// # Errors
/// Any [`PayloadError`]; the state is discarded on error.
pub fn execute(schedule: &CollSchedule, init: &GlobalState) -> Result<GlobalState, PayloadError> {
    let mut state = init.clone();
    for (phase_idx, phase) in schedule.phases().iter().enumerate() {
        // (1) Read everything against the phase-start snapshot.
        let mut payloads: Vec<Vec<u64>> = Vec::with_capacity(phase.len());
        for s in phase {
            let src_state = state.get(&s.src);
            let mut values = Vec::with_capacity(s.slots.len());
            for &(src_slot, _) in s.slots.iter() {
                match src_state.and_then(|m| m.get(&src_slot)) {
                    Some(&v) => values.push(v),
                    None => {
                        return Err(PayloadError::MissingSlot {
                            phase: phase_idx,
                            pe: s.src,
                            slot: src_slot,
                        })
                    }
                }
            }
            payloads.push(values);
        }
        // (2) Give-away slots leave their senders.
        for s in phase {
            if s.action == SlotAction::Copy {
                continue;
            }
            let src_state = state.entry(s.src).or_default();
            for &(src_slot, _) in s.slots.iter() {
                if src_state.remove(&src_slot).is_none() {
                    return Err(PayloadError::DoubleGive {
                        phase: phase_idx,
                        pe: s.src,
                        slot: src_slot,
                    });
                }
            }
        }
        // (3) Payloads land.
        for (s, values) in phase.iter().zip(&payloads) {
            let dst_state = state.entry(s.dst).or_default();
            for (&(_, dst_slot), &v) in s.slots.iter().zip(values) {
                match s.action {
                    SlotAction::Copy | SlotAction::Move => {
                        if dst_state.insert(dst_slot, v).is_some() {
                            return Err(PayloadError::DuplicateSlot {
                                phase: phase_idx,
                                pe: s.dst,
                                slot: dst_slot,
                            });
                        }
                    }
                    SlotAction::Reduce => {
                        let cell = dst_state.entry(dst_slot).or_insert(0);
                        *cell = cell.wrapping_add(v);
                    }
                }
            }
        }
    }
    // Normalize: drop PEs whose state emptied out, so results compare
    // cleanly against expected states that omit empty PEs.
    state.retain(|_, m| !m.is_empty());
    Ok(state)
}
