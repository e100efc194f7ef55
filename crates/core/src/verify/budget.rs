//! Resilience primitives for the sweep engine: structured per-item
//! errors, execution budgets, and the walk state that continues an
//! interrupted walk.
//!
//! These types turn the engine from "all or nothing" into a machine that
//! degrades explicitly:
//!
//! * [`SweepError`] — a [`super::PropertyCheck::inspect`] call (or the
//!   item decode feeding it) panicked. The engine catches the unwind,
//!   records the offending flat index and panic payload, and keeps
//!   sweeping; the report's coverage downgrades to
//!   [`super::Coverage::Sampled`] because the erroring items were not
//!   actually verified.
//! * [`SweepBudget`] — a wall-clock deadline and/or an item cap for one
//!   engine call. A budget that expires mid-sweep ends it with an
//!   `interrupted` report (again [`super::Coverage::Sampled`] — an
//!   interrupted `Exhaustive` sweep proves nothing universal) instead of
//!   running unbounded.
//! * [`PanelFragment`] — the one walk state: a range `[lo, hi)`, the next
//!   unvisited index, and each member's partials, errors and stop index.
//!   It is both a shard's merge input and an interrupted run's
//!   continuation. Because inspection is pure and the visited set is
//!   always the contiguous prefix `[lo, next)`, feeding the fragment back
//!   into [`super::SweepSession::resume`] (or
//!   [`resume_panel`](super::SweepSession::resume_panel)) and letting it
//!   finish yields the *same verdict, partials and checked count* as one
//!   uninterrupted sweep — bit-identical resume, asserted by the engine
//!   parity suite. A typed sweep's continuation is a one-member fragment.

use std::any::Any;
use std::time::Duration;

/// A structured record of a panic caught during one item's inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Flat universe index of the item whose inspection panicked.
    pub item_index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads pass
    /// through verbatim).
    pub payload: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} panicked: {}", self.item_index, self.payload)
    }
}

impl SweepError {
    /// Builds the error from a caught unwind payload.
    pub(super) fn from_panic(item_index: usize, payload: Box<dyn Any + Send>) -> SweepError {
        let payload = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SweepError {
            item_index,
            payload,
        }
    }
}

/// Execution limits for one executor call.
///
/// Both limits are per-call: a resumed sweep gets a fresh deadline and a
/// fresh item allowance. [`SweepBudget::unlimited`] (the default) imposes
/// neither, which is what [`super::SweepSession::run`] uses.
///
/// # Per-shard semantics
///
/// A budget attached to a sharded session
/// ([`super::SweepSession::shard`], or the `audit --shards N`
/// coordinator) governs *each shard's calls independently* — there is no
/// cross-shard accounting:
///
/// * `max_items` caps the items visited by one call **within one
///   shard's range**; `N` shards budgeted at `max_items = m` may visit
///   up to `N * m` items in total per pass.
/// * `deadline` is wall-clock **per call, per process**. Shards running
///   concurrently each get the full allowance; a stalled shard times out
///   on its own clock without charging its siblings.
/// * Merging ([`super::merge_panel_fragments`]) never consults the budget: a
///   shard interrupted mid-range must be resumed (or re-dispatched) to
///   the end of its range before its fragment can merge. The
///   `engine_parity` suite pins that an interrupted-then-resumed shard
///   chain merges into the exact uninterrupted report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepBudget {
    /// Wall-clock limit for this call. Checked at chunk claims in every
    /// mode, and a claimed chunk runs to completion, so the visited set
    /// stays a contiguous prefix; a chunk of slow inspections can
    /// overshoot.
    pub deadline: Option<Duration>,
    /// Maximum number of items to visit in this call. Exact in every
    /// execution mode.
    pub max_items: Option<usize>,
}

impl SweepBudget {
    /// No limits: the sweep runs to completion.
    pub fn unlimited() -> SweepBudget {
        SweepBudget::default()
    }

    /// Limits this call to `deadline` of wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> SweepBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Limits this call to `max_items` visited items.
    pub fn with_max_items(mut self, max_items: usize) -> SweepBudget {
        self.max_items = Some(max_items);
        self
    }

    /// Whether this budget can never interrupt a sweep.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_items.is_none()
    }

    /// Tells the attached telemetry recorder (if any) that this budget
    /// interrupted a sweep. The executor calls this exactly once per
    /// interrupted pass, so `budget_interruptions` counts interruptions,
    /// not polls.
    pub(super) fn note_interruption(&self, recorder: Option<&dyn super::SweepRecorder>) {
        if let Some(r) = recorder {
            r.add(super::SweepCounter::BudgetInterruptions, 1);
        }
    }
}

/// A budgeted sweep's result: the (possibly partial) report — a typed
/// [`super::VerificationReport`] or a [`super::PanelReport`] — plus the
/// continuation when the budget interrupted the walk.
pub struct BudgetedSweep<R> {
    /// The report. When it is flagged `interrupted`, verdicts cover only
    /// the visited prefix and coverage is [`super::Coverage::Sampled`].
    pub report: R,
    /// `Some` exactly when the budget stopped the walk inside its range:
    /// the [`PanelFragment`] walked so far. Feed it to
    /// [`super::SweepSession::resume`] (typed) or
    /// [`super::SweepSession::resume_panel`] to continue.
    pub resume: Option<PanelFragment>,
}

/// The un-reduced state of a panel walk over the contiguous index range
/// `[lo, hi)`: the one walk-state type. A fresh walk starts from an empty
/// fragment; a budget-interrupted run hands back the fragment walked so
/// far as its continuation
/// ([`SweepSession::resume_panel_fragment`](super::SweepSession::resume_panel_fragment),
/// [`SweepSession::resume_panel`](super::SweepSession::resume_panel)); a
/// shard ships its complete fragment to
/// [`merge_panel_fragments`](super::merge_panel_fragments).
///
/// The visited set is always the contiguous prefix `[lo, next)` and each
/// member's partials and errors are index-sorted with nothing past its
/// stop, so continuing a fragment reproduces the uninterrupted walk
/// bit-for-bit. A walk never leaves `[lo, hi)`.
#[derive(Debug)]
pub struct PanelFragment {
    /// Range start (inclusive flat index).
    pub lo: usize,
    /// Range end (exclusive flat index).
    pub hi: usize,
    /// First index in `[lo, hi)` not visited; `hi` when the walk covered
    /// the whole range (or every member stopped inside it).
    pub next: usize,
    /// Per-member frontiers, in member order: each member's local stop
    /// index, partials and errors.
    pub members: Vec<MemberFrontier>,
}

impl PanelFragment {
    /// A never-walked fragment of `members` members over `[lo, hi)`.
    pub(super) fn fresh(lo: usize, hi: usize, members: usize) -> PanelFragment {
        PanelFragment {
            lo,
            hi,
            next: lo,
            members: (0..members).map(|_| MemberFrontier::default()).collect(),
        }
    }

    /// Whether the fragment's range is fully decided: the walk reached
    /// `hi`, or every member short-circuited inside the range.
    pub fn is_complete(&self) -> bool {
        self.next >= self.hi || self.members.iter().all(|m| m.stop_at.is_some())
    }
}

/// One panel member's slice of a [`PanelFragment`].
#[derive(Debug, Default)]
pub struct MemberFrontier {
    /// The member's short-circuit index: `Some(s)` when its lowest
    /// deciding item was `s` (the member inspects nothing past it on
    /// resume and reports `checked = s + 1`), `None` while still active.
    pub stop_at: Option<usize>,
    /// Partials the member recorded in `[lo, next)`, sorted by index,
    /// type-erased (clones of the member's concrete partials).
    pub partials: Vec<(usize, super::erased::ErasedPartial)>,
    /// Errors the member recorded in `[lo, next)`, sorted by index.
    pub errors: Vec<SweepError>,
}

impl MemberFrontier {
    /// Restores the sequential invariants after records were appended out
    /// of order (worker threads, shard fragments): partials and errors in
    /// index order, nothing past the member's stop.
    pub(super) fn fold(&mut self) {
        self.partials.sort_by_key(|&(i, _)| i);
        self.errors.sort_by_key(|e| e.item_index);
        if let Some(s) = self.stop_at {
            self.partials.retain(|&(i, _)| i <= s);
            self.errors.retain(|e| e.item_index <= s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builders() {
        assert!(SweepBudget::unlimited().is_unlimited());
        let b = SweepBudget::unlimited()
            .with_deadline(Duration::from_millis(5))
            .with_max_items(10);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_items, Some(10));
    }

    #[test]
    fn panic_payloads_stringify() {
        let e = SweepError::from_panic(3, Box::new("boom"));
        assert_eq!(e.payload, "boom");
        let e = SweepError::from_panic(4, Box::new(String::from("owned boom")));
        assert_eq!(e.payload, "owned boom");
        let e = SweepError::from_panic(5, Box::new(17u32));
        assert_eq!(e.payload, "non-string panic payload");
        assert_eq!(e.to_string(), "item 5 panicked: non-string panic payload");
    }
}
