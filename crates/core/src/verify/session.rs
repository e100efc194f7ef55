//! [`SweepSession`]: the single construction site for every sweep.
//!
//! `SweepSession` folds every axis — execution mode, strategy options,
//! budget, telemetry recorder, shard — into one builder, so the axes do
//! not multiply into entry points:
//!
//! ```ignore
//! let report = SweepSession::over(&universe)
//!     .mode(ExecMode::Parallel(4))
//!     .opts(SweepOpts::quotient())
//!     .budget(SweepBudget::with_deadline(limit))
//!     .recorder(&recorder)
//!     .run(&check);
//! ```
//!
//! Every indexed run shape goes through the one panel walk: the typed
//! [`run`](SweepSession::run), [`run_budgeted`](SweepSession::run_budgeted)
//! and [`resume`](SweepSession::resume) wrap their check in a one-member
//! [`DynPropertyCheck`] panel and downcast the member's verdict back to the
//! check's own type; the continuation is a one-member [`PanelFragment`].
//!
//! # Sharding
//!
//! [`SweepSession::shard`] restricts the walk to the shard's contiguous
//! odometer range `[lo, hi)` of the flat index space (see
//! [`ShardSpec::range`]). Two run shapes exist on a sharded session:
//!
//! * [`run`](SweepSession::run) / [`run_panel`](SweepSession::run_panel)
//!   treat the shard range as the whole job and produce a normal report.
//!   When `hi < universe.len()` the report is flagged `interrupted` with
//!   [`Coverage::Sampled`] — correct, since one shard *is* a sample of
//!   the universe. The continuation is the fragment walked so far, and it
//!   carries the shard's `hi`, so a resumed walk never leaves the range.
//! * [`run_panel_fragment`](SweepSession::run_panel_fragment) produces
//!   the raw [`PanelFragment`] — per-member partials, errors and
//!   short-circuit frontiers over `[lo, hi)` — which
//!   [`super::shard::merge_panel_fragments`] recombines into a report
//!   bit-identical to the unsharded run. This is the path the `audit`
//!   shard coordinator uses; a single check shards as a one-member panel.
//!
//! # Budget semantics under shards
//!
//! [`SweepBudget::max_items`] is a per-*call* cap: on a sharded session it
//! caps items walked within this shard's range. [`SweepBudget::deadline`]
//! is wall-clock from the start of the call — per process, not split
//! across shards. Both are pinned by `budget` doc-tests and the
//! `engine_parity` interrupted-shard property.

use super::budget::{BudgetedSweep, PanelFragment, SweepBudget};
use super::check::{PropertyCheck, VerificationReport};
use super::erased::{DynPropertyCheck, PropertyTag};
use super::executor::{self, ExecMode, SweepOpts};
use super::panel::{self, PanelReport};
use super::shard::ShardSpec;
use super::telemetry::SweepRecorder;
use super::universe::{Coverage, Universe};
use crate::instance::{Instance, LabeledInstance};
use crate::label::Labeling;

/// A configured sweep over one universe: mode, strategy options, budget,
/// recorder and shard, assembled by chaining and fired by a `run_*`
/// method. Copy, so one session can fire several runs.
#[derive(Clone, Copy)]
pub struct SweepSession<'a> {
    universe: &'a Universe,
    mode: ExecMode,
    opts: SweepOpts,
    budget: SweepBudget,
    recorder: Option<&'a dyn SweepRecorder>,
    shard: Option<ShardSpec>,
}

impl<'a> SweepSession<'a> {
    /// Starts a session over `universe` with the defaults every shim
    /// historically used: [`ExecMode::Auto`], default [`SweepOpts`],
    /// unlimited budget, no recorder, no shard.
    pub fn over(universe: &'a Universe) -> SweepSession<'a> {
        SweepSession {
            universe,
            mode: ExecMode::Auto,
            opts: SweepOpts::default(),
            budget: SweepBudget::unlimited(),
            recorder: None,
            shard: None,
        }
    }

    /// Sets the execution mode (default [`ExecMode::Auto`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the strategy options (default [`SweepOpts::default`]).
    pub fn opts(mut self, opts: SweepOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the execution budget (default unlimited). See the module docs
    /// for how `max_items` and `deadline` behave on a sharded session.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a [`SweepRecorder`] — usually a
    /// [`MetricsRecorder`](super::MetricsRecorder).
    pub fn recorder(mut self, recorder: &'a dyn SweepRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Restricts the walk to `shard`'s contiguous range of the flat index
    /// space. See the module docs for the two sharded run shapes.
    pub fn shard(mut self, shard: ShardSpec) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The index range this session walks: the shard's range, or the whole
    /// universe.
    pub fn range(&self) -> (usize, usize) {
        let n = self.universe.len();
        match self.shard {
            Some(s) => s.range(n),
            None => (0, n),
        }
    }

    /// Sweeps `check` over the session's range. With an unlimited budget
    /// and no shard this is the classic exhaustive sweep.
    pub fn run<C>(&self, check: &C) -> VerificationReport<C::Verdict>
    where
        C: PropertyCheck,
        C::Partial: Clone + 'static,
        C::Verdict: Send + 'static,
    {
        self.run_budgeted(check).report
    }

    /// The never-walked fragment of `members` members over the session's
    /// range: where every fresh walk starts.
    fn fresh(&self, members: usize) -> PanelFragment {
        let (lo, hi) = self.range();
        PanelFragment::fresh(lo, hi, members)
    }

    /// Sweeps `check` and keeps the continuation when the budget stops
    /// the walk inside the session's range.
    pub fn run_budgeted<C>(&self, check: &C) -> BudgetedSweep<VerificationReport<C::Verdict>>
    where
        C: PropertyCheck,
        C::Partial: Clone + 'static,
        C::Verdict: Send + 'static,
    {
        self.resume(check, self.fresh(1))
    }

    /// Continues an interrupted sweep from `fragment` (the one-member
    /// continuation [`run_budgeted`](SweepSession::run_budgeted) handed
    /// back). The combined chain of runs reproduces the uninterrupted
    /// report bit-for-bit.
    ///
    /// # Panics
    ///
    /// When `fragment` does not describe exactly one member.
    pub fn resume<C>(
        &self,
        check: &C,
        fragment: PanelFragment,
    ) -> BudgetedSweep<VerificationReport<C::Verdict>>
    where
        C: PropertyCheck,
        C::Partial: Clone + 'static,
        C::Verdict: Send + 'static,
    {
        let member = DynPropertyCheck::new(PropertyTag::Custom, "", check);
        let out = self.resume_panel(std::slice::from_ref(&member), fragment);
        BudgetedSweep {
            report: out.report.into_member_report(0),
            resume: out.resume,
        }
    }

    /// Fuses `checks` into one walk over the session's range.
    pub fn run_panel(&self, checks: &[DynPropertyCheck<'_>]) -> PanelReport {
        self.run_panel_budgeted(checks).report
    }

    /// [`run_panel`](SweepSession::run_panel) keeping the continuation
    /// when the budget stops the walk inside the session's range.
    pub fn run_panel_budgeted(
        &self,
        checks: &[DynPropertyCheck<'_>],
    ) -> BudgetedSweep<PanelReport> {
        self.resume_panel(checks, self.fresh(checks.len()))
    }

    /// Continues an interrupted panel from `fragment`, walking toward the
    /// fragment's own `hi` under this session's mode, options, budget and
    /// recorder.
    ///
    /// # Panics
    ///
    /// When `fragment` describes a different number of members than
    /// `checks`.
    pub fn resume_panel(
        &self,
        checks: &[DynPropertyCheck<'_>],
        fragment: PanelFragment,
    ) -> BudgetedSweep<PanelReport> {
        panel::run_panel(
            checks,
            self.universe,
            self.mode,
            &self.budget,
            fragment,
            self.opts,
            self.recorder,
        )
    }

    /// Walks the session's range and returns the raw [`PanelFragment`] —
    /// the panel shard-merge input — instead of reducing members.
    pub fn run_panel_fragment(&self, checks: &[DynPropertyCheck<'_>]) -> PanelFragment {
        self.resume_panel_fragment(checks, self.fresh(checks.len()))
    }

    /// Continues an interrupted fragment walk (one that is not
    /// [complete](PanelFragment::is_complete)) toward its `hi`.
    ///
    /// # Panics
    ///
    /// When `fragment` describes a different number of members than
    /// `checks`.
    pub fn resume_panel_fragment(
        &self,
        checks: &[DynPropertyCheck<'_>],
        fragment: PanelFragment,
    ) -> PanelFragment {
        panel::run_fragment(
            checks,
            self.universe,
            self.mode,
            &self.budget,
            fragment,
            self.opts,
            self.recorder,
        )
    }
}

/// The streaming counterpart of [`SweepSession`]: sweeps a check over
/// items pulled lazily from an iterator instead of an indexed universe.
///
/// Two sources exist:
///
/// * [`LazySweep::of`] fixes one instance and pulls *labelings* — the
///   memory-bounded way to walk `|alphabet|^n` assignments, stopping the
///   pull at the first short-circuit or budget expiry;
/// * [`LazySweep::labeled`] pulls whole [`LabeledInstance`]s (one
///   instance per item, e.g. identifier variants), each with its own
///   one-item skeleton cache; fire with
///   [`run_labeled`](LazySweep::run_labeled).
///
/// Lazy sweeps are always sequential and unsharded: the source is
/// stateful, so there is no index space to partition.
#[derive(Clone, Copy)]
pub struct LazySweep<'a> {
    instance: Option<&'a Instance>,
    coverage: Coverage,
    budget: SweepBudget,
}

impl<'a> LazySweep<'a> {
    /// A lazy sweep drawing labelings of `instance`.
    pub fn of(instance: &'a Instance, coverage: Coverage) -> LazySweep<'a> {
        LazySweep {
            instance: Some(instance),
            coverage,
            budget: SweepBudget::unlimited(),
        }
    }

    /// A lazy sweep drawing whole labeled instances; fire with
    /// [`run_labeled`](LazySweep::run_labeled).
    pub fn labeled(coverage: Coverage) -> LazySweep<'static> {
        LazySweep {
            instance: None,
            coverage,
            budget: SweepBudget::unlimited(),
        }
    }

    /// Sets the execution budget (default unlimited). An expired budget
    /// stops *drawing* — a stateful source is never advanced past the
    /// limit — and the report says how many items were drawn.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sweeps `check` over `labelings` of the fixed instance.
    ///
    /// # Panics
    ///
    /// When the sweep was built with [`LazySweep::labeled`] — that source
    /// has no fixed instance; use [`run_labeled`](LazySweep::run_labeled).
    pub fn run<C: PropertyCheck>(
        &self,
        check: &C,
        labelings: impl IntoIterator<Item = Labeling>,
    ) -> VerificationReport<C::Verdict> {
        let instance = self.instance.expect(
            "LazySweep::run needs a fixed instance; build with LazySweep::of \
             (LazySweep::labeled sources fire with run_labeled)",
        );
        let universe = executor::single_instance(instance.clone(), self.coverage);
        executor::run_lazy(check, &universe, labelings, &self.budget, |l| (l, None))
    }

    /// Sweeps `check` over labeled instances pulled from `items`.
    pub fn run_labeled<C: PropertyCheck>(
        &self,
        check: &C,
        items: impl IntoIterator<Item = LabeledInstance>,
    ) -> VerificationReport<C::Verdict> {
        // invariant: zero blocks sum to zero items — overflow is impossible.
        let universe =
            Universe::new(Vec::new(), self.coverage).expect("an empty universe cannot overflow");
        executor::run_lazy(check, &universe, items, &self.budget, |li| {
            let (instance, labeling) = li.into_parts();
            (
                labeling,
                Some(executor::single_instance(instance, self.coverage)),
            )
        })
    }
}
