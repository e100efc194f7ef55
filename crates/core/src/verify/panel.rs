//! The fused panel executor: one odometer enumeration, every member
//! check.
//!
//! A full audit of one certification scheme asks several property
//! questions over the *same* universe — soundness, strong soundness and
//! hiding all quantify over every labeling of the same instances. Run as
//! individual sweeps, each pays the full enumeration, skeleton-cache
//! build, and (on the delta path) verdict maintenance again.
//! [`SweepSession::run_panel`](super::SweepSession::run_panel) fuses them:
//! it walks the universe once and evaluates every [`DynPropertyCheck`]
//! member per item, sharing
//!
//! * **the walk** — one [odometer](super::executor) step per item,
//!   regardless of member count;
//! * **the skeleton cache** — the union of all members' view configs,
//!   built once;
//! * **verdict channels** — members that declared the same decoder via
//!   [`DynPropertyCheck::with_channel`] share one delta-maintained
//!   verdict vector and one verdict memo, so the decoder runs once per
//!   changed ball per item instead of once per member.
//!
//! # Per-member short-circuit, budget, and resume
//!
//! Each member keeps its own frontier. A member whose partial
//! short-circuits *drops out of the walk* — later items skip it — while
//! the remaining members continue; the enumeration ends when every member
//! has stopped or the universe is exhausted. Counts keep sequential
//! semantics per member (see [`SweepOutcome::checked`]): a member that
//! stopped at its lowest deciding index `s` reports `checked = s + 1`,
//! exactly what its own single-check sweep would.
//!
//! # One walk, one walk state
//!
//! This module holds the repository's only indexed walk loop: `threads`
//! workers claim chunks from a shared cursor, worker 0 being the calling
//! thread, so `Parallel(1)` and universes below
//! [`PARALLEL_THRESHOLD`](super::PARALLEL_THRESHOLD) are one worker in the
//! same loop. A typed [`SweepSession::run`](super::SweepSession::run)
//! wraps its check in a one-member panel and downcasts the member's
//! verdict, so every indexed sweep — a single property, a full audit, a
//! shard — rides the same loop.
//!
//! Every item inspection runs under `catch_unwind`, so a panicking
//! decoder becomes a [`SweepError`] naming the item, not a poisoned walk.
//! Budgets are checked at chunk claims in every mode, and a claimed chunk
//! always runs to completion, so the visited set is always the contiguous
//! prefix `[lo, next)` of a [`PanelFragment`] — the one walk state. A walk
//! continues a fragment and folds it; [`run_panel`] then reduces it, and
//! [`run_fragment`] hands it back unreduced, so an interrupted fragment
//! walk can be resumed and finished bit-for-bit (the panel differential
//! suite asserts this). The shard merge folds and reduces fragments the
//! same way.
//!
//! # Determinism
//!
//! The single-sweep contract lifts member-wise: for any member list,
//! universe and options, every [`ExecMode`] produces identical member
//! verdicts, `checked` counts and witnesses: every thread count runs the
//! same loop — atomic chunk cursor, per-member `fetch_min` stop folding,
//! post-join folding — with the stop horizon being the *maximum* over
//! member stops (an item is only skippable when every member is past it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use super::budget::{MemberFrontier, PanelFragment, SweepBudget, SweepError};
use super::check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
use super::erased::{DynPropertyCheck, ErasedPartial, PanelVerdict, PropertyTag};
use super::executor::{
    refresh_verdicts, resolve_threads, DeltaDriver, ExecMode, ItemCtx, SkeletonCache, SweepOpts,
    SweepStrategy, VerdictMemo, VerdictScratch, Walker,
};
use super::symmetry::QuotientPlan;
use super::telemetry::{SweepCounter, SweepPhase, SweepRecorder, WorkerTally};
use super::universe::{Coverage, Universe, UniverseItem};
use crate::decoder::Decoder;
use crate::view::IdMode;
use std::any::Any;

/// One member's slice of a [`PanelReport`].
#[derive(Debug)]
pub struct PanelMemberReport {
    /// The member's property tag.
    pub tag: PropertyTag,
    /// The member's label.
    pub label: String,
    /// The member's verdict (reduce output plus summary).
    pub verdict: PanelVerdict,
    /// Items this member inspected, with sequential semantics (see
    /// [`SweepOutcome::checked`]'s panel paragraph).
    pub checked: usize,
    /// Whether this member short-circuited out of the walk.
    pub short_circuited: bool,
    /// Whether the budget ended the walk before this member was done
    /// (a short-circuited member is complete, not interrupted).
    pub interrupted: bool,
    /// The member's own coverage: the universe's, downgraded to
    /// [`Coverage::Sampled`] when this member was interrupted or errored.
    pub coverage: Coverage,
    /// This member's inspection errors, sorted by item index.
    pub errors: Vec<SweepError>,
}

/// The result of one fused panel: per-member verdicts plus the shared
/// execution evidence of the single walk.
#[derive(Debug)]
pub struct PanelReport {
    /// Per-member results, in input member order.
    pub members: Vec<PanelMemberReport>,
    /// Evidence of the shared walk. `checked` is the walk's reach (how
    /// far the enumeration went before every member stopped, the budget
    /// fired, or the universe ended); `short_circuited` means *every*
    /// member stopped early; `errors` is the merged, index-sorted union
    /// of all member errors (one entry per member per erroring item).
    pub evidence: ExecEvidence,
}

impl PanelReport {
    /// Converts member `index` into the [`VerificationReport`] its own
    /// single-check sweep would have produced: member-level counts and
    /// coverage, panel-level cache/memo/clock/thread evidence.
    ///
    /// # Panics
    ///
    /// When `index` is out of range or `V` is not the member's verdict
    /// type.
    pub fn into_member_report<V: Any>(mut self, index: usize) -> VerificationReport<V> {
        let member = self.members.remove(index);
        let verdict = member
            .verdict
            .downcast::<V>()
            .expect("member verdict downcasts to its concrete type");
        VerificationReport {
            verdict,
            evidence: ExecEvidence {
                checked: member.checked,
                short_circuited: member.short_circuited,
                interrupted: member.interrupted,
                coverage: member.coverage,
                errors: member.errors,
                ..self.evidence
            },
        }
    }
}

/// The member's recorded stop index for a short-circuit at item `i`.
fn stop_index(i: usize) -> usize {
    #[cfg(conformance_mutants)]
    if crate::mutants::active("panel_frontier_off_by_one") {
        return i + 1;
    }
    i
}

/// Immutable per-panel state shared by every worker thread.
struct PanelEngine<'e> {
    checks: &'e [DynPropertyCheck<'e>],
    universe: &'e Universe,
    cache: &'e SkeletonCache,
    /// One delta driver per verdict channel.
    drivers: Vec<DeltaDriver<'e>>,
    /// Member index → its verdict channel, if it has one.
    member_channel: Vec<Option<usize>>,
    /// `uses_verdicts[m][b]`: whether member `m` reads its channel's
    /// delta-maintained verdicts on block `b`, fixed at pass setup.
    uses_verdicts: Vec<Vec<bool>>,
    hits: &'e AtomicUsize,
    misses: &'e AtomicUsize,
    memo_hits: &'e AtomicUsize,
    memo_misses: &'e AtomicUsize,
    memo_on: bool,
    oracle: bool,
    /// Member index -> its symmetry-quotient plan, when the panel runs
    /// under [`SweepStrategy::Quotient`] and the member opted in.
    quotients: Vec<Option<QuotientPlan>>,
    recorder: Option<&'e dyn SweepRecorder>,
}

/// A worker thread's mutable state: one odometer walker feeding one
/// verdict scratch + memo per channel, plus the thread's telemetry
/// tally. Panel tallies count *member evaluations*: each (item, active
/// member) pair is one walk, resolving to one inspect or one orbit
/// skip — so `items_inspected + items_orbit_skipped == items_walked`
/// holds member-summed, and a one-member panel tallies one walk per item.
struct PanelWorker {
    walker: Walker,
    channels: Vec<(VerdictScratch, VerdictMemo)>,
    tally: WorkerTally,
}

impl PanelWorker {
    fn new(channels: usize, memo_on: bool) -> PanelWorker {
        PanelWorker {
            walker: Walker::default(),
            channels: (0..channels)
                .map(|_| (VerdictScratch::default(), VerdictMemo::new(memo_on)))
                .collect(),
            tally: WorkerTally::default(),
        }
    }

    fn flush(&self, engine: &PanelEngine<'_>) {
        for (_, memo) in &self.channels {
            engine.memo_hits.fetch_add(memo.hits, Ordering::Relaxed);
            engine.memo_misses.fetch_add(memo.misses, Ordering::Relaxed);
        }
        self.tally.flush(engine.recorder);
    }
}

impl PanelEngine<'_> {
    /// Advances the walker to item `i` and evaluates every member for
    /// which `active` holds, under per-member panic isolation. A verdict
    /// channel is refreshed at most once per item — the first member to
    /// need it pays the delta patch, the rest read it back.
    fn run_item(
        &self,
        worker: &mut PanelWorker,
        i: usize,
        mut active: impl FnMut(usize) -> bool,
        mut record: impl FnMut(usize, Result<Option<ErasedPartial>, SweepError>),
    ) {
        if self.oracle {
            let buf = self.universe.item(i);
            let ctx = ItemCtx::new(
                buf.block,
                self.cache,
                self.hits,
                self.misses,
                self.memo_on,
                1,
            );
            for m in 0..self.checks.len() {
                if !active(m) {
                    continue;
                }
                worker.tally.walk();
                worker.tally.inspect(1);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    self.checks[m].inspect(&buf.as_item(), &ctx)
                }))
                .map_err(|p| SweepError::from_panic(i, p));
                record(m, r);
            }
            return;
        }
        let (block, offset) = self.universe.locate(i);
        let PanelWorker {
            walker,
            channels,
            tally,
        } = worker;
        let stepped = walker.advance_to(self.universe, block, offset);
        let instance = self.universe.blocks()[block].instance();
        for m in 0..self.checks.len() {
            if !active(m) {
                continue;
            }
            tally.walk();
            // Quotient strategy: a member whose plan rejects this item as a
            // non-canonical orbit member skips it entirely -- its verdict
            // channel refreshes lazily at its next canonical item.
            let mut multiplicity = 1u64;
            if let Some(plan) = &self.quotients[m] {
                match plan.classify(block, &walker.digits) {
                    Some(mult) => multiplicity = mult,
                    None => {
                        tally.orbit_skip();
                        continue;
                    }
                }
            }
            tally.inspect(multiplicity);
            let ctx = ItemCtx::new(
                block,
                self.cache,
                self.hits,
                self.misses,
                self.memo_on,
                multiplicity,
            );
            let check = &self.checks[m];
            let r = catch_unwind(AssertUnwindSafe(|| {
                if self.uses_verdicts[m][block] {
                    // invariant: `uses_verdicts[m]` is only set for members
                    // that were given a channel at setup.
                    let c = self.member_channel[m].expect("uses_verdicts implies a channel");
                    let (scratch, memo) = &mut channels[c];
                    refresh_verdicts(
                        &self.drivers[c],
                        self.cache,
                        block,
                        offset,
                        walker,
                        scratch,
                        memo,
                        tally,
                        stepped,
                    );
                    let item = UniverseItem {
                        index: i,
                        block,
                        instance,
                        labeling: &walker.labeling,
                        digits: Some(&walker.digits),
                    };
                    check.inspect_with_verdicts(&item, &scratch.verdicts, &ctx)
                } else {
                    let item = UniverseItem {
                        index: i,
                        block,
                        instance,
                        labeling: &walker.labeling,
                        digits: (!walker.digits.is_empty()).then_some(walker.digits.as_slice()),
                    };
                    check.inspect(&item, &ctx)
                }
            }))
            .map_err(|p| SweepError::from_panic(i, p));
            record(m, r);
        }
    }
}

/// Runs one panel call: walks `fragment` onward under `budget`, then
/// reduces every member, whether or not the budget stopped the walk. The
/// shared engine behind [`SweepSession::run`](super::SweepSession::run)
/// and [`SweepSession::run_panel`](super::SweepSession::run_panel).
/// `recorder` attaches telemetry (the audit plan passes one through here
/// to keep budgets and recording composable); phase timings use the
/// recorder's clock.
pub(super) fn run_panel(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    fragment: PanelFragment,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
) -> PanelReport {
    let start = Instant::now();
    if let Some(r) = recorder {
        r.span_enter("panel");
    }
    let (fragment, stats) = walk(checks, universe, mode, budget, fragment, opts, recorder);
    // A walk that ends before the universe does — a budget stop, or a
    // shard range short of `n` — covers a sample of the universe.
    let all_stopped = fragment.members.iter().all(|f| f.stop_at.is_some());
    let interrupted = !all_stopped && fragment.next < universe.len();
    let report = reduce_panel(
        checks,
        universe,
        fragment.members,
        fragment.next,
        interrupted,
        stats,
        recorder,
        start,
    );
    if let Some(r) = recorder {
        r.span_exit("panel");
    }
    report
}

/// Walks `fragment` onward under `budget` without reducing: the
/// fragment-returning twin of [`run_panel`].
pub(super) fn run_fragment(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    fragment: PanelFragment,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
) -> PanelFragment {
    if let Some(r) = recorder {
        r.span_enter("panel");
    }
    let (fragment, _) = walk(checks, universe, mode, budget, fragment, opts, recorder);
    if let Some(r) = recorder {
        r.span_exit("panel");
    }
    fragment
}

/// One capped walk of `fragment` from `next` toward `hi`: channel setup,
/// cache build, the chunk walk over at most `budget.max_items` items,
/// counter flushing and the member fold. The deadline runs from this
/// call. Emits every recorder event of a panel except the enclosing span
/// and the reduce phase, which the callers own.
///
/// # Panics
///
/// When `fragment` describes a different number of members than
/// `checks`.
fn walk(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    mode: ExecMode,
    budget: &SweepBudget,
    mut fragment: PanelFragment,
    opts: SweepOpts,
    recorder: Option<&dyn SweepRecorder>,
) -> (PanelFragment, PanelWalkStats) {
    let nmem = checks.len();
    assert_eq!(
        fragment.members.len(),
        nmem,
        "panel fragment describes a different member list"
    );
    let deadline = budget.deadline.map(|d| Instant::now() + d);
    fragment.hi = fragment.hi.min(universe.len());
    fragment.next = fragment.next.max(fragment.lo).min(fragment.hi);
    let begin = fragment.next;
    let end = match budget.max_items {
        Some(m) => begin.saturating_add(m).min(fragment.hi),
        None => fragment.hi,
    };
    let threads = resolve_threads(mode, end - begin);
    let mut stats = PanelWalkStats {
        threads,
        ..PanelWalkStats::default()
    };
    if fragment.is_complete() {
        return (fragment, stats);
    }
    let oracle = opts.strategy == SweepStrategy::DecodeOracle;
    let cache_start = recorder.map(|r| r.now_micros());

    // Verdict channels: members with equal channel keys share a slot;
    // members with a decoder but no key get a private slot; the decode
    // oracle strategy runs everything through plain `inspect`.
    let mut configs: Vec<(usize, IdMode)> = Vec::new();
    for check in checks {
        configs.extend(check.view_configs());
    }
    let mut member_channel: Vec<Option<usize>> = vec![None; nmem];
    let mut decoders: Vec<&dyn Decoder> = Vec::new();
    let mut keyed: Vec<(usize, usize)> = Vec::new();
    if !oracle {
        for (m, check) in checks.iter().enumerate() {
            let Some(d) = check.verdict_decoder() else {
                continue;
            };
            let channel = match check.channel_key() {
                Some(key) => match keyed.iter().find(|&&(k, _)| k == key) {
                    Some(&(_, c)) => c,
                    None => {
                        let c = decoders.len();
                        decoders.push(d);
                        keyed.push((key, c));
                        c
                    }
                },
                None => {
                    let c = decoders.len();
                    decoders.push(d);
                    c
                }
            };
            member_channel[m] = Some(channel);
            configs.push((d.radius(), d.id_mode()));
        }
    }
    let cache = SkeletonCache::build(universe, configs);
    if let (Some(r), Some(t0)) = (recorder, cache_start) {
        r.record_phase(SweepPhase::CacheBuild, r.now_micros().saturating_sub(t0));
    }
    let drivers: Vec<DeltaDriver<'_>> = decoders
        .iter()
        .enumerate()
        .map(|(c, &d)| {
            DeltaDriver::build(d, universe, &cache, |b| {
                checks
                    .iter()
                    .enumerate()
                    .any(|(m, check)| member_channel[m] == Some(c) && check.uses_verdicts(b))
            })
        })
        .collect();
    #[cfg(conformance_mutants)]
    if drivers.len() > 1 && crate::mutants::active("panel_channel_swap") {
        for channel in member_channel.iter_mut().flatten() {
            *channel = (*channel + 1) % drivers.len();
        }
    }
    let uses_verdicts: Vec<Vec<bool>> = checks
        .iter()
        .zip(&member_channel)
        .map(|(check, channel)| {
            (0..universe.blocks().len())
                .map(|b| {
                    channel.is_some_and(|c| check.uses_verdicts(b) && drivers[c].verdict_blocks[b])
                })
                .collect()
        })
        .collect();
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(cache.populated);
    let memo_hits = AtomicUsize::new(0);
    let memo_misses = AtomicUsize::new(0);
    let quotients: Vec<Option<QuotientPlan>> = if opts.strategy == SweepStrategy::Quotient {
        checks
            .iter()
            .map(|check| QuotientPlan::build(universe, |alphabet| check.symmetry_class(alphabet)))
            .collect()
    } else {
        (0..nmem).map(|_| None).collect()
    };
    let engine = PanelEngine {
        checks,
        universe,
        cache: &cache,
        drivers,
        member_channel,
        uses_verdicts,
        hits: &hits,
        misses: &misses,
        memo_hits: &memo_hits,
        memo_misses: &memo_misses,
        memo_on: opts.memo,
        oracle,
        quotients,
        recorder,
    };

    let walk_start = recorder.map(|r| r.now_micros());
    let prior_errors: usize = fragment.members.iter().map(|f| f.errors.len()).sum();
    walk_chunks(&engine, threads, &mut fragment, end, deadline);
    if let (Some(r), Some(t0)) = (recorder, walk_start) {
        r.record_phase(SweepPhase::Walk, r.now_micros().saturating_sub(t0));
    }
    stats.cache_hits = hits.load(Ordering::Relaxed);
    stats.cache_misses = misses.load(Ordering::Relaxed);
    stats.memo_hits = memo_hits.load(Ordering::Relaxed);
    stats.memo_misses = memo_misses.load(Ordering::Relaxed);
    if let Some(r) = recorder {
        let errors: usize = fragment.members.iter().map(|f| f.errors.len()).sum();
        r.add(SweepCounter::PanicsCaught, (errors - prior_errors) as u64);
        r.add(SweepCounter::CacheHits, stats.cache_hits as u64);
        r.add(SweepCounter::CacheMisses, stats.cache_misses as u64);
        r.add(SweepCounter::MemoHits, stats.memo_hits as u64);
        r.add(SweepCounter::MemoMisses, stats.memo_misses as u64);
        let quotient_blocks: u64 = engine
            .quotients
            .iter()
            .flatten()
            .map(|plan| plan.active_blocks())
            .sum();
        if quotient_blocks > 0 {
            r.add(SweepCounter::QuotientBlocks, quotient_blocks);
        }
    }
    for member in &mut fragment.members {
        member.fold();
    }
    if !fragment.is_complete() {
        budget.note_interruption(recorder);
    }
    (fragment, stats)
}

/// The walk counters [`reduce_panel`] copies into the panel evidence. A
/// live walk loads them from its atomics; the shard merge has no walk of
/// its own and passes zeros (those counters are observed, not stable, so
/// the stable report rendering never reads them).
#[derive(Default)]
pub(super) struct PanelWalkStats {
    pub(super) threads: usize,
    pub(super) cache_hits: usize,
    pub(super) cache_misses: usize,
    pub(super) memo_hits: usize,
    pub(super) memo_misses: usize,
}

/// The per-member reduce + evidence assembly shared by [`run_panel`] and
/// the shard merge: reduces each member's folded frontier (its stop the
/// member's global stop) into its verdict and assembles the
/// [`PanelReport`]. The member lists and stop semantics are exactly those
/// of the single-process panel, which is what makes a merged report
/// structurally identical to an unsharded one.
#[allow(clippy::too_many_arguments)] // the args are the walk's state, not a config
pub(super) fn reduce_panel(
    checks: &[DynPropertyCheck<'_>],
    universe: &Universe,
    frontiers: Vec<MemberFrontier>,
    next: usize,
    interrupted: bool,
    stats: PanelWalkStats,
    recorder: Option<&dyn SweepRecorder>,
    start: Instant,
) -> PanelReport {
    let n = universe.len();
    let all_stopped = frontiers.iter().all(|f| f.stop_at.is_some());
    let mut panel_errors: Vec<SweepError> = frontiers
        .iter()
        .flat_map(|f| f.errors.iter().cloned())
        .collect();
    panel_errors.sort_by_key(|e| e.item_index);
    let coverage = if interrupted || !panel_errors.is_empty() {
        Coverage::Sampled
    } else {
        universe.coverage()
    };
    let panel_checked = if all_stopped {
        frontiers
            .iter()
            .filter_map(|f| f.stop_at)
            .max()
            .map_or(0, |s| s + 1)
    } else {
        next
    };

    let reduce_start = recorder.map(|r| r.now_micros());
    let mut members = Vec::with_capacity(checks.len());
    for (check, frontier) in checks.iter().zip(frontiers) {
        let stopped = frontier.stop_at.is_some();
        let checked = frontier.stop_at.map_or(next, |s| s + 1);
        #[cfg(conformance_mutants)]
        let checked = if crate::mutants::active("checked_off_by_one") && stopped {
            checked - 1
        } else {
            checked
        };
        let member_interrupted = interrupted && !stopped;
        let member_coverage = if member_interrupted || !frontier.errors.is_empty() {
            Coverage::Sampled
        } else {
            universe.coverage()
        };
        let outcome = SweepOutcome {
            checked,
            universe_size: n,
            short_circuited: stopped,
        };
        let value = check.reduce(universe, frontier.partials, &outcome);
        let (passed, detail) = check.summarize(&*value);
        members.push(PanelMemberReport {
            tag: check.tag(),
            label: check.label().to_string(),
            verdict: PanelVerdict::new(passed, detail, value),
            checked,
            short_circuited: stopped,
            interrupted: member_interrupted,
            coverage: member_coverage,
            errors: frontier.errors,
        });
    }

    if let (Some(r), Some(t0)) = (recorder, reduce_start) {
        r.record_phase(SweepPhase::Reduce, r.now_micros().saturating_sub(t0));
    }
    let interner = checks.iter().find_map(|check| check.interner_report());
    if let (Some(r), Some(report)) = (recorder, &interner) {
        report.record_into(r);
    }

    PanelReport {
        members,
        evidence: ExecEvidence {
            checked: panel_checked,
            universe_size: n,
            short_circuited: all_stopped,
            interrupted,
            coverage,
            errors: panel_errors,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            memo_hits: stats.memo_hits,
            memo_misses: stats.memo_misses,
            elapsed: start.elapsed(),
            threads: stats.threads,
            interner,
        },
    }
}

/// The repository's one indexed walk: `threads` workers claim chunks of
/// `[fragment.next, end)` from a shared cursor and append their records
/// to `fragment`. Worker 0 is the calling thread and records straight
/// into the fragment's vectors, so one thread spawns nothing and moves
/// nothing; helpers' records are appended after the join, unordered
/// until the caller folds them.
///
/// The deadline is checked before every claim and a claimed chunk runs to
/// completion, so the visited set stays the contiguous prefix
/// `[begin, cursor)` that one `next` describes. Members stop by
/// `fetch_min` on their frontier; an item is skippable only when every
/// member is past it, so the walk's horizon is the *maximum* member stop.
fn walk_chunks(
    engine: &PanelEngine<'_>,
    threads: usize,
    fragment: &mut PanelFragment,
    end: usize,
    deadline: Option<Instant>,
) {
    let begin = fragment.next;
    let chunk = ((end - begin) / (threads * 8)).clamp(16, 1024);
    let cursor = AtomicUsize::new(begin);
    let stop_at: Vec<AtomicUsize> = fragment
        .members
        .iter()
        .map(|f| AtomicUsize::new(f.stop_at.unwrap_or(usize::MAX)))
        .collect();
    // An active member's stop is `usize::MAX`, so the maximum is
    // unbounded while any member is active.
    let horizon = || stop_at.iter().map(|s| s.load(Ordering::Relaxed)).max();
    let claim_chunks = |members: &mut [MemberFrontier]| {
        let mut worker = PanelWorker::new(engine.drivers.len(), engine.memo_on);
        while deadline.is_none_or(|d| Instant::now() < d) {
            let claim = chunk;
            #[cfg(conformance_mutants)]
            let claim = if crate::mutants::active("chunk_claim_overlap") {
                chunk - 1
            } else {
                claim
            };
            let start = cursor.fetch_add(claim, Ordering::Relaxed);
            if start >= end || Some(start) > horizon() {
                break;
            }
            if let Some(r) = engine.recorder {
                r.span_enter(&format!("chunk:{start}"));
            }
            for i in start..(start + chunk).min(end) {
                if Some(i) > horizon() {
                    break;
                }
                let active = |m: usize| i <= stop_at[m].load(Ordering::Relaxed);
                let record = |m: usize, r: Result<Option<ErasedPartial>, SweepError>| match r {
                    Ok(Some(p)) => {
                        let check = &engine.checks[m];
                        if check.short_circuits(&p) {
                            stop_at[m].fetch_min(stop_index(i), Ordering::Relaxed);
                        }
                        let partials = &mut members[m].partials;
                        let unfolded = match partials.last_mut() {
                            Some((_, last)) => check.fold_partial(last, p),
                            None => Some(p),
                        };
                        if let Some(p) = unfolded {
                            partials.push((i, p));
                        }
                    }
                    Ok(None) => {}
                    Err(e) => members[m].errors.push(e),
                };
                engine.run_item(&mut worker, i, active, record);
            }
            if let Some(r) = engine.recorder {
                r.span_exit(&format!("chunk:{start}"));
            }
        }
        worker.flush(engine);
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<MemberFrontier> = (0..stop_at.len())
                        .map(|_| MemberFrontier::default())
                        .collect();
                    claim_chunks(&mut local);
                    local
                })
            })
            .collect();
        claim_chunks(&mut fragment.members);
        for helper in helpers {
            // invariant: member panics are caught per item by `run_item`,
            // so a worker can only die of an engine bug — propagate.
            let local = helper.join().expect("panel worker panicked");
            for (mine, theirs) in fragment.members.iter_mut().zip(local) {
                mine.partials.extend(theirs.partials);
                mine.errors.extend(theirs.errors);
            }
        }
    });
    for (member, stop) in fragment.members.iter_mut().zip(&stop_at) {
        let stop = stop.load(Ordering::Relaxed);
        member.stop_at = (stop != usize::MAX).then_some(stop);
    }
    fragment.next = if fragment.members.iter().all(|f| f.stop_at.is_some()) {
        end
    } else {
        cursor.into_inner().min(end)
    };
}
