//! The unified verification engine: one universe sweep behind every
//! property checker.
//!
//! Every certification property this crate checks — completeness,
//! soundness, strong soundness, hiding, erasure robustness, invariance,
//! quantified extractability — is ultimately a statement quantified over
//! labeled instances: *for all / exists (instance, labeling) such that the
//! decoder's node verdicts …*. This module factors that shared shape out of
//! the individual checkers:
//!
//! * [`Universe`] describes the quantification domain as a deterministic,
//!   chunkable stream of labeled instances, carrying its own [`Coverage`]
//!   (exhaustive vs sampled) so downstream verdicts can tell universal
//!   conclusions from mere refutations;
//! * [`PropertyCheck`] is the property: a per-item [`PropertyCheck::inspect`]
//!   plus a [`PropertyCheck::reduce`] fold, with optional short-circuiting;
//! * [`SweepSession`] is the single construction site for every run: one
//!   builder carrying execution mode, strategy options ([`SweepOpts`]),
//!   budget, telemetry recorder and shard, fired with
//!   [`run`](SweepSession::run) / [`run_panel`](SweepSession::run_panel)
//!   on one or more workers ([`ExecMode`]) — with bit-identical verdicts,
//!   witnesses and counts at every worker count, and a shared
//!   [`crate::view::ViewSkeleton`] cache so each node's view is
//!   canonicalized once per block instead of once per labeling
//!   ([`LazySweep`] is the streaming counterpart for iterator sources);
//! * every sweep returns a [`VerificationReport`]: the verdict plus how
//!   many instances were checked, cache hits/misses, wall-clock time and
//!   thread count;
//! * execution is resilient ([`budget`]): a panicking check surfaces as a
//!   structured [`SweepError`] naming the item instead of poisoning the
//!   sweep, a [`SweepBudget`] bounds a call by wall-clock deadline
//!   and/or item count (degrading the report to an explicit
//!   [`Coverage::Sampled`] partial verdict), and a [`PanelFragment`] is
//!   the only continuation:
//!   [`resume_panel_fragment`](SweepSession::resume_panel_fragment)
//!   continues the fragment an interrupted
//!   [`run_panel_fragment`](SweepSession::run_panel_fragment) walked so
//!   far, and [`merge_panel_fragments`] reduces the finished chain into
//!   the uninterrupted report bit-for-bit;
//! * there is one walk, a chunk-claiming loop on any number of workers
//!   ([`SweepSession::run_panel`]), running type-erased
//!   [`DynPropertyCheck`] members; a typed [`SweepSession::run`] is a
//!   one-member panel whose verdict is downcast back to its own type;
//! * work shards across processes ([`shard`]): a [`ShardSpec`] restricts a
//!   session to one of `N` contiguous ranges of the index space,
//!   [`PanelFragment`]s ([`SweepSession::run_panel_fragment`]) carry the
//!   un-reduced walk state, and [`merge_panel_fragments`] recombines them
//!   into the exact single-process report, with [`run_shards`] owning
//!   dispatch and retry;
//! * the hot path is allocation-free: within a chunk, labelings are
//!   enumerated by *odometer stepping* (one digit of the mixed-radix
//!   counter per item, into reused per-thread scratch) rather than per-item
//!   div/mod decoding, and checks exposing a
//!   [`PropertyCheck::verdict_decoder`] get *delta-evaluated* verdicts:
//!   only nodes whose radius-r ball contains the changed digit are
//!   re-decided, with a digit-keyed memo ([`interner`]) short-cutting
//!   repeated local configurations. The decode-from-index oracle survives
//!   as [`SweepStrategy::DecodeOracle`] and the `engine_parity` suite
//!   proves the two paths observationally identical.
//!
//! The concrete properties live where they always did (in
//! [`crate::properties`] and [`crate::nbhd`]); what moved here is the
//! *iteration* — there is no hand-rolled "for each labeling" loop left
//! outside this engine.

pub mod budget;
mod check;
mod erased;
mod executor;
pub mod interner;
mod panel;
pub mod plan;
mod session;
pub mod shard;
mod symmetry;
pub mod telemetry;
pub mod universe;

pub use budget::{MemberFrontier, PanelFragment, SweepBudget, SweepError};
pub use check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
pub use erased::{DynPropertyCheck, ErasedPartial, ErasedVerdict, PanelVerdict, PropertyTag};
pub use executor::{ExecMode, ItemCtx, SweepOpts, SweepStrategy, PARALLEL_THRESHOLD};
pub use interner::{digit_key, InternerReport, ViewId, ViewInterner};
pub use panel::{PanelMemberReport, PanelReport};
pub use plan::{
    AuditMemberReport, AuditPanelReport, AuditPlan, AuditReport, BlockGated, FaultSpec,
    InstanceSet, PanelTelemetry, ALL_PROPERTIES,
};
pub use session::{LazySweep, SweepSession};
pub use shard::{
    merge_panel_fragments, run_shards, sum_stable_counters, ShardRunReport, ShardSpec,
};
pub use symmetry::SymmetrySpec;
pub use telemetry::{MetricsRecorder, MetricsSnapshot, SweepCounter, SweepPhase, SweepRecorder};
pub use universe::{
    Block, Coverage, LabelSource, OwnedItem, Universe, UniverseItem, UniverseOverflow,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::label::Certificate;
    use crate::view::IdMode;
    use hiding_lcp_graph::generators;

    fn bits() -> Vec<Certificate> {
        vec![Certificate::from_byte(0), Certificate::from_byte(1)]
    }

    /// Counts items whose labeling is constant; short-circuits on a marker.
    struct CountConstant {
        stop_on_all_ones: bool,
    }

    impl PropertyCheck for CountConstant {
        type Partial = bool;
        type Verdict = (usize, Option<usize>);

        fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<bool> {
            let n = item.labeling.node_count();
            let constant = (1..n).all(|v| item.labeling.label(v) == item.labeling.label(0));
            let all_ones =
                n > 0 && (0..n).all(|v| item.labeling.label(v) == &Certificate::from_byte(1));
            (constant || all_ones).then_some(all_ones)
        }

        fn short_circuits(&self, partial: &bool) -> bool {
            self.stop_on_all_ones && *partial
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, bool)>,
            _outcome: &SweepOutcome,
        ) -> (usize, Option<usize>) {
            let stop = partials.iter().find(|(_, p)| *p).map(|&(i, _)| i);
            (partials.len(), stop)
        }
    }

    fn small_universe() -> Universe {
        Universe::all_labelings_of(
            Instance::canonical(generators::cycle(5)),
            bits(),
            Coverage::Exhaustive,
        )
        .expect("32 labelings fit")
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let universe = small_universe();
        for check in [
            CountConstant {
                stop_on_all_ones: false,
            },
            CountConstant {
                stop_on_all_ones: true,
            },
        ] {
            let seq = SweepSession::over(&universe)
                .mode(ExecMode::Parallel(1))
                .run(&check);
            let par = SweepSession::over(&universe)
                .mode(ExecMode::Parallel(4))
                .run(&check);
            assert_eq!(seq.verdict, par.verdict);
            assert_eq!(seq.checked, par.checked);
            assert_eq!(seq.short_circuited, par.short_circuited);
            assert_eq!(seq.universe_size, 32);
        }
    }

    #[test]
    fn short_circuit_counts_sequentially() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: true,
        };
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(3))
            .run(&check);
        // All-ones is labeling index 31 (odometer: every digit = 1).
        assert_eq!(report.verdict.1, Some(31));
        assert_eq!(report.checked, 32);
        assert!(report.short_circuited);
    }

    /// A check that requests a cached view config and uses it.
    struct ViewsMatchDirect;

    impl PropertyCheck for ViewsMatchDirect {
        type Partial = ();
        type Verdict = usize;

        fn view_configs(&self) -> Vec<(usize, IdMode)> {
            vec![(1, IdMode::Anonymous)]
        }

        fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<()> {
            for v in 0..item.instance.graph().node_count() {
                let cached = ctx.view(item, v, 1, IdMode::Anonymous);
                let direct = item.instance.view(item.labeling, v, 1, IdMode::Anonymous);
                assert_eq!(cached, direct);
            }
            Some(())
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, ())>,
            _outcome: &SweepOutcome,
        ) -> usize {
            partials.len()
        }
    }

    #[test]
    fn cached_views_equal_direct_extraction() {
        let universe = small_universe();
        let report = SweepSession::over(&universe).run(&ViewsMatchDirect);
        assert_eq!(report.verdict, 32);
        // 5 nodes * 32 labelings stamped from 5 skeletons.
        assert_eq!(report.cache_hits, 160);
        assert_eq!(report.cache_misses, 5);
    }

    #[test]
    fn unbudgeted_sweep_is_exhaustive_and_clean() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .run(&check);
        assert!(!report.interrupted);
        assert!(report.errors.is_empty());
        assert_eq!(report.coverage, Coverage::Exhaustive);
    }

    #[test]
    fn max_items_interrupts_with_a_resume_token() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let session = SweepSession::over(&universe).mode(ExecMode::Parallel(1));
        let budgeted = session.budget(SweepBudget::unlimited().with_max_items(10));
        let first = budgeted.run(&check);
        assert!(first.interrupted);
        assert_eq!(first.checked, 10);
        assert_eq!(first.coverage, Coverage::Sampled);
        // The partial verdict reduces exactly the visited prefix: of items
        // 0..10 only the all-zero labeling is constant.
        assert_eq!(first.verdict, (1, None));
        let members = lone(&check);
        let continuation = budgeted.run_panel_fragment(&members);
        assert!(!continuation.is_complete());
        assert_eq!(continuation.next, 10);
        // Finish with no budget: the chained result matches one
        // uninterrupted sweep exactly.
        let rest = session.resume_panel_fragment(&members, continuation);
        assert!(rest.is_complete());
        let rest = reduce_lone::<(usize, Option<usize>)>(&members, &universe, rest);
        assert!(!rest.interrupted);
        assert_eq!(rest.coverage, Coverage::Exhaustive);
        let full = session.run(&check);
        assert!(!full.interrupted);
        assert_eq!(full.coverage, Coverage::Exhaustive);
        assert_eq!(rest.verdict, full.verdict);
        assert_eq!(rest.checked, full.checked);
    }

    #[test]
    fn resume_chain_is_bit_identical_at_any_granularity() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: true,
        };
        let session = SweepSession::over(&universe).mode(ExecMode::Parallel(1));
        let full = session.run(&check);
        let members = lone(&check);
        for step in [1usize, 3, 7, 32] {
            let stepped = session.budget(SweepBudget::unlimited().with_max_items(step));
            let mut fragment = stepped.run_panel_fragment(&members);
            while !fragment.is_complete() {
                fragment = stepped.resume_panel_fragment(&members, fragment);
            }
            let chained = reduce_lone::<(usize, Option<usize>)>(&members, &universe, fragment);
            assert_eq!(chained.verdict, full.verdict, "step {step}");
            assert_eq!(chained.checked, full.checked, "step {step}");
            assert_eq!(chained.short_circuited, full.short_circuited, "step {step}");
        }
    }

    /// Panics on one specific labeling index, counts the rest.
    struct PanicsAt {
        index: usize,
    }

    impl PropertyCheck for PanicsAt {
        type Partial = ();
        type Verdict = usize;

        fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<()> {
            if item.index == self.index {
                panic!("rigged failure at {}", self.index);
            }
            Some(())
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, ())>,
            _outcome: &SweepOutcome,
        ) -> usize {
            partials.len()
        }
    }

    #[test]
    fn panicking_item_becomes_a_structured_error() {
        let universe = small_universe();
        let check = PanicsAt { index: 13 };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let seq = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .run(&check);
        let par = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(4))
            .run(&check);
        std::panic::set_hook(prev);
        for report in [&seq, &par] {
            assert_eq!(report.verdict, 31, "other items still inspected");
            assert_eq!(report.errors.len(), 1);
            assert_eq!(report.errors[0].item_index, 13);
            assert_eq!(report.errors[0].payload, "rigged failure at 13");
            assert_eq!(
                report.coverage,
                Coverage::Sampled,
                "errored items were not verified"
            );
            assert!(!report.interrupted);
        }
    }

    #[test]
    fn deadline_zero_interrupts_immediately() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let session = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .budget(SweepBudget::unlimited().with_deadline(std::time::Duration::ZERO));
        let report = session.run(&check);
        assert!(report.interrupted);
        assert_eq!(report.checked, 0);
        let token = session.run_panel_fragment(&lone(&check));
        assert!(!token.is_complete());
        assert_eq!(token.next, 0);
        assert!(token.members[0].partials.is_empty());
    }

    /// Records exactly one partial, at a fixed index, and stops there.
    struct StopAtIndex(usize);

    impl PropertyCheck for StopAtIndex {
        type Partial = ();
        type Verdict = Option<usize>;

        fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<()> {
            (item.index == self.0).then_some(())
        }

        fn short_circuits(&self, _partial: &()) -> bool {
            true
        }

        fn reduce(
            &self,
            _universe: &Universe,
            partials: Vec<(usize, ())>,
            _outcome: &SweepOutcome,
        ) -> Option<usize> {
            partials.first().map(|&(i, _)| i)
        }
    }

    /// `check` as the lone member of a panel: the shape in which a single
    /// check shards.
    fn lone<C>(check: &C) -> [DynPropertyCheck<'_>; 1]
    where
        C: PropertyCheck,
        C::Partial: 'static,
        C::Verdict: Send + 'static,
    {
        [DynPropertyCheck::new(PropertyTag::Custom, "lone", check)]
    }

    /// Reduces a complete lone-member fragment into the report the
    /// check's own uninterrupted sweep produces.
    fn reduce_lone<V: std::any::Any>(
        members: &[DynPropertyCheck<'_>],
        universe: &Universe,
        fragment: PanelFragment,
    ) -> VerificationReport<V> {
        merge_panel_fragments(
            members,
            universe,
            ExecMode::Parallel(1),
            vec![fragment],
            None,
        )
        .expect("a complete fragment reduces")
        .into_member_report(0)
    }

    /// The lone member's partials, recovered as the check's own type.
    fn lone_partials<P: Clone + 'static>(fragment: &PanelFragment) -> Vec<(usize, P)> {
        fragment.members[0]
            .partials
            .iter()
            .map(|(i, p)| (*i, p.downcast_ref::<P>().expect("lone partial").clone()))
            .collect()
    }

    #[test]
    fn merged_fragments_equal_the_single_process_sweep() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let session = SweepSession::over(&universe).mode(ExecMode::Parallel(1));
        let full = session.run(&check);
        let members = lone(&check);
        for of in [1usize, 2, 4] {
            let fragments: Vec<_> = ShardSpec::partition(of)
                .into_iter()
                .map(|spec| session.shard(spec).run_panel_fragment(&members))
                .collect();
            let merged =
                merge_panel_fragments(&members, &universe, ExecMode::Parallel(1), fragments, None)
                    .expect("fragments tile the universe")
                    .into_member_report::<(usize, Option<usize>)>(0);
            assert_eq!(merged.verdict, full.verdict, "{of} shards");
            assert_eq!(merged.checked, full.checked, "{of} shards");
            assert_eq!(merged.short_circuited, full.short_circuited);
            assert_eq!(merged.coverage, full.coverage);
        }
    }

    #[test]
    fn short_circuit_frontier_composes_across_shards() {
        let universe = small_universe();
        // Stops inside shard 0; later shards walk their whole ranges and
        // find nothing, and the merge must still report the global stop.
        let check = StopAtIndex(7);
        let session = SweepSession::over(&universe).mode(ExecMode::Parallel(1));
        let full = session.run(&check);
        assert_eq!(full.verdict, Some(7));
        assert_eq!(full.checked, 8);
        let members = lone(&check);
        let fragments: Vec<_> = ShardSpec::partition(4)
            .into_iter()
            .map(|spec| session.shard(spec).run_panel_fragment(&members))
            .collect();
        assert_eq!(fragments[0].members[0].stop_at, Some(7));
        assert!(fragments[1..]
            .iter()
            .all(|f| f.members[0].stop_at.is_none()));
        let merged =
            merge_panel_fragments(&members, &universe, ExecMode::Parallel(1), fragments, None)
                .expect("fragments tile the universe")
                .into_member_report::<Option<usize>>(0);
        assert_eq!(merged.verdict, full.verdict);
        assert_eq!(merged.checked, full.checked);
        assert!(merged.short_circuited);
    }

    #[test]
    fn interrupted_shard_resumes_to_the_uninterrupted_fragment() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let members = lone(&check);
        let session = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .shard(ShardSpec::new(0, 2));
        let whole = session.run_panel_fragment(&members);
        assert!(whole.is_complete());
        // Walk the same range 3 items at a time; the chained fragment
        // must equal the uninterrupted one exactly.
        let stepped = session.budget(SweepBudget::unlimited().with_max_items(3));
        let mut frag = stepped.run_panel_fragment(&members);
        while !frag.is_complete() {
            frag = stepped.resume_panel_fragment(&members, frag);
        }
        assert_eq!(frag.lo, whole.lo);
        assert_eq!(frag.hi, whole.hi);
        assert_eq!(frag.next, whole.next);
        assert_eq!(frag.members[0].stop_at, whole.members[0].stop_at);
        assert_eq!(lone_partials::<bool>(&frag), lone_partials::<bool>(&whole));
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_torn_fragments() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let members = lone(&check);
        let session = SweepSession::over(&universe).mode(ExecMode::Parallel(1));
        let frag_of = |spec: ShardSpec| session.shard(spec).run_panel_fragment(&members);
        let merge = |fragments: Vec<PanelFragment>| {
            merge_panel_fragments(&members, &universe, ExecMode::Parallel(1), fragments, None)
        };
        // Gap: shard 1 of 4 missing.
        let gappy: Vec<_> = [0usize, 2, 3]
            .into_iter()
            .map(|i| frag_of(ShardSpec::new(i, 4)))
            .collect();
        let err = merge(gappy).expect_err("a gap must be rejected");
        assert!(err.contains("gap"), "{err}");
        // Overlap: shard 0 of 2 twice plus shard 1 of 2.
        let doubled = vec![
            frag_of(ShardSpec::new(0, 2)),
            frag_of(ShardSpec::new(0, 2)),
            frag_of(ShardSpec::new(1, 2)),
        ];
        let err = merge(doubled).expect_err("an overlap must be rejected");
        assert!(err.contains("overlap"), "{err}");
        // Torn: shard 0 of 2 interrupted mid-range by a budget.
        let torn = session
            .shard(ShardSpec::new(0, 2))
            .budget(SweepBudget::unlimited().with_max_items(3))
            .run_panel_fragment(&members);
        assert!(!torn.is_complete());
        let err = merge(vec![torn, frag_of(ShardSpec::new(1, 2))])
            .expect_err("a torn fragment must be rejected");
        assert!(err.contains("torn"), "{err}");
    }

    #[test]
    fn sharded_session_run_reports_a_sample_of_the_universe() {
        let universe = small_universe();
        let check = CountConstant {
            stop_on_all_ones: false,
        };
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .shard(ShardSpec::new(0, 2))
            .run(&check);
        // One shard alone is a sample: 16 of 32 items, flagged as such.
        assert_eq!(report.checked, 16);
        assert_eq!(report.universe_size, 32);
        assert!(report.interrupted);
        assert_eq!(report.coverage, Coverage::Sampled);
        // And a budgeted fragment walk ends at the shard boundary.
        let fragment = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .shard(ShardSpec::new(0, 2))
            .budget(SweepBudget::unlimited().with_max_items(16))
            .run_panel_fragment(&lone(&check));
        assert!(
            fragment.is_complete(),
            "a walk that reached the shard's hi is complete"
        );
        assert_eq!(fragment.hi, 16);
    }
}
