//! Property-based parity between the verification engine's parallel
//! executor and its sequential fallback.
//!
//! The executor's contract (see `verify::executor` module docs) is that
//! parallel and sequential sweeps are observationally identical: same
//! verdict, same witness (the lowest-indexed violation), same
//! checked-count, same short-circuit flag. This suite hammers that
//! contract with random decoders over random instance universes, and
//! extends it to the resilience layer: lazy sweeps match flat sweeps,
//! interrupted-and-resumed sweeps match uninterrupted ones, and a
//! panicking item becomes the same structured [`SweepError`] under every
//! execution mode. `cache_hits`/`cache_misses`/`memo_*` are deliberately
//! *not* compared — a parallel short-circuiting sweep may inspect items
//! beyond the final witness, so its cache traffic can legitimately differ.
//!
//! The suite also proves the engine's enumeration strategies equivalent:
//! the odometer/delta-evaluation hot path (`SweepStrategy::DeltaStepping`,
//! with and without digit-key memoization) against the decode-from-index
//! oracle (`SweepStrategy::DecodeOracle`), over exhaustive, mixed-source
//! and multi-block universes, including budgeted resume chains and the
//! full structural identity of Lemma 3.1 neighborhood graphs.
//!
//! The parallel thread count defaults to 3 and can be pinned via the
//! `PARITY_THREADS` environment variable (the CI matrix runs 1, 2 and 4).
//!
//! [`SweepError`]: hiding_lcp_core::verify::SweepError

use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::nbhd::NbhdGraph;
use hiding_lcp_core::properties::hiding::HidingCheck;
use hiding_lcp_core::properties::soundness::{SoundnessCheck, SoundnessViolation};
use hiding_lcp_core::properties::strong::{StrongCheck, StrongViolation};
use hiding_lcp_core::prover::all_labelings;
use hiding_lcp_core::verify::{
    merge_panel_fragments, Block, Coverage, DynPropertyCheck, ExecMode, ItemCtx, LabelSource,
    LazySweep, PropertyCheck, PropertyTag, ShardSpec, SweepBudget, SweepOpts, SweepOutcome,
    SweepSession, Universe, UniverseItem, VerificationReport,
};
use hiding_lcp_core::view::IdMode;
use hiding_lcp_graph::algo::bipartite;
use proptest::prelude::*;

fn bits() -> Vec<Certificate> {
    vec![Certificate::from_byte(0), Certificate::from_byte(1)]
}

/// Thread count for the parallel side of every parity assertion. The CI
/// matrix sets `PARITY_THREADS` to 1, 2 and 4; locally it defaults to 3.
fn parity_threads() -> usize {
    std::env::var("PARITY_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(3)
}

fn cycle_or_path(shape: u8, n: usize) -> Instance {
    if shape.is_multiple_of(2) {
        Instance::canonical(hiding_lcp_graph::generators::cycle(n))
    } else {
        Instance::canonical(hiding_lcp_graph::generators::path(n))
    }
}

/// Walks `check` as a one-member fragment under `session`'s budget,
/// resumes it until it is complete and reduces the chain with
/// [`merge_panel_fragments`]: one uninterrupted run's report, reached in
/// budget-sized slices.
fn resume_to_completion<C>(
    session: SweepSession<'_>,
    universe: &Universe,
    check: &C,
) -> Result<VerificationReport<C::Verdict>, TestCaseError>
where
    C: PropertyCheck,
    C::Partial: 'static,
    C::Verdict: Send + 'static,
{
    let members = [DynPropertyCheck::new(PropertyTag::Custom, "", check)];
    let mut fragment = session.run_panel_fragment(&members);
    let mut slices = 1usize;
    while !fragment.is_complete() {
        fragment = session.resume_panel_fragment(&members, fragment);
        slices += 1;
        prop_assert!(slices <= universe.len() + 2, "resume chain must terminate");
    }
    let merged = merge_panel_fragments(
        &members,
        universe,
        ExecMode::Parallel(1),
        vec![fragment],
        None,
    )
    .expect("a complete chain tiles the universe");
    Ok(merged.into_member_report(0))
}

/// Runs `check` both ways and asserts the reports agree observationally.
fn assert_parity<C>(check: &C, universe: &Universe) -> Result<(), TestCaseError>
where
    C: PropertyCheck,
    C::Partial: 'static,
    C::Verdict: PartialEq + std::fmt::Debug + Send + 'static,
{
    let seq = SweepSession::over(universe)
        .mode(ExecMode::Parallel(1))
        .run(check);
    let par = SweepSession::over(universe)
        .mode(ExecMode::Parallel(parity_threads()))
        .run(check);
    prop_assert_eq!(&seq.verdict, &par.verdict);
    prop_assert_eq!(seq.checked, par.checked);
    prop_assert_eq!(seq.universe_size, par.universe_size);
    prop_assert_eq!(seq.short_circuited, par.short_circuited);
    Ok(())
}

/// Runs `check` under two option sets (sequentially and in parallel) and
/// asserts the four observational report fields agree across all runs.
/// Counters (`cache_*`, `memo_*`) are exactly what the options are allowed
/// to change, so they are not compared.
fn assert_opts_parity<C>(
    check: &C,
    universe: &Universe,
    a: SweepOpts,
    b: SweepOpts,
) -> Result<(), TestCaseError>
where
    C: PropertyCheck,
    C::Partial: 'static,
    C::Verdict: PartialEq + std::fmt::Debug + Send + 'static,
{
    let reference = SweepSession::over(universe)
        .mode(ExecMode::Parallel(1))
        .opts(a)
        .run(check);
    for (mode, opts) in [
        (ExecMode::Parallel(1), b),
        (ExecMode::Parallel(parity_threads()), a),
        (ExecMode::Parallel(parity_threads()), b),
    ] {
        let other = SweepSession::over(universe)
            .mode(mode)
            .opts(opts)
            .run(check);
        prop_assert_eq!(&reference.verdict, &other.verdict);
        prop_assert_eq!(reference.checked, other.checked);
        prop_assert_eq!(reference.universe_size, other.universe_size);
        prop_assert_eq!(reference.short_circuited, other.short_circuited);
    }
    Ok(())
}

/// A universe mixing every [`LabelSource`] shape: exhaustive labelings of
/// a cycle (odometer + delta path), a fixed labeling batch of a path
/// (plain-inspect path), and one unlabeled instance.
fn mixed_universe(n: usize) -> Universe {
    let cycle = Instance::canonical(hiding_lcp_graph::generators::cycle(n));
    let path = Instance::canonical(hiding_lcp_graph::generators::path(n));
    let fixed = vec![
        Labeling::uniform(n, Certificate::from_byte(1)),
        Labeling::uniform(n, Certificate::from_byte(0)),
    ];
    let blocks = vec![
        Block::new(cycle, LabelSource::All { alphabet: bits() }),
        Block::new(path.clone(), LabelSource::Fixed(fixed)),
        Block::new(path, LabelSource::Unlabeled),
    ];
    Universe::new(blocks, Coverage::Sampled).expect("small universe fits")
}

/// Structural equality of two neighborhood graphs — `NbhdGraph` has no
/// `PartialEq`, so compare every observable: views (in insertion order),
/// adjacency, self-loops and all witnesses.
fn assert_nbhd_eq(a: &NbhdGraph, b: &NbhdGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.view_count(), b.view_count());
    prop_assert_eq!(a.views(), b.views());
    prop_assert_eq!(a.edge_count(), b.edge_count());
    prop_assert_eq!(a.self_loop_views(), b.self_loop_views());
    prop_assert_eq!(a.instances().len(), b.instances().len());
    for i in 0..a.view_count() {
        prop_assert_eq!(a.view_witness(i), b.view_witness(i));
        let na: Vec<usize> = a.neighbors(i).collect();
        let nb: Vec<usize> = b.neighbors(i).collect();
        prop_assert_eq!(&na, &nb);
        for &j in &na {
            prop_assert_eq!(a.edge_witness(i, j), b.edge_witness(i, j));
        }
        prop_assert_eq!(a.self_loop_witness(i), b.self_loop_witness(i));
    }
    Ok(())
}

/// A universe of whole-cycle blocks (odd cycles included, so the hiding
/// sweep's yes-filter drops some blocks entirely).
fn cycle_blocks_universe(max_n: usize) -> Universe {
    let blocks = (3..=max_n)
        .map(|m| {
            Block::new(
                Instance::canonical(hiding_lcp_graph::generators::cycle(m)),
                LabelSource::All { alphabet: bits() },
            )
        })
        .collect();
    Universe::new(blocks, Coverage::Sampled).expect("small universe fits")
}

/// Wraps a check so that inspecting item `panic_index` panics — the test
/// double for a decoder crashing mid-sweep.
struct PanicOn<'a, C> {
    inner: &'a C,
    panic_index: usize,
}

impl<C: PropertyCheck> PropertyCheck for PanicOn<'_, C> {
    type Partial = C::Partial;
    type Verdict = C::Verdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.inner.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Self::Partial> {
        assert!(
            item.index != self.panic_index,
            "rigged panic at {}",
            self.panic_index
        );
        self.inner.inspect(item, ctx)
    }

    fn short_circuits(&self, partial: &Self::Partial) -> bool {
        self.inner.short_circuits(partial)
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, Self::Partial)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict {
        self.inner.reduce(universe, partials, outcome)
    }
}

/// Swaps in a silent panic hook around `f` so expected panics don't spam
/// the test output.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn soundness_sweeps_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_parity(&check, &universe)?;
    }

    #[test]
    fn strong_sweeps_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = StrongCheck { decoder: &decoder, language: &two_col };
        assert_parity(&check, &universe)?;
    }

    #[test]
    fn multi_block_sweeps_agree(code in 0u8..64, n in 3usize..6) {
        // Universes spanning several blocks exercise the chunked
        // work-stealing across block boundaries.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let blocks = (3..=n + 1)
            .map(|m| {
                hiding_lcp_core::verify::Block::new(
                    Instance::canonical(hiding_lcp_graph::generators::cycle(m)),
                    hiding_lcp_core::verify::LabelSource::All { alphabet: bits() },
                )
            })
            .collect();
        let universe = Universe::new(blocks, Coverage::Sampled).expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_parity(&check, &universe)?;
    }

    #[test]
    fn lazy_and_flat_sweeps_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        // `LazySweep` over the mixed-radix enumeration must match a
        // session sweep of the flat universe: same verdict, same witness,
        // same checked count, same short-circuit flag.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance.clone(), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        let flat = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .run(&check);
        let alphabet = bits();
        let lazy = LazySweep::of(&instance, Coverage::Exhaustive).run(
            &check,
            all_labelings(instance.graph().node_count(), &alphabet),
        );
        prop_assert_eq!(&flat.verdict, &lazy.verdict);
        prop_assert_eq!(flat.checked, lazy.checked);
        prop_assert_eq!(flat.short_circuited, lazy.short_circuited);
        prop_assert_eq!(flat.coverage, lazy.coverage);
    }

    #[test]
    fn resume_token_round_trip_reproduces_uninterrupted_report(
        code in 0u8..64, shape in 0u8..2, n in 3usize..7, step in 1usize..12,
    ) {
        // Chop the sweep into `step`-item budget slices (run in parallel
        // mode), chaining each slice's continuation fragment into the next; the final
        // report must be indistinguishable from one uninterrupted
        // sequential sweep.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        let full = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .run(&check);

        let mode = ExecMode::Parallel(parity_threads());
        let budget = SweepBudget::unlimited().with_max_items(step);
        let session = SweepSession::over(&universe).mode(mode).budget(budget);
        let resumed = resume_to_completion(session, &universe, &check)?;
        prop_assert_eq!(&full.verdict, &resumed.verdict);
        prop_assert_eq!(full.checked, resumed.checked);
        prop_assert_eq!(full.universe_size, resumed.universe_size);
        prop_assert_eq!(full.short_circuited, resumed.short_circuited);
        prop_assert_eq!(full.coverage, resumed.coverage);
        prop_assert!(!resumed.interrupted);
        prop_assert!(resumed.errors.is_empty());
    }

    #[test]
    fn panicking_item_yields_the_same_error_in_every_mode(
        panic_index in 0usize..32, threads in 1usize..5,
    ) {
        // A decoder blowing up mid-sweep must surface as a structured
        // SweepError naming the offending item — identically under
        // sequential and 1..4-thread parallel execution, with the verdict
        // computed from the surviving items agreeing across modes. Code 0
        // rejects every view, so the sweep never short-circuits and every
        // mode is guaranteed to reach the rigged item.
        let decoder = PortObliviousCycleDecoder::from_code(0);
        let instance = Instance::canonical(hiding_lcp_graph::generators::cycle(5));
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let inner = SoundnessCheck { decoder: &decoder };
        let check = PanicOn { inner: &inner, panic_index };

        let (seq, par) = quietly(|| {
            (
                SweepSession::over(&universe)
                    .mode(ExecMode::Parallel(1))
                    .run(&check),
                SweepSession::over(&universe)
                    .mode(ExecMode::Parallel(threads))
                    .run(&check),
            )
        });
        for report in [&seq, &par] {
            prop_assert_eq!(report.errors.len(), 1);
            prop_assert_eq!(report.errors[0].item_index, panic_index);
            prop_assert!(report.errors[0].payload.contains("rigged panic"));
            // A sweep that lost an item cannot claim exhaustiveness.
            prop_assert_eq!(report.coverage, Coverage::Sampled);
        }
        prop_assert_eq!(&seq.verdict, &par.verdict);
        prop_assert_eq!(seq.checked, par.checked);
        prop_assert_eq!(seq.short_circuited, par.short_circuited);
    }

    #[test]
    fn delta_and_oracle_strategies_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        // The odometer/delta-evaluation hot path must be byte-identical to
        // the decode-from-index oracle — for a short-circuiting check
        // (soundness) and a full-scan one (strong soundness), sequentially
        // and in parallel.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_opts_parity(&check, &universe, SweepOpts::default(), SweepOpts::oracle())?;
        let two_col = KCol::new(2);
        let strong = StrongCheck { decoder: &decoder, language: &two_col };
        assert_opts_parity(&strong, &universe, SweepOpts::default(), SweepOpts::oracle())?;
    }

    #[test]
    fn mixed_label_sources_agree_across_strategies(code in 0u8..64, n in 3usize..7) {
        // All/Fixed/Unlabeled blocks in one universe: the walker resyncs
        // at block boundaries and the verdict fast path applies only to
        // the All block — every combination must match the oracle.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = mixed_universe(n);
        let check = SoundnessCheck { decoder: &decoder };
        assert_opts_parity(&check, &universe, SweepOpts::default(), SweepOpts::oracle())?;
    }

    #[test]
    fn memoized_and_unmemoized_sweeps_agree(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        // Disabling the digit-key memo layers may only change counters,
        // never verdicts.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        let memo_off = SweepOpts { memo: false, ..SweepOpts::default() };
        assert_opts_parity(&check, &universe, SweepOpts::default(), memo_off)?;
    }

    #[test]
    fn nbhd_graph_is_identical_across_strategies_memo_and_threads(
        code in 0u8..64, n in 4usize..7,
    ) {
        // The Lemma 3.1 graph — views in insertion order, adjacency,
        // self-loops, every witness — must not depend on enumeration
        // strategy, memoization, or thread count. The interner is part of
        // the check's state, so each sweep gets a fresh check instance.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = cycle_blocks_universe(n);
        let run = |mode: ExecMode, opts: SweepOpts| {
            let check = HidingCheck::new(&decoder, &universe, 2, bipartite::is_bipartite);
            SweepSession::over(&universe).mode(mode).opts(opts).run(&check)
        };
        let reference = run(ExecMode::Parallel(1), SweepOpts::oracle());
        let (ref_nbhd, ref_verdict) = &reference.verdict;
        let memo_off = SweepOpts { memo: false, ..SweepOpts::default() };
        for (mode, opts) in [
            (ExecMode::Parallel(1), SweepOpts::default()),
            (ExecMode::Parallel(parity_threads()), SweepOpts::default()),
            (ExecMode::Parallel(parity_threads()), memo_off),
        ] {
            let other = run(mode, opts);
            assert_nbhd_eq(ref_nbhd, &other.verdict.0)?;
            prop_assert_eq!(ref_verdict, &other.verdict.1);
            prop_assert_eq!(reference.checked, other.checked);
            prop_assert_eq!(reference.universe_size, other.universe_size);
        }
    }

    #[test]
    fn budgeted_delta_resume_chain_matches_oracle(
        code in 0u8..64, shape in 0u8..2, n in 3usize..7, step in 1usize..12,
    ) {
        // A delta-stepping sweep chopped into budget slices and resumed
        // must reproduce the uninterrupted *oracle* sweep — continuations
        // are strategy-agnostic.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        let oracle = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .opts(SweepOpts::oracle())
            .run(&check);

        let mode = ExecMode::Parallel(parity_threads());
        let budget = SweepBudget::unlimited().with_max_items(step);
        let session = SweepSession::over(&universe)
            .mode(mode)
            .budget(budget)
            .opts(SweepOpts::default());
        let resumed = resume_to_completion(session, &universe, &check)?;
        prop_assert_eq!(&oracle.verdict, &resumed.verdict);
        prop_assert_eq!(oracle.checked, resumed.checked);
        prop_assert_eq!(oracle.universe_size, resumed.universe_size);
        prop_assert_eq!(oracle.short_circuited, resumed.short_circuited);
        prop_assert_eq!(oracle.coverage, resumed.coverage);
        prop_assert!(!resumed.interrupted);
    }

    #[test]
    fn fused_panel_matches_single_member_sweeps(code in 0u8..64, shape in 0u8..2, n in 3usize..7) {
        // A fused panel is observationally the overlay of its members'
        // own sweeps: per member, parallel matches sequential, and the
        // member-level `checked` equals what that check's single-check
        // sequential sweep reports — a member stopped at item `s` counts
        // `s + 1` no matter how far the shared walk carried the others.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let soundness = SoundnessCheck { decoder: &decoder };
        let strong = StrongCheck { decoder: &decoder, language: &two_col };
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", SoundnessCheck {
                decoder: &decoder,
            })
            .with_channel(&decoder),
            DynPropertyCheck::new(PropertyTag::Strong, "strong", StrongCheck {
                decoder: &decoder,
                language: &two_col,
            })
            .with_channel(&decoder),
        ];
        let seq = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .run_panel(&members);
        let par = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(parity_threads()))
            .run_panel(&members);
        prop_assert_eq!(seq.evidence.checked, par.evidence.checked);
        prop_assert_eq!(seq.evidence.short_circuited, par.evidence.short_circuited);
        for (a, b) in seq.members.iter().zip(&par.members) {
            prop_assert_eq!(a.checked, b.checked);
            prop_assert_eq!(a.short_circuited, b.short_circuited);
            prop_assert_eq!(a.verdict.passed, b.verdict.passed);
            prop_assert_eq!(&a.verdict.detail, &b.verdict.detail);
        }

        let solo = SweepSession::over(&universe).mode(ExecMode::Parallel(1));
        let solo_soundness = solo.run(&soundness);
        let solo_strong = solo.run(&strong);
        prop_assert_eq!(seq.members[0].checked, solo_soundness.checked);
        prop_assert_eq!(seq.members[0].short_circuited, solo_soundness.short_circuited);
        prop_assert_eq!(
            seq.members[0].verdict.get::<Result<usize, SoundnessViolation>>().unwrap(),
            &solo_soundness.verdict
        );
        prop_assert_eq!(seq.members[1].checked, solo_strong.checked);
        prop_assert_eq!(seq.members[1].short_circuited, solo_strong.short_circuited);
        prop_assert_eq!(
            seq.members[1].verdict.get::<Result<usize, StrongViolation>>().unwrap(),
            &solo_strong.verdict
        );
        // The shared walk reaches exactly as far as the laggard member.
        prop_assert_eq!(
            seq.evidence.checked,
            solo_soundness.checked.max(solo_strong.checked)
        );
    }

    #[test]
    fn interrupted_shard_resume_matches_uninterrupted(
        code in 0u8..64, shape in 0u8..2, n in 3usize..6, step in 1usize..9, shards in 2usize..5,
    ) {
        // Shard the universe, run every shard as a budget-sliced resume
        // chain (each slice capped at `step` items), and merge: the panel
        // report must match an uninterrupted single-session run member for
        // member. Interruption points and shard boundaries are both
        // invisible in the merged output.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let instance = cycle_or_path(shape, n);
        let universe = Universe::all_labelings_of(instance, bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", SoundnessCheck {
                decoder: &decoder,
            })
            .with_channel(&decoder),
            DynPropertyCheck::new(PropertyTag::Strong, "strong", StrongCheck {
                decoder: &decoder,
                language: &two_col,
            })
            .with_channel(&decoder),
        ];
        let full = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .run_panel(&members);

        let budget = SweepBudget::unlimited().with_max_items(step);
        let mut fragments = Vec::new();
        for spec in ShardSpec::partition(shards) {
            let session = SweepSession::over(&universe)
                .mode(ExecMode::Parallel(1))
                .budget(budget)
                .shard(spec);
            let mut frag = session.run_panel_fragment(&members);
            let mut slices = 1usize;
            while !frag.is_complete() {
                frag = session.resume_panel_fragment(&members, frag);
                slices += 1;
                prop_assert!(slices <= universe.len() + 2, "resume chain must terminate");
            }
            fragments.push(frag);
        }
        let merged =
            merge_panel_fragments(&members, &universe, ExecMode::Parallel(1), fragments, None)
                .expect("complete shard fragments tile the universe");

        prop_assert_eq!(full.evidence.checked, merged.evidence.checked);
        prop_assert_eq!(full.evidence.short_circuited, merged.evidence.short_circuited);
        for (a, b) in full.members.iter().zip(&merged.members) {
            prop_assert_eq!(a.checked, b.checked);
            prop_assert_eq!(a.short_circuited, b.short_circuited);
            prop_assert_eq!(a.verdict.passed, b.verdict.passed);
            prop_assert_eq!(&a.verdict.detail, &b.verdict.detail);
        }
    }

    #[test]
    fn interrupted_run_continuation_is_a_mergeable_fragment(
        code in 0u8..64, n in 3usize..8, step in 5usize..40,
    ) {
        // A budget-interrupted fragment walk is the continuation of the
        // interrupted run under the same budget: finishing it with
        // `resume_panel_fragment` and merging it alone must reproduce the
        // uninterrupted panel, at every execution mode and strategy. The
        // symmetric cycle makes the quotient bite, and n = 7 (128 items)
        // crosses the parallel threshold.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let universe =
            Universe::all_labelings_of(symmetric_cycle(n), bits(), Coverage::Exhaustive)
                .expect("small universe fits");
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", SoundnessCheck {
                decoder: &decoder,
            })
            .with_channel(&decoder),
            DynPropertyCheck::new(PropertyTag::Strong, "strong", StrongCheck {
                decoder: &decoder,
                language: &two_col,
            })
            .with_channel(&decoder),
        ];
        let modes = [
            ExecMode::Parallel(1),
            ExecMode::Parallel(parity_threads()),
            ExecMode::Auto,
        ];
        for opts in [SweepOpts::default(), SweepOpts::oracle(), SweepOpts::quotient()] {
            for mode in modes {
                let session = SweepSession::over(&universe).mode(mode).opts(opts);
                let full = session.run_panel(&members);
                let stepped = session.budget(SweepBudget::unlimited().with_max_items(step));
                let first = stepped.run_panel(&members);
                let mut frag = stepped.run_panel_fragment(&members);
                if frag.is_complete() {
                    // The first slice decided the panel: nothing to continue.
                    prop_assert!(!first.evidence.interrupted);
                    prop_assert_eq!(first.evidence.checked, full.evidence.checked);
                    continue;
                }
                prop_assert!(first.evidence.interrupted);
                prop_assert_eq!(first.evidence.checked, frag.next);
                prop_assert_eq!((frag.lo, frag.hi, frag.next), (0, universe.len(), step));
                let mut slices = 1usize;
                while !frag.is_complete() {
                    frag = stepped.resume_panel_fragment(&members, frag);
                    slices += 1;
                    prop_assert!(slices <= universe.len() + 2, "resume chain must terminate");
                }
                let merged = merge_panel_fragments(&members, &universe, mode, vec![frag], None)
                    .expect("a complete continuation tiles the universe");
                prop_assert_eq!(full.evidence.checked, merged.evidence.checked);
                prop_assert_eq!(full.evidence.short_circuited, merged.evidence.short_circuited);
                prop_assert_eq!(full.evidence.interrupted, merged.evidence.interrupted);
                prop_assert_eq!(full.evidence.coverage, merged.evidence.coverage);
                for (a, b) in full.members.iter().zip(&merged.members) {
                    prop_assert_eq!(a.checked, b.checked);
                    prop_assert_eq!(a.short_circuited, b.short_circuited);
                    prop_assert_eq!(a.coverage, b.coverage);
                    prop_assert_eq!(a.verdict.passed, b.verdict.passed);
                    prop_assert_eq!(&a.verdict.detail, &b.verdict.detail);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Symmetry-quotient strategy: orbit enumeration with multiplicity-weighted
// verdicts must be observationally identical to the full walk.
// ---------------------------------------------------------------------------

use hiding_lcp_core::verify::SymmetrySpec;

/// A cycle instance under the rotation-symmetric port assignment, where
/// the quotient actually bites (canonical ports leave only the identity).
fn symmetric_cycle(n: usize) -> Instance {
    let g = hiding_lcp_graph::generators::cycle(n);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
        .expect("symmetric cycle ports are valid")
}

/// Records every inspected item's orbit multiplicity. Declares port
/// automorphisms plus (optionally) a full-alphabet certificate class, so a
/// quotient sweep visits exactly one representative per orbit.
struct MultiplicityRecorder {
    classes: Option<Vec<usize>>,
}

impl PropertyCheck for MultiplicityRecorder {
    type Partial = u64;
    type Verdict = Vec<(usize, u64)>;

    fn inspect(&self, _item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
        Some(ctx.multiplicity())
    }

    fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        Some(SymmetrySpec {
            automorphisms: true,
            alphabet_classes: self.classes.clone(),
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, u64)>,
        _outcome: &SweepOutcome,
    ) -> Self::Verdict {
        partials
    }
}

/// All permutations of `0..k`.
fn perms(k: usize) -> Vec<Vec<usize>> {
    fn rec(pool: Vec<usize>) -> Vec<Vec<usize>> {
        if pool.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (i, &x) in pool.iter().enumerate() {
            let mut rest = pool.clone();
            rest.remove(i);
            for mut tail in rec(rest) {
                tail.insert(0, x);
                out.push(tail);
            }
        }
        out
    }
    rec((0..k).collect())
}

/// A mixed-source universe whose `All` block carries symmetric ports, so
/// the quotient engages on exactly one of the three blocks.
fn mixed_symmetric_universe(n: usize) -> Universe {
    let path = Instance::canonical(hiding_lcp_graph::generators::path(n));
    let fixed = vec![
        Labeling::uniform(n, Certificate::from_byte(1)),
        Labeling::uniform(n, Certificate::from_byte(0)),
    ];
    let blocks = vec![
        Block::new(symmetric_cycle(n), LabelSource::All { alphabet: bits() }),
        Block::new(path.clone(), LabelSource::Fixed(fixed)),
        Block::new(path, LabelSource::Unlabeled),
    ];
    Universe::new(blocks, Coverage::Sampled).expect("small universe fits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quotient_orbits_partition_the_universe(n in 3usize..7, k in 2usize..4) {
        // The representatives a quotient sweep visits must partition the
        // full labeling space: orbit multiplicities sum to |Sigma|^n, every
        // representative is its orbit's flat-index minimum, and no two
        // representatives share an orbit. The group is recomputed here from
        // first principles (port automorphisms x alphabet permutations).
        let g = hiding_lcp_graph::generators::cycle(n);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let auts = hiding_lcp_graph::algo::automorphism::port_automorphisms(&g, &ports, 1 << 12)
            .expect("cycle group is tiny");
        let instance = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
            .expect("symmetric cycle ports are valid");
        let alphabet: Vec<Certificate> = (0..k as u8).map(Certificate::from_byte).collect();
        let universe = Universe::all_labelings_of(instance, alphabet, Coverage::Exhaustive)
            .expect("small universe fits");
        let check = MultiplicityRecorder { classes: Some(vec![0; k]) };
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .opts(SweepOpts::quotient())
            .run(&check);
        prop_assert_eq!(report.checked, universe.len());
        let reps = report.verdict;

        let total: u64 = reps.iter().map(|&(_, m)| m).sum();
        prop_assert_eq!(total, (k as u64).pow(n as u32), "multiplicities sum to |Sigma|^n");
        prop_assert!(reps.len() < universe.len(), "quotient visits strictly fewer items");

        let sigmas = perms(k);
        let digits_of = |mut idx: usize| -> Vec<usize> {
            (0..n).map(|_| { let d = idx % k; idx /= k; d }).collect()
        };
        let index_of = |digits: &[usize]| -> usize {
            digits.iter().rev().fold(0usize, |acc, &d| acc * k + d)
        };
        let mut covered = vec![false; universe.len()];
        for &(rep, mult) in &reps {
            let d = digits_of(rep);
            let mut orbit = std::collections::BTreeSet::new();
            for pi in &auts {
                let mut pinv = vec![0usize; n];
                for (v, &img) in pi.iter().enumerate() {
                    pinv[img] = v;
                }
                for sigma in &sigmas {
                    let image: Vec<usize> = (0..n).map(|v| sigma[d[pinv[v]]]).collect();
                    orbit.insert(index_of(&image));
                }
            }
            prop_assert_eq!(*orbit.iter().next().expect("orbit nonempty"), rep,
                "representative is the orbit minimum");
            prop_assert_eq!(orbit.len() as u64, mult, "multiplicity equals the orbit size");
            for &member in &orbit {
                prop_assert!(!covered[member], "two representatives share an orbit");
                covered[member] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "orbits cover the universe");
    }

    #[test]
    fn quotient_delta_and_oracle_strategies_agree(code in 0u8..64, n in 3usize..7) {
        // Quotient vs delta-stepping vs decode oracle, sequential and
        // parallel: same verdict, same witness, same checked count — for a
        // short-circuiting check (soundness) and a full-scan one (strong).
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = Universe::all_labelings_of(symmetric_cycle(n), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let check = SoundnessCheck { decoder: &decoder };
        assert_opts_parity(&check, &universe, SweepOpts::default(), SweepOpts::quotient())?;
        assert_opts_parity(&check, &universe, SweepOpts::oracle(), SweepOpts::quotient())?;
        let two_col = KCol::new(2);
        let strong = StrongCheck { decoder: &decoder, language: &two_col };
        assert_opts_parity(&strong, &universe, SweepOpts::default(), SweepOpts::quotient())?;
        assert_opts_parity(&strong, &universe, SweepOpts::oracle(), SweepOpts::quotient())?;
    }

    #[test]
    fn quotient_on_mixed_label_sources_agrees(code in 0u8..64, n in 3usize..7) {
        // All/Fixed/Unlabeled blocks in one universe: the quotient engages
        // on the All block only; Fixed and Unlabeled items pass through
        // with multiplicity one.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let universe = mixed_symmetric_universe(n);
        let check = SoundnessCheck { decoder: &decoder };
        assert_opts_parity(&check, &universe, SweepOpts::default(), SweepOpts::quotient())?;
    }

    #[test]
    fn quotient_nbhd_graph_preserves_views_edges_and_loops(code in 0u8..64, n in 4usize..7) {
        // The neighborhood scan declares automorphism symmetry only (no
        // alphabet classes); a quotient sweep must reproduce the exact view
        // list (insertion order included), adjacency and self-loops. Only
        // the retained-instance list may shrink — witnesses are therefore
        // not compared.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let blocks = (3..=n)
            .map(|m| Block::new(symmetric_cycle(m), LabelSource::All { alphabet: bits() }))
            .collect();
        let universe = Universe::new(blocks, Coverage::Sampled).expect("small universe fits");
        let run = |opts: SweepOpts| {
            let check = HidingCheck::new(&decoder, &universe, 2, bipartite::is_bipartite);
            SweepSession::over(&universe)
                .mode(ExecMode::Parallel(1))
                .opts(opts)
                .run(&check)
        };
        let full = run(SweepOpts::default());
        let quot = run(SweepOpts::quotient());
        let (full_nbhd, full_verdict) = &full.verdict;
        let (quot_nbhd, quot_verdict) = &quot.verdict;
        prop_assert_eq!(full_verdict, quot_verdict);
        prop_assert_eq!(full_nbhd.view_count(), quot_nbhd.view_count());
        prop_assert_eq!(full_nbhd.views(), quot_nbhd.views());
        prop_assert_eq!(full_nbhd.edge_count(), quot_nbhd.edge_count());
        prop_assert_eq!(full_nbhd.self_loop_views(), quot_nbhd.self_loop_views());
        for i in 0..full_nbhd.view_count() {
            let a: Vec<usize> = full_nbhd.neighbors(i).collect();
            let b: Vec<usize> = quot_nbhd.neighbors(i).collect();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(full.checked, quot.checked);
    }

    #[test]
    fn quotient_panel_matches_delta_panel(code in 0u8..64, n in 3usize..7) {
        // A fused panel under the quotient strategy filters canonicity per
        // member; every member must report exactly what it reports under
        // the full walk, in both execution modes.
        let decoder = PortObliviousCycleDecoder::from_code(code);
        let two_col = KCol::new(2);
        let universe = Universe::all_labelings_of(symmetric_cycle(n), bits(), Coverage::Exhaustive)
            .expect("small universe fits");
        let members = [
            DynPropertyCheck::new(PropertyTag::Soundness, "soundness", SoundnessCheck {
                decoder: &decoder,
            })
            .with_channel(&decoder),
            DynPropertyCheck::new(PropertyTag::Strong, "strong", StrongCheck {
                decoder: &decoder,
                language: &two_col,
            })
            .with_channel(&decoder),
        ];
        let reference = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .opts(SweepOpts::default())
            .run_panel(&members);
        for mode in [ExecMode::Parallel(1), ExecMode::Parallel(parity_threads())] {
            let quotient = SweepSession::over(&universe)
                .mode(mode)
                .opts(SweepOpts::quotient())
                .run_panel(&members);
            prop_assert_eq!(reference.evidence.checked, quotient.evidence.checked);
            prop_assert_eq!(
                reference.evidence.short_circuited,
                quotient.evidence.short_circuited
            );
            for (a, b) in reference.members.iter().zip(&quotient.members) {
                prop_assert_eq!(a.checked, b.checked);
                prop_assert_eq!(a.short_circuited, b.short_circuited);
                prop_assert_eq!(
                    a.verdict.get::<Result<usize, SoundnessViolation>>(),
                    b.verdict.get::<Result<usize, SoundnessViolation>>()
                );
                prop_assert_eq!(
                    a.verdict.get::<Result<usize, StrongViolation>>(),
                    b.verdict.get::<Result<usize, StrongViolation>>()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-shard budget semantics: each shard's calls draw on their own
// allowance (documented on `SweepBudget`).
// ---------------------------------------------------------------------------

/// Counts visited items and never short-circuits — the per-shard budget
/// test needs a walk whose length is exactly the budget's allowance.
struct CountItems;

impl PropertyCheck for CountItems {
    type Partial = usize;
    type Verdict = usize;

    fn inspect(&self, _item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<usize> {
        Some(1)
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, usize)>,
        _outcome: &SweepOutcome,
    ) -> usize {
        partials.len()
    }
}

#[test]
fn budget_max_items_is_per_shard() {
    // With `max_items = m` and `N` shards, one budgeted pass over every
    // shard visits `N * m` items — there is no cross-shard accounting —
    // and a shard's resume chain stays strictly inside `[lo, hi)` until
    // it completes the shard's full span.
    let universe = Universe::all_labelings_of(cycle_or_path(0, 4), bits(), Coverage::Exhaustive)
        .expect("small universe fits");
    let m = 3usize;
    let shards = 2usize;
    let budget = SweepBudget::unlimited().with_max_items(m);
    let members = [DynPropertyCheck::new(PropertyTag::Custom, "", CountItems)];
    let mut first_pass_total = 0usize;
    let mut fragments = Vec::new();
    for spec in ShardSpec::partition(shards) {
        let session = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .budget(budget)
            .shard(spec);
        let (lo, hi) = session.range();
        assert!(hi - lo > m, "shard span must exceed the allowance");
        let first = session.run(&CountItems);
        // `checked` is the walk frontier (it includes the shard's skipped
        // prefix `[0, lo)`); the CountItems verdict counts actual visits.
        assert_eq!(first.verdict, m, "first slice visits exactly m items");
        assert_eq!(first.checked, lo + m, "frontier advances by m from lo");
        first_pass_total += first.verdict;
        let mut frag = session.run_panel_fragment(&members);
        assert_eq!(
            frag.next,
            lo + m,
            "the fragment walk stops where the run did"
        );
        let mut slices = 1usize;
        while !frag.is_complete() {
            assert!(
                frag.next > lo && frag.next < hi,
                "resume frontier stays inside the shard range"
            );
            frag = session.resume_panel_fragment(&members, frag);
            slices += 1;
            assert!(slices <= universe.len() + 2, "resume chain must terminate");
        }
        assert_eq!(
            frag.members[0].partials.len(),
            hi - lo,
            "the drained chain covers the shard span exactly"
        );
        assert_eq!(frag.next, hi, "the frontier ends at the shard's hi");
        fragments.push(frag);
    }
    assert_eq!(first_pass_total, shards * m, "allowances are independent");
    let merged = merge_panel_fragments(&members, &universe, ExecMode::Parallel(1), fragments, None)
        .expect("drained shard chains tile the universe")
        .into_member_report::<usize>(0);
    assert_eq!(merged.verdict, universe.len());
}
