//! Determinism contract of the sweep telemetry layer.
//!
//! The recorder must be an *observer*: attaching one never changes a
//! verdict, and the **stable** counter section is a pure function of
//! (universe, check, strategy) — byte-identical across repeated runs and
//! across execution modes. The CI matrix runs this suite with
//! `PARITY_THREADS` set to 1, 2 and 4; locally it defaults to 3.
//!
//! Observed counters (`memo_*`, `verdict_decisions`, `interner_*`) are
//! allowed to move with scheduling, but still satisfy structural
//! invariants: every decision either hits or misses the memo, and a
//! quotient walk's orbit multiplicities partition the labeling space.

use std::sync::Arc;

use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::lower::PortObliviousCycleDecoder;
use hiding_lcp_core::properties::soundness::SoundnessCheck;
use hiding_lcp_core::properties::strong::StrongCheck;
use hiding_lcp_core::verify::{
    AuditPlan, Coverage, DynPropertyCheck, ExecMode, InstanceSet, ItemCtx, MetricsRecorder,
    PropertyCheck, PropertyTag, ShardSpec, SweepOpts, SweepOutcome, SweepSession, SymmetrySpec,
    Universe, UniverseItem,
};

fn bits() -> Vec<Certificate> {
    vec![Certificate::from_byte(0), Certificate::from_byte(1)]
}

/// Thread count for the parallel side of every parity assertion.
fn parity_threads() -> usize {
    std::env::var("PARITY_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(3)
}

/// A cycle under the rotation-symmetric port assignment, so the quotient
/// strategy actually engages.
fn symmetric_cycle(n: usize) -> Instance {
    let g = hiding_lcp_graph::generators::cycle(n);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
        .expect("symmetric cycle ports are valid")
}

/// An exhaustive labeling universe big enough (2^7 = 128 items) that
/// `ExecMode::Parallel` really runs parallel (`PARALLEL_THRESHOLD` = 64).
fn big_universe() -> Universe {
    Universe::all_labelings_of(symmetric_cycle(7), bits(), Coverage::Exhaustive)
        .expect("small universe fits")
}

/// Code 0 rejects every view: no soundness violation exists, so the sweep
/// never short-circuits and every mode walks the whole universe.
fn full_walk_decoder() -> PortObliviousCycleDecoder {
    PortObliviousCycleDecoder::from_code(0)
}

/// A check that declares full symmetry (port automorphisms plus one
/// interchangeable certificate class), forcing the quotient to bite.
struct OrbitProbe {
    k: usize,
}

impl PropertyCheck for OrbitProbe {
    type Partial = u64;
    type Verdict = u64;

    fn inspect(&self, _item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
        Some(ctx.multiplicity())
    }

    fn symmetry_class(&self, _alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        Some(SymmetrySpec {
            automorphisms: true,
            alphabet_classes: Some(vec![0; self.k]),
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, u64)>,
        _outcome: &SweepOutcome,
    ) -> u64 {
        partials.into_iter().map(|(_, m)| m).sum()
    }
}

fn panel_members<'a>(
    decoder: &'a PortObliviousCycleDecoder,
    two_col: &'a KCol,
) -> [DynPropertyCheck<'a>; 2] {
    [
        DynPropertyCheck::new(
            PropertyTag::Soundness,
            "soundness",
            SoundnessCheck { decoder },
        )
        .with_channel(decoder),
        DynPropertyCheck::new(
            PropertyTag::Strong,
            "strong",
            StrongCheck {
                decoder,
                language: two_col,
            },
        )
        .with_channel(decoder),
    ]
}

/// Attaching a recorder never changes what a sweep reports — in either
/// feature configuration (the disabled build's recorder is inert), in
/// both execution modes, under every strategy.
#[test]
fn recorded_sweeps_match_plain_sweeps() {
    let decoder = full_walk_decoder();
    let universe = big_universe();
    let check = SoundnessCheck { decoder: &decoder };
    for mode in [ExecMode::Parallel(1), ExecMode::Parallel(parity_threads())] {
        for opts in [
            SweepOpts::default(),
            SweepOpts::oracle(),
            SweepOpts::quotient(),
        ] {
            let plain = SweepSession::over(&universe)
                .mode(mode)
                .opts(opts)
                .run(&check);
            let recorder = MetricsRecorder::new();
            let recorded = SweepSession::over(&universe)
                .mode(mode)
                .opts(opts)
                .recorder(&recorder)
                .run(&check);
            assert_eq!(plain.verdict, recorded.verdict);
            assert_eq!(plain.checked, recorded.checked);
            assert_eq!(plain.universe_size, recorded.universe_size);
            assert_eq!(plain.short_circuited, recorded.short_circuited);
            assert_eq!(plain.coverage, recorded.coverage);
        }
    }
}

/// Same contract for fused panels: recorder attachment is invisible in
/// every member's verdict line.
#[test]
fn recorded_panels_match_plain_panels() {
    let decoder = full_walk_decoder();
    let two_col = KCol::new(2);
    let universe = big_universe();
    let members = panel_members(&decoder, &two_col);
    for mode in [ExecMode::Parallel(1), ExecMode::Parallel(parity_threads())] {
        let plain = SweepSession::over(&universe)
            .mode(mode)
            .opts(SweepOpts::default())
            .run_panel(&members);
        let recorder = MetricsRecorder::new();
        let recorded = SweepSession::over(&universe)
            .mode(mode)
            .opts(SweepOpts::default())
            .recorder(&recorder)
            .run_panel(&members);
        assert_eq!(plain.evidence.checked, recorded.evidence.checked);
        assert_eq!(
            plain.evidence.short_circuited,
            recorded.evidence.short_circuited
        );
        for (a, b) in plain.members.iter().zip(&recorded.members) {
            assert_eq!(a.checked, b.checked);
            assert_eq!(a.short_circuited, b.short_circuited);
            assert_eq!(a.verdict.passed, b.verdict.passed);
            assert_eq!(a.verdict.detail, b.verdict.detail);
        }
    }
}

mod enabled {
    use super::*;

    /// A shard report of a complete walk is a pure function of the plan
    /// and the shard at any thread count: its stable counters and
    /// partials render the same bytes on every run. (A member that
    /// short-circuits would let workers walk past its stop, so the plan
    /// keeps to hiding, which never does.) Hiding's neighborhood
    /// scan shares one view interner between the workers, so two workers
    /// can both miss its key map and both build a view — which is why
    /// `cache_hits` is an observed counter and stays out of the report.
    #[test]
    fn parallel_shard_reports_are_byte_identical() {
        let decoder = PortObliviousCycleDecoder::from_code(63);
        let plan = AuditPlan::new(&decoder, 2, InstanceSet::Lemma31 { max_n: 4 }, bits())
            .properties([PropertyTag::Hiding])
            .mode(ExecMode::Parallel(2));
        let shard = ShardSpec::new(0, 2);
        let first = plan.run_shard(shard);
        assert!(first.contains("counter items_walked "), "{first}");
        assert!(
            first.contains(" scan -\n"),
            "the hiding scan walks the shard: {first}"
        );
        assert!(!first.contains("counter cache_hits "), "{first}");
        assert_eq!(first, plan.run_shard(shard), "second run of shard 0/2");
    }

    /// The stable counter section renders to the same bytes on every
    /// run and in every execution mode. (The observed section may move:
    /// chunk boundaries change how many full verdict recomputes happen.)
    #[test]
    fn stable_counters_are_byte_identical_across_runs_and_modes() {
        let decoder = full_walk_decoder();
        let universe = big_universe();
        let check = SoundnessCheck { decoder: &decoder };
        let run = |mode: ExecMode| {
            let recorder = MetricsRecorder::new();
            SweepSession::over(&universe)
                .mode(mode)
                .recorder(&recorder)
                .run(&check);
            recorder.snapshot().stable_bytes()
        };
        let reference = run(ExecMode::Parallel(1));
        assert!(!reference.is_empty());
        assert!(reference.contains("items_walked=128\n"), "{reference}");
        for _ in 0..2 {
            assert_eq!(reference, run(ExecMode::Parallel(1)), "sequential rerun");
            assert_eq!(
                reference,
                run(ExecMode::Parallel(parity_threads())),
                "parallel at {} threads",
                parity_threads()
            );
        }
    }

    /// Panel stable counters obey the same contract, member-summed.
    #[test]
    fn panel_stable_counters_are_byte_identical_across_modes() {
        let decoder = full_walk_decoder();
        let two_col = KCol::new(2);
        let universe = big_universe();
        let members = panel_members(&decoder, &two_col);
        let run = |mode: ExecMode| {
            let recorder = MetricsRecorder::new();
            SweepSession::over(&universe)
                .mode(mode)
                .recorder(&recorder)
                .run_panel(&members);
            recorder.snapshot().stable_bytes()
        };
        let reference = run(ExecMode::Parallel(1));
        // Two members, complete walk: every index is walked once per member.
        assert!(reference.contains("items_walked=256\n"), "{reference}");
        assert_eq!(reference, run(ExecMode::Parallel(1)));
        assert_eq!(reference, run(ExecMode::Parallel(parity_threads())));
    }

    /// A complete quotient walk partitions the labeling space: skipped
    /// and inspected items tile the walk, and the inspected orbits'
    /// multiplicities re-weight to exactly |Sigma|^n.
    #[test]
    fn quotient_snapshot_satisfies_the_partition_invariant() {
        let universe = big_universe();
        let check = OrbitProbe { k: 2 };
        let recorder = MetricsRecorder::new();
        let report = SweepSession::over(&universe)
            .mode(ExecMode::Parallel(1))
            .opts(SweepOpts::quotient())
            .recorder(&recorder)
            .run(&check);
        let snap = recorder.snapshot();
        let get = |name: &str| snap.get(name).unwrap_or_else(|| panic!("no {name}"));
        let total = universe.len() as u64;
        assert_eq!(get("items_walked"), total);
        assert_eq!(
            get("items_inspected") + get("items_orbit_skipped"),
            get("items_walked"),
            "inspected and skipped tile the walk"
        );
        assert_eq!(
            get("orbit_multiplicity"),
            total,
            "orbit multiplicities sum to |Sigma|^n"
        );
        assert!(get("items_orbit_skipped") > 0, "the quotient engaged");
        assert_eq!(get("quotient_blocks"), 1);
        // The check's own reduction agrees with the recorder.
        assert_eq!(report.verdict, total);
    }

    /// Delta-stepping channel accounting: every verdict decision either
    /// hit or missed the digit-key memo, and each walked item was either
    /// refreshed or read back.
    #[test]
    fn memo_and_refresh_counters_tile_the_decision_stream() {
        let decoder = full_walk_decoder();
        let two_col = KCol::new(2);
        let universe = big_universe();
        let members = panel_members(&decoder, &two_col);
        for mode in [ExecMode::Parallel(1), ExecMode::Parallel(parity_threads())] {
            let recorder = MetricsRecorder::new();
            SweepSession::over(&universe)
                .mode(mode)
                .recorder(&recorder)
                .run_panel(&members);
            let snap = recorder.snapshot();
            let get = |name: &str| snap.get(name).unwrap_or_else(|| panic!("no {name}"));
            assert_eq!(
                get("memo_hits") + get("memo_misses"),
                get("verdict_decisions"),
                "every decision consults the memo exactly once"
            );
            assert_eq!(
                get("verdict_refreshes") + get("verdict_readbacks"),
                get("items_walked"),
                "every member-evaluation refreshes or reads back"
            );
        }
    }

    /// With an injected manual clock the whole observability document —
    /// counters, phase histograms, spans — is byte-deterministic.
    #[test]
    fn manual_clock_makes_the_full_document_deterministic() {
        use hiding_lcp_core::verify::telemetry::ManualClock;
        let decoder = full_walk_decoder();
        let universe = big_universe();
        let check = SoundnessCheck { decoder: &decoder };
        let run = || {
            let recorder = MetricsRecorder::with_clock(Arc::new(ManualClock::default()));
            SweepSession::over(&universe)
                .mode(ExecMode::Parallel(1))
                .recorder(&recorder)
                .run(&check);
            (recorder.metrics_json(), recorder.trace_json())
        };
        let (metrics_a, trace_a) = run();
        let (metrics_b, trace_b) = run();
        assert_eq!(metrics_a, metrics_b, "metrics document is reproducible");
        assert_eq!(trace_a, trace_b, "trace document is reproducible");
    }

    /// Every span a sweep opens it closes, and the export is a valid
    /// Chrome `trace_event` document.
    #[test]
    fn trace_is_balanced_and_chrome_shaped() {
        let decoder = full_walk_decoder();
        let two_col = KCol::new(2);
        let universe = big_universe();
        let members = panel_members(&decoder, &two_col);
        let recorder = MetricsRecorder::new();
        SweepSession::over(&universe)
            .mode(ExecMode::Parallel(parity_threads()))
            .recorder(&recorder)
            .run_panel(&members);
        assert!(recorder.trace_balanced(), "all spans closed");
        assert_eq!(recorder.trace_dropped(), 0);
        let json = recorder.trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"B\"") && json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"name\": \"panel\""));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }
}
