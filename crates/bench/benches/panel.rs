//! `panel`: the fused 7-property audit versus seven sequential sweeps.
//!
//! The fused arm is literally [`AuditPlan::run`]: one 4-member labelings
//! panel (block-gated soundness, strong, hiding, quantified — all on the
//! revealing decoder's shared verdict channel, with hiding and quantified
//! sharing one neighborhood scan) plus single-member panels for
//! completeness, erasure and invariance. The baseline arm runs the same
//! seven properties as seven separate sequential sweeps — each paying its
//! own odometer enumeration, its own skeleton cache, its own verdict
//! channel, its own Lemma 3.1 scan — over the identical prebuilt
//! universes and the identical honest fixture (first certified
//! yes-instance, same seeds), so the measured ratio is exactly what the
//! plan's fusion buys.
//!
//! The instance family mixes shapes on purpose: all cycles `3..=max_n`,
//! cliques `4..max_n`, and balanced complete bipartite graphs — a
//! no-instance-heavy blend (odd cycles and cliques), because no-instance
//! items are where the shared walk and verdict channel pay off most, and
//! dense yes-instances (K_{3,3}, K_{4,4}), where the shared scan does.
//!
//! ```text
//! cargo bench -p hiding-lcp-bench --bench panel
//! ```
//!
//! Medians for the fused audit and each solo sweep — and the headline
//! `speedup = sum(solo) / fused` per size — go to `BENCH_panel.json` at
//! the repository root. With `BENCH_PANEL_SMOKE=1` the harness instead
//! measures only n = 6 and exits nonzero if the fused audit is slower
//! than 0.6x the sum of the individual sweeps — a *live* gate on the
//! fusion win itself, not a drift check against a committed baseline.
//!
//! [`AuditPlan::run`]: hiding_lcp_core::verify::AuditPlan::run

use criterion::{BenchResult, Criterion};
use hiding_lcp_bench::report::{self, ReportDoc};
use hiding_lcp_certs::revealing::{adversary_alphabet, RevealingDecoder, RevealingProver};
use hiding_lcp_core::instance::{Instance, LabeledInstance};
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::properties::completeness::completeness_member;
use hiding_lcp_core::properties::erasure::{erased_labeling, erasure_member};
use hiding_lcp_core::properties::hiding::hiding_member;
use hiding_lcp_core::properties::invariance::{anonymity_universe, invariance_member};
use hiding_lcp_core::properties::quantified::quantified_member;
use hiding_lcp_core::properties::soundness::soundness_member;
use hiding_lcp_core::properties::strong::strong_member;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    AuditReport, Block, Coverage, DynPropertyCheck, ExecMode, InstanceSet, LabelSource,
    PanelReport, SweepOpts, SweepSession, Universe,
};
use hiding_lcp_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const K: usize = 2;
const ERASURE_TRIALS: usize = 8;
const INVARIANCE_SAMPLES: usize = 16;
/// [`AuditPlan`]'s default seed — the solo arm must derive its erasure
/// targets and invariance permutations from the same streams.
///
/// [`AuditPlan`]: hiding_lcp_core::verify::AuditPlan
const SEED: u64 = 0xA0D1_7E57;

/// The audited family: all cycles `3..=max_n` (odd ones are
/// no-instances), cliques `4..max_n` (all no-instances for k = 2), and
/// dense yes-instances — balanced complete bipartite graphs and, at
/// n = 8, the 3-cube — where the shared Lemma 3.1 scan carries the most
/// weight. Every shape that admits one carries a symmetric port
/// assignment (rotations for cycles and cliques, shifts and the part
/// swap for `K_{a,a}`, XOR translations for `Q_3`), so the quotient
/// strategy has nontrivial orbits on most blocks; ports change no view's
/// content, so the other strategies cost the same as under canonical
/// ports.
fn family(max_n: usize) -> Vec<Instance> {
    let with_ports =
        |g: hiding_lcp_graph::Graph,
         ports: fn(&hiding_lcp_graph::Graph) -> hiding_lcp_graph::PortAssignment| {
            let n = g.node_count();
            let prt = ports(&g);
            Instance::new(g, prt, hiding_lcp_graph::IdAssignment::canonical(n))
                .expect("symmetric ports are valid")
        };
    let mut instances: Vec<Instance> = (3..=max_n)
        .map(|n| {
            with_ports(
                generators::cycle(n),
                hiding_lcp_graph::ports::cycle_symmetric,
            )
        })
        .collect();
    instances.extend((4..max_n).map(|n| {
        with_ports(
            generators::complete(n),
            hiding_lcp_graph::ports::complete_symmetric,
        )
    }));
    if max_n >= 6 {
        instances.push(Instance::canonical(generators::complete_bipartite(2, 4)));
        instances.push(with_ports(
            generators::complete_bipartite(3, 3),
            hiding_lcp_graph::ports::balanced_bipartite_symmetric,
        ));
    }
    if max_n >= 8 {
        instances.push(with_ports(
            generators::hypercube(3),
            hiding_lcp_graph::ports::hypercube_symmetric,
        ));
        instances.push(with_ports(
            generators::complete_bipartite(4, 4),
            hiding_lcp_graph::ports::balanced_bipartite_symmetric,
        ));
    }
    instances
}

/// Everything both arms share: the instance family, the universes the
/// solo sweeps walk (built once per size, mirroring what the plan builds
/// internally), and the decoder/prover pair. Checks are constructed fresh
/// inside each routine, as in `engine_sweep`, so per-sweep state never
/// leaks between samples.
struct Fixture {
    decoder: RevealingDecoder,
    prover: RevealingProver,
    language: KCol,
    alphabet: Vec<Certificate>,
    instances: Vec<Instance>,
    /// Every 3-symbol labeling of every family member — the plan's
    /// labelings shape.
    labelings: Universe,
    /// Just the no-instance blocks — what a solo soundness sweep walks.
    no_labelings: Universe,
    /// One unlabeled item per certified yes-instance (completeness).
    certified: Universe,
    erasure: Universe,
    erased_counts: Vec<usize>,
    /// The plan's honest fixture: the first yes-instance the prover
    /// certifies, carrying that certification.
    honest: LabeledInstance,
    invariance: Universe,
}

impl Fixture {
    fn build(max_n: usize) -> Self {
        let alphabet = adversary_alphabet(K);
        let language = KCol::new(K);
        let prover = RevealingProver::new(K);
        let instances = family(max_n);

        let labeled_block = |inst: &Instance| {
            Block::new(
                inst.clone(),
                LabelSource::All {
                    alphabet: alphabet.clone(),
                },
            )
        };
        let is_yes: Vec<bool> = instances
            .iter()
            .map(|inst| language.is_yes_graph(inst.graph()))
            .collect();
        let labelings = Universe::new(
            instances.iter().map(labeled_block).collect(),
            Coverage::Sampled,
        )
        .expect("bench universe fits");
        let no_labelings = Universe::new(
            instances
                .iter()
                .zip(&is_yes)
                .filter(|(_, yes)| !**yes)
                .map(|(inst, _)| labeled_block(inst))
                .collect(),
            Coverage::Sampled,
        )
        .expect("no-instance universe fits");

        let certified_instances: Vec<Instance> = instances
            .iter()
            .zip(&is_yes)
            .filter(|(inst, yes)| **yes && prover.certify(inst).is_some())
            .map(|(inst, _)| inst.clone())
            .collect();
        let certified = Universe::instances_only(certified_instances.clone(), Coverage::Sampled)
            .expect("one item per instance fits");

        let target = certified_instances
            .first()
            .expect("at least one certified yes-instance");
        let labeling = prover.certify(target).expect("certified above");
        let honest = LabeledInstance::new(target.clone(), labeling);

        let n = honest.graph().node_count();
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xE5A5);
        let target_sets: Vec<Vec<usize>> = (0..ERASURE_TRIALS)
            .map(|_| {
                rand::seq::index::sample(&mut rng, n, 1)
                    .into_iter()
                    .collect()
            })
            .collect();
        let erased_counts: Vec<usize> = target_sets.iter().map(Vec::len).collect();
        let erased = target_sets
            .iter()
            .map(|targets| erased_labeling(&honest, targets))
            .collect();
        let erasure = Universe::labelings_of(honest.instance().clone(), erased, Coverage::Sampled)
            .expect("materialized erasure labelings fit");

        let mut rng = StdRng::seed_from_u64(SEED ^ 0x1D5);
        let invariance = anonymity_universe(
            honest.instance(),
            honest.labeling(),
            INVARIANCE_SAMPLES,
            &mut rng,
        );

        Fixture {
            decoder: RevealingDecoder::new(K),
            prover,
            language,
            alphabet,
            instances,
            labelings,
            no_labelings,
            certified,
            erasure,
            erased_counts,
            honest,
            invariance,
        }
    }

    /// The fused arm: the declarative audit itself, compiled and executed
    /// by [`AuditPlan::run`].
    ///
    /// [`AuditPlan::run`]: hiding_lcp_core::verify::AuditPlan::run
    fn fused(&self) -> AuditReport {
        self.fused_with(SweepOpts::default())
    }

    /// The fused arm under an explicit sweep strategy (the quotient
    /// routine passes `SweepOpts::quotient()`).
    fn fused_with(&self, opts: SweepOpts) -> AuditReport {
        hiding_lcp_core::verify::AuditPlan::new(
            &self.decoder,
            K,
            InstanceSet::Explicit {
                instances: self.instances.clone(),
                coverage: Coverage::Sampled,
            },
            self.alphabet.clone(),
        )
        .prover(&self.prover)
        .mode(ExecMode::Parallel(1))
        .opts(opts)
        .run()
    }

    /// One property as its own sequential sweep (a one-member panel is
    /// observationally the plain sweep — the differential suite's
    /// contract), paying its own enumeration, verdict channel and — for
    /// hiding and quantified — its own Lemma 3.1 scan.
    fn solo(&self, which: &str) -> PanelReport {
        let is_yes = |g: &hiding_lcp_graph::Graph| self.language.is_yes_graph(g);
        let (member, universe): (DynPropertyCheck<'_>, &Universe) = match which {
            "soundness" => (soundness_member(&self.decoder), &self.no_labelings),
            "strong" => (
                strong_member(&self.decoder, &self.language),
                &self.labelings,
            ),
            "hiding" => (
                hiding_member(&self.decoder, &self.labelings, K, is_yes),
                &self.labelings,
            ),
            "quantified" => (
                quantified_member(&self.decoder, &self.labelings, K, is_yes),
                &self.labelings,
            ),
            "completeness" => (
                completeness_member(&self.decoder, &self.prover),
                &self.certified,
            ),
            "erasure" => (
                erasure_member(&self.decoder, self.erased_counts.clone()),
                &self.erasure,
            ),
            "invariance" => (
                invariance_member(
                    &self.decoder,
                    self.honest.instance(),
                    self.honest.labeling(),
                ),
                &self.invariance,
            ),
            other => unreachable!("unknown solo property {other}"),
        };
        SweepSession::over(universe)
            .mode(ExecMode::Parallel(1))
            .run_panel(std::slice::from_ref(&member))
    }
}

const SOLO: [&str; 7] = [
    "soundness",
    "strong",
    "hiding",
    "quantified",
    "completeness",
    "erasure",
    "invariance",
];

/// Asserts the fused audit reports exactly what the seven solo sweeps
/// report, member by member, before anything is timed.
fn assert_parity(fix: &Fixture, max_n: usize) {
    let report = fix.fused();
    // The quotient strategy is observationally identical: same panels,
    // same verdicts, same frontiers.
    let quotient = fix.fused_with(SweepOpts::quotient());
    for (a, b) in report.panels.iter().zip(&quotient.panels) {
        assert_eq!(a.shape, b.shape, "quotient shape at n <= {max_n}");
        for (ma, mb) in a.members.iter().zip(&b.members) {
            assert_eq!(
                ma.passed, mb.passed,
                "{} quotient verdict at n <= {max_n}",
                ma.property
            );
            assert_eq!(
                ma.checked, mb.checked,
                "{} quotient frontier at n <= {max_n}",
                ma.property
            );
        }
    }
    let shapes: Vec<&str> = report.panels.iter().map(|p| p.shape.as_str()).collect();
    assert_eq!(
        shapes,
        ["labelings", "instances", "erasure", "invariance"],
        "audit shape at n <= {max_n}"
    );
    let labelings = &report.panels[0];
    for (m, name) in labelings.members.iter().zip(SOLO) {
        assert_eq!(m.property, name, "member order at n <= {max_n}");
        let solo = fix.solo(name);
        assert_eq!(
            m.passed, solo.members[0].verdict.passed,
            "{name} verdict parity at n <= {max_n}"
        );
        if name != "soundness" {
            // Gated soundness walks the full mixed universe; everyone
            // else's frontier matches their solo sweep item for item.
            assert_eq!(
                m.checked, solo.members[0].checked,
                "{name} frontier parity at n <= {max_n}"
            );
        }
    }
    for (panel, name) in report.panels[1..].iter().zip(&SOLO[4..]) {
        let solo = fix.solo(name);
        assert_eq!(
            panel.members[0].passed, solo.members[0].verdict.passed,
            "{name} verdict parity at n <= {max_n}"
        );
    }
}

fn bench_sizes(c: &mut Criterion, sizes: &[usize]) {
    for &max_n in sizes {
        let fix = Fixture::build(max_n);
        assert_parity(&fix, max_n);

        // Interleave samples across the fused audit and every solo sweep:
        // the headline number is their ratio, and back-to-back sampling
        // charges any thermal drift to whatever runs later (see
        // `engine_sweep`).
        let mut routines: Vec<(String, Box<dyn FnMut() + '_>)> = Vec::new();
        {
            let fix = &fix;
            routines.push((
                "fused".into(),
                Box::new(move || drop(black_box(black_box(fix).fused()))),
            ));
        }
        {
            let fix = &fix;
            routines.push((
                "fused-quotient".into(),
                Box::new(move || drop(black_box(black_box(fix).fused_with(SweepOpts::quotient())))),
            ));
        }
        for name in SOLO {
            let fix = &fix;
            routines.push((
                format!("solo-{name}"),
                Box::new(move || drop(black_box(black_box(fix).solo(name)))),
            ));
        }
        let mut g = c.benchmark_group(format!("panel-audit-n{max_n}"));
        g.sample_size(if max_n >= 8 { 12 } else { 20 });
        g.bench_interleaved(routines);
        g.finish();
    }
}

/// `(fused_ns, sum_of_solo_ns)` for one size's group, from the results.
fn fused_vs_sum(results: &[BenchResult], max_n: usize) -> Option<(u128, u128)> {
    let median =
        |routine: &str| report::median(results, &format!("panel-audit-n{max_n}/{routine}"));
    let fused = median("fused")?;
    let mut sum = 0u128;
    for name in SOLO {
        sum += median(&format!("solo-{name}"))?;
    }
    Some((fused, sum))
}

fn write_json(results: &[BenchResult], sizes: &[usize], threads: usize) {
    let mut doc = ReportDoc::new();
    doc.scalar("threads", threads)
        .section("benches", &report::bench_rows(results));
    let mut rows: Vec<String> = Vec::new();
    for &max_n in sizes {
        let Some((fused, sum)) = fused_vs_sum(results, max_n) else {
            continue;
        };
        #[allow(clippy::cast_precision_loss)]
        let speedup = sum as f64 / fused as f64;
        let quotient = report::median(results, &format!("panel-audit-n{max_n}/fused-quotient"));
        let quotient_cols = match quotient {
            #[allow(clippy::cast_precision_loss)]
            Some(q) => format!(
                ", \"fused_quotient_ns\": {q}, \"quotient_speedup\": {:.2}",
                fused as f64 / q as f64
            ),
            None => String::new(),
        };
        rows.push(format!(
            "    {{ \"group\": \"panel-audit-n{max_n}\", \"fused_ns\": {fused}, \
             \"solo_sum_ns\": {sum}, \"speedup\": {speedup:.2}{quotient_cols} }}"
        ));
        println!("panel-audit-n{max_n}: fused {fused} ns vs solo sum {sum} ns ({speedup:.2}x)");
        if let Some(q) = quotient {
            #[allow(clippy::cast_precision_loss)]
            let ratio = fused as f64 / q as f64;
            println!("panel-audit-n{max_n}: quotient fused {q} ns ({ratio:.2}x over fused)");
        }
    }
    doc.section("summary", &rows);
    report::write("BENCH_panel.json", &doc.finish());
}

/// CI bench-smoke: a reduced n = 6 audit whose gate is live — the fused
/// audit must come in under 0.6x the sum of the seven solo sweeps, on
/// this machine, this run. No committed baseline involved. Returns the
/// exit code.
fn smoke() -> i32 {
    let mut c = Criterion::new();
    bench_sizes(&mut c, &[6]);
    let Some((fused, sum)) = fused_vs_sum(&c.results, 6) else {
        println!("smoke: n = 6 group incomplete; cannot gate");
        return 1;
    };
    #[allow(clippy::cast_precision_loss)]
    let ratio = fused as f64 / sum as f64;
    let verdict = if ratio > 0.6 {
        "FUSION REGRESSION"
    } else {
        "ok"
    };
    println!(
        "smoke: fused {fused} ns vs solo sum {sum} ns (fused/sum = {ratio:.2}, gate 0.60) -> \
         {verdict}"
    );
    i32::from(ratio > 0.6)
}

fn main() {
    if std::env::var("BENCH_PANEL_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::process::exit(smoke());
    }
    let mut c = Criterion::new();
    let sizes = [4, 6, 8];
    bench_sizes(&mut c, &sizes);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    write_json(&c.results, &sizes, threads);
}
