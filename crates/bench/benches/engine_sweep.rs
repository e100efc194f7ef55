//! `engine_sweep`: sequential vs parallel Lemma 3.1 sweeps on the
//! verification engine (experiments E17 and E21).
//!
//! Symmetric-port cycles up to n = 8 under every adversary labeling,
//! swept through a [`HidingCheck`] on one worker (the `sequential` rows,
//! `ExecMode::Parallel(1)`) and on `ExecMode::Parallel(t)` for the full
//! `{1, 2, 4}` thread ladder
//! (always emitted, even on small boxes, where the extra rows measure
//! oversubscription). Since PR 3 the default engine path is odometer
//! enumeration with delta-evaluated verdicts and digit-key memoization;
//! this bench also times the `DecodeOracle` reference strategy, the
//! memo-disabled delta path, and the symmetry-quotient strategy (only
//! canonical orbit representatives inspected), so the JSON records
//! exactly what each layer buys. All modes and strategies must return
//! identical graphs (the executor's determinism contract); the harness
//! asserts it before recording timings, then writes the medians — plus
//! the machine's thread count, a per-size `scaling_efficiency` table
//! (t1/t2 and t1/t4 speedups), and the engine's small-universe
//! sequential-fallback threshold, so single-core results read honestly —
//! to `BENCH_engine.json` at the repository root, together with per-size
//! memo and view-interner hit-rate statistics. A `sequential-recorded`
//! routine runs the same sweep with a live `MetricsRecorder` attached;
//! its ratio against `sequential` lands as the `recorder_overhead` field
//! and, per size, in a `telemetry` section alongside the stable sweep
//! counters one sequential walk fires. A `sharded-s{1,2,4}-t{t}` ladder
//! (the universe split into S in-process fragments, each walked at t
//! threads, then recombined with `merge_panel_fragments`) prices the shard
//! seam; the `sharded-s2-t1 / parallel-t1` ratio at the largest size
//! lands as the `shard_merge_overhead` field.
//!
//! ```text
//! cargo bench -p hiding-lcp-bench --bench engine_sweep
//! ```
//!
//! With `ENGINE_SWEEP_SMOKE=1` the harness instead runs a reduced n = 6
//! measurement and exits nonzero if the measured medians regress more
//! than 2x against the committed `BENCH_engine.json` baseline, if the
//! t4/t1 parallel speedup falls below 1.5x on a multi-core runner, or if
//! the attached-recorder overhead exceeds 1.05x — the CI bench-smoke and
//! telemetry jobs. Smoke mode never rewrites the JSON.

use criterion::{BenchResult, Criterion};
use hiding_lcp_bench::report::{self, ReportDoc};
use hiding_lcp_certs::revealing::{adversary_alphabet, RevealingDecoder};
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::nbhd::{NbhdGraph, NbhdSweep};
use hiding_lcp_core::properties::hiding::{HidingCheck, HidingVerdict};
use hiding_lcp_core::verify::telemetry::diff;
use hiding_lcp_core::verify::{
    merge_panel_fragments, Block, Coverage, DynPropertyCheck, ExecMode, LabelSource,
    MetricsRecorder, PropertyTag, ShardSpec, SweepOpts, SweepSession, Universe, PARALLEL_THRESHOLD,
};
use hiding_lcp_core::view::IdMode;
use hiding_lcp_graph::algo::bipartite;
use hiding_lcp_graph::generators;
use std::fs;
use std::hint::black_box;

/// All 2-symbol labelings of even cycles `4..=max_n`, under the
/// rotation-symmetric port assignment so the quotient strategy has a
/// nontrivial automorphism group to exploit. Ports change no decoder's
/// view content, so every other strategy's cost is unaffected.
fn cycle_universe(max_n: usize) -> Universe {
    let alphabet = adversary_alphabet(2);
    let blocks = (4..=max_n)
        .step_by(2)
        .map(|n| {
            let g = generators::cycle(n);
            let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
            let instance = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n))
                .expect("symmetric cycle ports are valid");
            Block::new(
                instance,
                LabelSource::All {
                    alphabet: alphabet.clone(),
                },
            )
        })
        .collect();
    Universe::new(blocks, Coverage::Sampled).expect("bench universe fits")
}

fn sweep_nbhd(universe: &Universe, mode: ExecMode, opts: SweepOpts) -> NbhdGraph {
    let decoder = RevealingDecoder::new(2);
    let check = HidingCheck::new(&decoder, universe, 2, bipartite::is_bipartite);
    SweepSession::over(universe)
        .mode(mode)
        .opts(opts)
        .run(&check)
        .verdict
        .0
}

/// The sweep split into `shards` in-process one-member panel fragments
/// (each walked with `mode` over its contiguous odometer range) and
/// recombined with [`merge_panel_fragments`] — the cost of the shard seam itself, without the
/// subprocess spawn/serialize overhead the `audit` coordinator adds on
/// top. `shards = 1` isolates the fragment path's fixed price.
fn sweep_nbhd_sharded(universe: &Universe, shards: usize, mode: ExecMode) -> NbhdGraph {
    let decoder = RevealingDecoder::new(2);
    let check = HidingCheck::new(&decoder, universe, 2, bipartite::is_bipartite);
    let members = [DynPropertyCheck::new(PropertyTag::Hiding, "hiding", &check)];
    let fragments = ShardSpec::partition(shards)
        .into_iter()
        .map(|spec| {
            SweepSession::over(universe)
                .mode(mode)
                .shard(spec)
                .run_panel_fragment(&members)
        })
        .collect();
    merge_panel_fragments(&members, universe, mode, fragments, None)
        .expect("complete shard fragments tile the universe")
        .into_member_report::<(NbhdGraph, HidingVerdict)>(0)
        .verdict
        .0
}

/// The same sweep with a live [`MetricsRecorder`] attached — the routine
/// whose ratio against `sequential` is the telemetry layer's overhead.
fn sweep_nbhd_recorded(
    universe: &Universe,
    mode: ExecMode,
    opts: SweepOpts,
    recorder: &MetricsRecorder,
) -> NbhdGraph {
    let decoder = RevealingDecoder::new(2);
    let check = HidingCheck::new(&decoder, universe, 2, bipartite::is_bipartite);
    SweepSession::over(universe)
        .mode(mode)
        .opts(opts)
        .recorder(recorder)
        .run(&check)
        .verdict
        .0
}

/// One size's stable sweep counters (the deterministic subset of a
/// recorded sequential sweep's delta; observed counters like memo traffic
/// are already in `stats`).
struct TelemetryStats {
    group: String,
    counters: Vec<(String, i128)>,
}

fn collect_telemetry(universe: &Universe, group: String) -> TelemetryStats {
    let recorder = MetricsRecorder::new();
    let before = recorder.snapshot();
    drop(sweep_nbhd_recorded(
        universe,
        ExecMode::Parallel(1),
        SweepOpts::default(),
        &recorder,
    ));
    let delta = diff::diff(&before, &recorder.snapshot());
    TelemetryStats {
        group,
        counters: delta
            .changed()
            .filter(|row| row.stable)
            .map(|row| (row.name.clone(), row.delta()))
            .collect(),
    }
}

/// Per-size engine statistics: one delta sweep's memo traffic and the
/// view interner's front-cache traffic.
struct SweepStats {
    group: String,
    items: usize,
    memo_hits: usize,
    memo_misses: usize,
    interner_hits: usize,
    interner_misses: usize,
    distinct_views: usize,
}

fn collect_stats(universe: &Universe, group: String) -> SweepStats {
    let decoder = RevealingDecoder::new(2);
    let check = NbhdSweep::new(
        &decoder,
        IdMode::Anonymous,
        universe,
        bipartite::is_bipartite,
    );
    let report = SweepSession::over(universe)
        .mode(ExecMode::Parallel(1))
        .run(&check);
    let (interner_hits, interner_misses) = check.interner_stats();
    SweepStats {
        group,
        items: universe.len(),
        memo_hits: report.memo_hits,
        memo_misses: report.memo_misses,
        interner_hits,
        interner_misses,
        distinct_views: report.verdict.view_count(),
    }
}

/// Which thread counts to record: always the full `{1, 2, 4}` ladder —
/// even on small boxes, where the extra rows measure oversubscription and
/// keep the JSON schema identical across hosts — plus the machine's own
/// count, so scaling curves are comparable.
fn thread_ladder(available: usize) -> Vec<usize> {
    let mut ladder = vec![1usize, 2, 4];
    if !ladder.contains(&available) {
        ladder.push(available);
    }
    ladder
}

fn bench_sizes(
    c: &mut Criterion,
    sizes: &[usize],
    stats: &mut Vec<SweepStats>,
    telemetry: &mut Vec<TelemetryStats>,
) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let ladder = thread_ladder(threads);
    let oracle = SweepOpts::oracle();
    let nomemo = SweepOpts {
        memo: false,
        ..SweepOpts::default()
    };
    for &max_n in sizes {
        let universe = cycle_universe(max_n);
        // Determinism contract: modes and strategies agree before we time
        // them.
        let seq = sweep_nbhd(&universe, ExecMode::Parallel(1), SweepOpts::default());
        let par = sweep_nbhd(&universe, ExecMode::Parallel(threads), SweepOpts::default());
        let dec = sweep_nbhd(&universe, ExecMode::Parallel(1), oracle);
        let quo = sweep_nbhd(&universe, ExecMode::Parallel(1), SweepOpts::quotient());
        let sh2 = sweep_nbhd_sharded(&universe, 2, ExecMode::Parallel(1));
        let sh4 = sweep_nbhd_sharded(&universe, 4, ExecMode::Parallel(1));
        for other in [&par, &dec, &quo, &sh2, &sh4] {
            assert_eq!(
                seq.view_count(),
                other.view_count(),
                "parity at n <= {max_n}"
            );
            assert_eq!(
                seq.edge_count(),
                other.edge_count(),
                "parity at n <= {max_n}"
            );
        }
        stats.push(collect_stats(&universe, format!("engine-sweep-n{max_n}")));
        telemetry.push(collect_telemetry(
            &universe,
            format!("engine-sweep-n{max_n}"),
        ));

        // Interleave samples across all configurations of a size: on a
        // host whose effective speed drifts under sustained load, taking
        // each bench's samples back to back charges the drift to whatever
        // runs later (measured here as a spurious ~40% parallel-t1 "loss"
        // at n = 8), and the whole point of this group is the ratio
        // between its members.
        let routine = |mode: ExecMode, opts: SweepOpts| {
            let universe = &universe;
            move || drop(black_box(sweep_nbhd(black_box(universe), mode, opts)))
        };
        let mut routines: Vec<(String, Box<dyn FnMut() + '_>)> = Vec::new();
        routines.push((
            "sequential".into(),
            Box::new(routine(ExecMode::Parallel(1), SweepOpts::default())),
        ));
        // The telemetry layer's price: the identical sequential sweep
        // with a live recorder attached. Interleaved with `sequential`,
        // so the ratio is the overhead, not host drift.
        routines.push((
            "sequential-recorded".into(),
            Box::new({
                let universe = &universe;
                let recorder = MetricsRecorder::new();
                move || {
                    drop(black_box(sweep_nbhd_recorded(
                        black_box(universe),
                        ExecMode::Parallel(1),
                        SweepOpts::default(),
                        &recorder,
                    )))
                }
            }),
        ));
        for &t in &ladder {
            routines.push((
                format!("parallel-t{t}"),
                Box::new(routine(ExecMode::Parallel(t), SweepOpts::default())),
            ));
        }
        // The two reference configurations: index-decoded full inspection
        // (what every sweep cost before the delta path), and the delta
        // path with memo layers off (what odometer stepping alone buys).
        routines.push((
            "oracle".into(),
            Box::new(routine(ExecMode::Parallel(1), oracle)),
        ));
        routines.push((
            "delta-nomemo".into(),
            Box::new(routine(ExecMode::Parallel(1), nomemo)),
        ));
        // The symmetry quotient: only canonical orbit representatives are
        // inspected; everything else is rejected by a minimal-image test.
        routines.push((
            "quotient".into(),
            Box::new(routine(ExecMode::Parallel(1), SweepOpts::quotient())),
        ));
        // The shard ladder, crossed with the thread ladder: the universe
        // split into S fragments (each walked at t threads) and merged
        // in-process. Against `parallel-t{t}` this prices the shard seam;
        // `sharded-s1` isolates the fragment path's fixed cost.
        for &s in &[1usize, 2, 4] {
            for &t in &ladder {
                routines.push((
                    format!("sharded-s{s}-t{t}"),
                    Box::new({
                        let universe = &universe;
                        move || {
                            drop(black_box(sweep_nbhd_sharded(
                                black_box(universe),
                                s,
                                ExecMode::Parallel(t),
                            )))
                        }
                    }),
                ));
            }
        }
        let mut g = c.benchmark_group(format!("engine-sweep-n{max_n}"));
        g.sample_size(if max_n >= 8 { 15 } else { 20 });
        g.bench_interleaved(routines);
        g.finish();
    }
}

/// `recorded / plain` sequential-median ratio for one size group, i.e.
/// what attaching a live recorder costs.
#[allow(clippy::cast_precision_loss)]
fn overhead_ratio(results: &[BenchResult], group: &str) -> Option<f64> {
    let plain = report::median(results, &format!("{group}/sequential"))?;
    let recorded = report::median(results, &format!("{group}/sequential-recorded"))?;
    Some(recorded as f64 / plain as f64)
}

/// `sharded-s2-t1 / parallel-t1` median ratio for one size group: what
/// splitting the walk into two fragments and merging them costs relative
/// to the identical unsharded single-thread walk.
#[allow(clippy::cast_precision_loss)]
fn shard_overhead_ratio(results: &[BenchResult], group: &str) -> Option<f64> {
    let unsharded = report::median(results, &format!("{group}/parallel-t1"))?;
    let sharded = report::median(results, &format!("{group}/sharded-s2-t1"))?;
    Some(sharded as f64 / unsharded as f64)
}

fn write_json(
    results: &[BenchResult],
    stats: &[SweepStats],
    telemetry: &[TelemetryStats],
    threads: usize,
) {
    let groups: Vec<&str> = {
        let mut seen = Vec::new();
        for r in results {
            if let Some(g) = r.name.split('/').next() {
                if !seen.contains(&g) {
                    seen.push(g);
                }
            }
        }
        seen
    };
    let mut doc = ReportDoc::new();
    doc.scalar("threads", threads)
        .scalar("parallel_threshold", PARALLEL_THRESHOLD);
    // Headline recorder overhead: the largest measured size, where the
    // fixed per-sweep cost is most amortized.
    if let Some(ratio) = groups.iter().rev().find_map(|g| overhead_ratio(results, g)) {
        doc.scalar("recorder_overhead", format!("{ratio:.3}"));
    }
    // Headline shard-seam price, same convention: the largest size, where
    // the per-fragment fixed cost is most amortized.
    if let Some(ratio) = groups
        .iter()
        .rev()
        .find_map(|g| shard_overhead_ratio(results, g))
    {
        doc.scalar("shard_merge_overhead", format!("{ratio:.3}"));
    }
    doc.section("benches", &report::bench_rows(results));
    let scaling: Vec<String> = groups
        .iter()
        .filter_map(|g| {
            let t1 = report::median(results, &format!("{g}/parallel-t1"))?;
            let t2 = report::median(results, &format!("{g}/parallel-t2"))?;
            let t4 = report::median(results, &format!("{g}/parallel-t4"))?;
            #[allow(clippy::cast_precision_loss)]
            Some(format!(
                "    {{ \"group\": \"{g}\", \"speedup_t2\": {:.3}, \"speedup_t4\": {:.3}, \
                 \"efficiency_t4\": {:.3} }}",
                t1 as f64 / t2 as f64,
                t1 as f64 / t4 as f64,
                t1 as f64 / t4 as f64 / 4.0,
            ))
        })
        .collect();
    doc.section("scaling_efficiency", &scaling);
    // Per-size recorder price plus the stable counters one sequential
    // sweep fires — deterministic, so diffs of this file are meaningful.
    let telemetry_rows: Vec<String> = telemetry
        .iter()
        .map(|t| {
            let overhead = overhead_ratio(results, &t.group)
                .map_or(String::new(), |r| format!(" \"overhead\": {r:.3},"));
            let counters: Vec<String> = t
                .counters
                .iter()
                .map(|(name, delta)| format!("\"{name}\": {delta}"))
                .collect();
            format!(
                "    {{ \"group\": \"{}\",{overhead} \"counters\": {{ {} }} }}",
                t.group,
                counters.join(", ")
            )
        })
        .collect();
    doc.section("telemetry", &telemetry_rows);
    let stat_rows: Vec<String> = stats
        .iter()
        .map(|s| {
            format!(
                "    {{ \"group\": \"{}\", \"items\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
                 \"interner_hits\": {}, \"interner_misses\": {}, \"distinct_views\": {} }}",
                s.group,
                s.items,
                s.memo_hits,
                s.memo_misses,
                s.interner_hits,
                s.interner_misses,
                s.distinct_views
            )
        })
        .collect();
    doc.section("stats", &stat_rows);
    report::write("BENCH_engine.json", &doc.finish());
}

/// CI bench-smoke: a reduced n = 6 measurement compared against the
/// committed baseline; >2x regressions fail the process. Returns the exit
/// code.
fn smoke() -> i32 {
    let mut c = Criterion::new();
    let mut stats = Vec::new();
    let mut telemetry = Vec::new();
    bench_sizes(&mut c, &[6], &mut stats, &mut telemetry);
    let baseline = match fs::read_to_string(report::repo_root_path("BENCH_engine.json")) {
        Ok(s) => s,
        Err(e) => {
            println!("smoke: no committed BENCH_engine.json ({e}); nothing to compare");
            return 0;
        }
    };
    let mut failed = false;
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    if available >= 4 {
        let t1 = c
            .results
            .iter()
            .find(|r| r.name == "engine-sweep-n6/parallel-t1");
        let t4 = c
            .results
            .iter()
            .find(|r| r.name == "engine-sweep-n6/parallel-t4");
        if let (Some(t1), Some(t4)) = (t1, t4) {
            let speedup = t1.median.as_nanos() as f64 / t4.median.as_nanos() as f64;
            let verdict = if speedup < 1.5 {
                failed = true;
                "SCALING REGRESSION"
            } else {
                "ok"
            };
            println!("smoke: t4/t1 speedup {speedup:.2}x (floor 1.5x) -> {verdict}");
        }
    } else {
        println!("smoke: {available} core(s); skipping the t4/t1 scaling gate");
    }
    // Telemetry must be observationally cheap: a live recorder may cost at
    // most 5% over the identical plain sequential sweep, same run, same
    // interleaved sample schedule.
    match overhead_ratio(&c.results, "engine-sweep-n6") {
        Some(ratio) => {
            let verdict = if ratio > 1.05 {
                failed = true;
                "TELEMETRY OVERHEAD"
            } else {
                "ok"
            };
            println!("smoke: recorder overhead {ratio:.3}x (ceiling 1.05x) -> {verdict}");
        }
        None => println!("smoke: no recorded/plain pair at n = 6; skipping the overhead gate"),
    }
    // Informational: the in-process shard seam's price at n = 6. The
    // byte-equality contract is CI's shard-smoke job; timing-wise the seam
    // is not gated, only recorded.
    match shard_overhead_ratio(&c.results, "engine-sweep-n6") {
        Some(ratio) => println!("smoke: 2-shard merge overhead {ratio:.3}x (recorded, not gated)"),
        None => println!("smoke: no sharded/unsharded pair at n = 6"),
    }
    for name in [
        "engine-sweep-n6/sequential",
        "engine-sweep-n6/parallel-t1",
        "engine-sweep-n6/quotient",
    ] {
        let Some(base) = report::median_in_json(&baseline, name) else {
            println!("smoke: baseline lacks {name}; skipping");
            continue;
        };
        let Some(measured) = report::median(&c.results, name) else {
            // This host's thread ladder did not produce the bench (e.g.
            // parallel-t1 exists on every ladder, but be defensive).
            println!("smoke: no measurement for {name}; skipping");
            continue;
        };
        let verdict = if measured > base.saturating_mul(2) {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!("smoke: {name}: measured {measured} ns vs baseline {base} ns -> {verdict}");
    }
    i32::from(failed)
}

fn main() {
    if std::env::var("ENGINE_SWEEP_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::process::exit(smoke());
    }
    let mut c = Criterion::new();
    let mut stats = Vec::new();
    let mut telemetry = Vec::new();
    bench_sizes(&mut c, &[4, 6, 8], &mut stats, &mut telemetry);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    write_json(&c.results, &stats, &telemetry, threads);
}
