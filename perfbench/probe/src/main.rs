//! `perfbench-probe` — the traced half of the audit benchmark.
//!
//! Replays one `audit` workload in-process through the library's public
//! calls and records a span around each one in a `SpanTrace`, timed by
//! the same clock as the engine's own `MetricsRecorder`, so the two
//! traces line up. It prints one JSON document on stdout with the raw
//! spans, the engine traces and the recorder's counters and phase sums;
//! `perfbench/run.py` turns those into per-layer metrics.
//!
//! ```text
//! perfbench-probe --host
//! perfbench-probe --calibrate 2
//! perfbench-probe --decoder even-cycle --max-n 4 --strategy delta --threads 1 \
//!     --budget-items 1000000 --seed 7 --report-out report.json
//! perfbench-probe --decoder degree-one --max-n 4 --strategy quotient --threads 1 \
//!     --shards 2 --stable --seed 7 --report-out report.json
//! ```
//!
//! `--host` prints `available_parallelism`; `--calibrate T` runs a fixed
//! workload on `T` threads, whose wall time measures how fast the host
//! runs right now.
//!
//! Spans, in order: `universe.build` (`Universe::lemma31`),
//! `plan.run.untraced` (`AuditPlan::run`, no recorder), then the root
//! span `audit` around the workload's own call sequence with a recorder
//! attached — `plan.run` or `shard.run` (`run_shards` over
//! `AuditPlan::run_shard`) and `shard.merge` (`AuditPlan::run_with_shards`)
//! — and `render` (`AuditReport::to_json`/`to_stable_json`). A sharded
//! workload then runs `plan.run.traced`, an unsharded traced run whose
//! recorder supplies the walk counters the shard children keep to
//! themselves. Last comes `plan.run.untraced.after`: the two untraced
//! runs bracket the traced one, so the recorder's overhead is not
//! confused with the first run's cold heap.

use std::process::ExitCode;
use std::sync::Arc;

use hiding_lcp_certs::{degree_one, even_cycle};
use hiding_lcp_core::decoder::Decoder;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    run_shards, AuditPlan, ExecMode, InstanceSet, MetricsRecorder, SweepBudget, SweepOpts,
    SweepRecorder, Universe,
};
use hiding_lcp_telemetry::{Clock, MonotonicClock, SpanTrace};

/// Probe spans per run are a handful; the ring never wraps.
const DRIVER_TRACE_CAPACITY: usize = 64;

struct Args {
    decoder: String,
    max_n: usize,
    opts: SweepOpts,
    threads: usize,
    budget_items: Option<usize>,
    shards: Option<usize>,
    stable: bool,
    seed: u64,
    report_out: Option<String>,
}

/// What one probe invocation does.
enum Command {
    /// Print `available_parallelism`.
    Host,
    /// Run the calibration workload on this many threads.
    Calibrate(usize),
    /// Replay an audit workload in-process.
    Replay(Args),
}

fn parse_args() -> Result<Command, String> {
    let mut args = Args {
        decoder: "even-cycle".into(),
        max_n: 4,
        opts: SweepOpts::default(),
        threads: 1,
        budget_items: None,
        shards: None,
        stable: false,
        seed: 0,
        report_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--host" {
            return Ok(Command::Host);
        }
        if flag == "--stable" {
            args.stable = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad value {v:?} for {flag}"))
        };
        match flag.as_str() {
            "--calibrate" => return Ok(Command::Calibrate(number(&value)? as usize)),
            "--decoder" => args.decoder = value,
            "--max-n" => args.max_n = number(&value)? as usize,
            "--strategy" => {
                args.opts = match value.as_str() {
                    "delta" => SweepOpts::default(),
                    "quotient" => SweepOpts::quotient(),
                    other => return Err(format!("unknown strategy {other:?}")),
                }
            }
            "--threads" => args.threads = number(&value)? as usize,
            "--budget-items" => args.budget_items = Some(number(&value)? as usize),
            "--shards" => args.shards = Some(number(&value)? as usize),
            "--seed" => args.seed = number(&value)?,
            "--report-out" => args.report_out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Command::Replay(args))
}

/// A fixed CPU and memory workload that shares nothing with the audit:
/// hashing, map lookups and a sort over a few MiB. Its wall time tracks
/// how fast the host runs at the moment.
fn calibrate() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut values: Vec<u64> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let map: std::collections::HashMap<u64, usize> = values
        .iter()
        .step_by(4)
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    let hits = values.iter().filter(|v| map.contains_key(v)).count() as u64;
    values.sort_unstable();
    std::hint::black_box(hits ^ values[values.len() / 2])
}

/// The decoder, honest prover and adversarial alphabet `audit` picks for
/// `name` (the two k = 2 constructions of Theorem 1.1).
#[allow(clippy::type_complexity)]
fn select(name: &str) -> Option<(Box<dyn Decoder>, Box<dyn Prover>, Vec<Certificate>)> {
    match name {
        "degree-one" => Some((
            Box::new(degree_one::DegreeOneDecoder),
            Box::new(degree_one::DegreeOneProver),
            degree_one::adversary_alphabet(),
        )),
        "even-cycle" => Some((
            Box::new(even_cycle::EvenCycleDecoder),
            Box::new(even_cycle::EvenCycleProver),
            even_cycle::adversary_alphabet(),
        )),
        _ => None,
    }
}

/// The `AuditPlan` the `audit` binary compiles for these flags.
fn build_plan<'a>(
    args: &Args,
    decoder: &'a dyn Decoder,
    prover: &'a dyn Prover,
    alphabet: &[Certificate],
    recorder: Option<&'a MetricsRecorder>,
) -> AuditPlan<'a> {
    let mut plan = AuditPlan::new(
        decoder,
        2,
        InstanceSet::Lemma31 { max_n: args.max_n },
        alphabet.to_vec(),
    )
    .prover(prover)
    .mode(ExecMode::Parallel(args.threads))
    .opts(args.opts)
    .seed(args.seed);
    if let Some(max_items) = args.budget_items {
        let mut budget = SweepBudget::unlimited();
        budget.max_items = Some(max_items);
        plan = plan.budget(budget);
    }
    if let Some(recorder) = recorder {
        plan = plan.telemetry(recorder);
    }
    plan
}

/// The probe's own spans, on the shared clock.
struct Spans {
    clock: Arc<MonotonicClock>,
    trace: SpanTrace,
}

impl Spans {
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.trace.enter(name, self.clock.now_micros());
        let out = f();
        self.trace.exit(name, self.clock.now_micros());
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Replay(args)) => args,
        Ok(Command::Host) => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            println!("{{\"available_parallelism\": {cores}}}");
            return ExitCode::SUCCESS;
        }
        Ok(Command::Calibrate(threads)) => {
            let out: Vec<u64> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads).map(|_| scope.spawn(calibrate)).collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("calibration thread panicked"))
                    .collect()
            });
            println!("{out:?}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((decoder, prover, alphabet)) = select(&args.decoder) else {
        eprintln!("perfbench-probe: unknown decoder {:?}", args.decoder);
        return ExitCode::from(2);
    };
    let plan = |recorder| {
        build_plan(
            &args,
            decoder.as_ref(),
            prover.as_ref(),
            &alphabet,
            recorder,
        )
    };

    let clock = Arc::new(MonotonicClock::new());
    let spans = Spans {
        clock: Arc::clone(&clock),
        trace: SpanTrace::new(DRIVER_TRACE_CAPACITY),
    };
    let recorder = || MetricsRecorder::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);

    let universe = match spans.time("universe.build", || {
        Universe::lemma31(args.max_n, alphabet.clone())
    }) {
        Ok(universe) => universe,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            return ExitCode::from(2);
        }
    };
    let (blocks, labelings) = (universe.blocks().len(), universe.len());
    drop(universe);

    drop(spans.time("plan.run.untraced", || plan(None).run()));

    let (root, traced) = (recorder(), recorder());
    let mut shard_report_bytes = 0usize;
    let rendered = spans.time("audit", || {
        let report = match args.shards {
            Some(of) => {
                let sharded = plan(None);
                let shipped = spans.time("shard.run", || {
                    run_shards(of, 0, Some(&root as &dyn SweepRecorder), |spec, _| {
                        Ok(sharded.run_shard(spec))
                    })
                })?;
                shard_report_bytes = shipped.results.iter().map(String::len).sum();
                spans.time("shard.merge", || {
                    plan(Some(&root)).run_with_shards(&shipped.results)
                })?
            }
            None => spans.time("plan.run", || plan(Some(&root)).run()),
        };
        Ok::<_, String>(spans.time("render", || {
            if args.stable {
                report.to_stable_json()
            } else {
                report.to_json()
            }
        }))
    });
    let rendered = match rendered {
        Ok(rendered) => rendered,
        Err(e) => {
            eprintln!("perfbench-probe: sharded run failed: {e}");
            return ExitCode::from(1);
        }
    };

    let walked = if args.shards.is_some() {
        drop(spans.time("plan.run.traced", || plan(Some(&traced)).run()));
        &traced
    } else {
        &root
    };
    drop(spans.time("plan.run.untraced.after", || plan(None).run()));

    if let Some(path) = &args.report_out {
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("perfbench-probe: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "{{\n\"blocks\": {blocks},\n\"labelings\": {labelings},\n\"render_bytes\": {},\n\
         \"shard_report_bytes\": {shard_report_bytes},\n\"probe_trace\": {},\n\
         \"root_trace\": {},\n\"root_metrics\": {},\n\"walk_trace\": {},\n\"walk_metrics\": {}}}",
        rendered.len(),
        spans.trace.to_chrome_json(),
        root.trace_json(),
        root.metrics_json(),
        walked.trace_json(),
        walked.metrics_json(),
    );
    ExitCode::SUCCESS
}
