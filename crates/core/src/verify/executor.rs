//! The walk primitives every sweep shares: the view-skeleton cache, the
//! odometer [`Walker`], delta-evaluated verdict channels, and the lazy
//! draw loop for iterator sources. The indexed walk loop itself — one
//! chunk-claiming loop for every thread count — lives in
//! [`super::panel`]; a typed
//! [`SweepSession::run`](super::SweepSession::run) is a one-member panel.
//!
//! # Hot path: odometer stepping and delta evaluation
//!
//! Within a claimed chunk, items of an `All`-labeled block are *not*
//! decoded independently: each worker keeps a scratch [`Labeling`] plus
//! its mixed-radix digit vector and steps it like an odometer — one full
//! decode at the chunk's first item ([`Universe::decode_into`], the
//! oracle), then one digit change per subsequent item, reusing every
//! certificate allocation. Nothing is allocated per item.
//!
//! When the check opts in via [`PropertyCheck::verdict_decoder`], node
//! verdicts are *delta-evaluated* on top: the walk precomputes, per
//! block, the radius-r ball around each node (by inverting the skeleton
//! cache's canonical node orders — `u ∈ ball(v)` iff `v` appears in `u`'s
//! skeleton), and when digit `v` steps it re-runs the decoder only for
//! nodes in `ball(v)`, patching a per-thread verdict vector. This is sound
//! because a node's verdict is a function of its radius-r view alone (the
//! LCP model), and the view of `u` reads exactly the certificates of the
//! nodes in `u`'s skeleton. A per-thread [`VerdictMemo`] short-cuts
//! repeated local configurations without even stamping the view: one
//! dense table per skeleton class, indexed by the ball's digits read as a
//! mixed-radix number.
//!
//! The index-decoded path survives as [`SweepStrategy::DecodeOracle`]; the
//! `engine_parity` suite proves the strategies observationally identical.
//! All of this is invisible to reports and fragments — determinism is
//! unchanged because the stepped labeling at index `i` equals the decoded
//! labeling at index `i` exactly.
//!
//! # Skeleton cache
//!
//! Before the sweep, the walk computes one [`ViewSkeleton`] per node per
//! requested `(radius, id_mode)` configuration per block. During the
//! sweep, [`ItemCtx::view`] stamps the item's labeling onto the cached
//! skeleton instead of re-canonicalizing — the cache is read-only and
//! lock-free while workers run. For an all-labelings block this turns
//! `|alphabet|^n` BFS canonicalizations per node into one. Skeletons with
//! equal protos on blocks with equal alphabets additionally share a
//! *class id* (assigned in build order, hence deterministic), the anchor
//! of the verdict memo and of every digit key: a class pins the skeleton
//! *and* which certificate each digit names.

use super::budget::SweepError;
use super::check::{ExecEvidence, PropertyCheck, SweepOutcome, VerificationReport};
use super::telemetry::WorkerTally;
use super::universe::{Block, Coverage, LabelSource, Universe, UniverseItem};
use crate::decoder::{Decoder, Verdict};
use crate::instance::Instance;
use crate::label::{Certificate, Labeling};
use crate::view::{IdMode, View, ViewSkeleton};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How to drive the sweep: how many workers the one chunk-claiming walk
/// runs. Worker 0 is the calling thread, so one worker spawns nothing. The
/// budget deadline is checked at chunk claims in every mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// As many workers as the machine has cores when the universe is
    /// large enough to amortize thread startup; one worker otherwise.
    Auto,
    /// Exactly this many workers (values ≤ 1 mean one: `Parallel(1)` is
    /// the calling thread alone, claiming chunks in index order). Below
    /// [the small-universe threshold](PARALLEL_THRESHOLD) this also runs
    /// one worker: thread startup dominates such sweeps, and the
    /// determinism contract makes the fallback observationally invisible.
    Parallel(usize),
}

/// Below this many items, every mode runs one worker (the calling
/// thread) in the same chunk loop, with the deadline still checked at
/// chunk claims. Thread startup costs more than the sweep itself at this
/// size (`BENCH_engine.json` records the crossover), and since every
/// worker count is observationally identical, only wall-clock changes.
pub const PARALLEL_THRESHOLD: usize = 64;

/// How the executor enumerates items within a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepStrategy {
    /// Odometer stepping with delta-evaluated verdicts — the production
    /// hot path (see the module docs).
    #[default]
    DeltaStepping,
    /// Independent div/mod index decoding with full per-item inspection —
    /// the reference oracle the parity suite compares against.
    DecodeOracle,
    /// Delta stepping restricted to canonical orbit representatives under
    /// the symmetries the check declares via
    /// [`PropertyCheck::symmetry_class`]: non-canonical items are stepped
    /// over without inspection, and each representative carries its orbit
    /// size in [`ItemCtx::multiplicity`]. Observationally identical to
    /// [`SweepStrategy::DeltaStepping`] (verdicts, witnesses, `checked`);
    /// checks declaring no symmetry fall back to the full walk.
    Quotient,
}

/// Engine tuning knobs. `Default` is the production configuration:
/// delta-stepping enumeration with memoization enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOpts {
    /// Enumeration strategy.
    pub strategy: SweepStrategy,
    /// Whether memo layers (the executor's verdict memo and any
    /// check-side interner front cache, via [`ItemCtx::memo_enabled`]) are
    /// active. Disabling it must not change any verdict — only counters
    /// and wall-clock — which the parity suite asserts.
    pub memo: bool,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            strategy: SweepStrategy::DeltaStepping,
            memo: true,
        }
    }
}

impl SweepOpts {
    /// The index-decoded, unmemoized reference configuration.
    pub fn oracle() -> Self {
        SweepOpts {
            strategy: SweepStrategy::DecodeOracle,
            memo: false,
        }
    }

    /// The symmetry-quotient configuration: delta stepping over canonical
    /// orbit representatives only.
    pub fn quotient() -> Self {
        SweepOpts {
            strategy: SweepStrategy::Quotient,
            memo: true,
        }
    }
}

/// Per-block, per-configuration view skeletons, shared by all labelings.
pub(super) struct SkeletonCache {
    /// Requested `(radius, id_mode)` configurations.
    configs: Vec<(usize, IdMode)>,
    /// `per_block[b][c][v]` = skeleton of node `v` in block `b` under
    /// configuration `c`.
    pub(super) per_block: Vec<Vec<Vec<ViewSkeleton>>>,
    /// `class_of[b][c][v]` = dense id of the skeleton's proto together
    /// with block `b`'s `All` alphabet (if any): equal protos on blocks
    /// with equal alphabets (across nodes *and* blocks) share a class, so
    /// a `(class, ball digits)` pair identifies a stamped view exactly.
    /// Assigned in build order — deterministic for a given universe and
    /// config list.
    class_of: Vec<Vec<Vec<u32>>>,
    /// Skeletons computed while populating the cache.
    pub(super) populated: usize,
}

impl SkeletonCache {
    pub(super) fn build(universe: &Universe, mut configs: Vec<(usize, IdMode)>) -> SkeletonCache {
        configs.dedup();
        configs.sort_unstable_by_key(|&(r, m)| (r, m as u8));
        configs.dedup();
        let mut populated = 0;
        // Digits index the block's alphabet, so equal digits on blocks
        // with different alphabets name different certificates: a class
        // is a proto plus an alphabet id (0 for blocks without an `All`
        // alphabet). Blocks rarely switch alphabets, so the last one is
        // compared before hashing.
        let mut alphabets: HashMap<&[Certificate], u32> = HashMap::new();
        let mut last: Option<(&[Certificate], u32)> = None;
        let mut classes: HashMap<(View, u32), u32> = HashMap::new();
        let mut class_of: Vec<Vec<Vec<u32>>> = Vec::with_capacity(universe.blocks().len());
        let per_block: Vec<Vec<Vec<ViewSkeleton>>> = universe
            .blocks()
            .iter()
            .map(|block| {
                let alphabet = match (block.labels(), last) {
                    (LabelSource::All { alphabet }, Some((prev, id))) if prev == alphabet => id,
                    (LabelSource::All { alphabet }, _) => {
                        let next =
                            u32::try_from(alphabets.len() + 1).expect("alphabet count fits u32");
                        let id = *alphabets.entry(alphabet).or_insert(next);
                        last = Some((alphabet, id));
                        id
                    }
                    _ => 0,
                };
                let mut block_classes = Vec::with_capacity(configs.len());
                let per_config: Vec<Vec<ViewSkeleton>> = configs
                    .iter()
                    .map(|&(radius, id_mode)| {
                        let n = block.instance().graph().node_count();
                        populated += n;
                        let skeletons: Vec<ViewSkeleton> = (0..n)
                            .map(|v| ViewSkeleton::compute(block.instance(), v, radius, id_mode))
                            .collect();
                        block_classes.push(
                            skeletons
                                .iter()
                                .map(|s| {
                                    let next =
                                        u32::try_from(classes.len()).expect("class count fits u32");
                                    *classes.entry((s.proto().clone(), alphabet)).or_insert(next)
                                })
                                .collect::<Vec<u32>>(),
                        );
                        skeletons
                    })
                    .collect();
                class_of.push(block_classes);
                per_config
            })
            .collect();
        SkeletonCache {
            configs,
            per_block,
            class_of,
            populated,
        }
    }

    pub(super) fn config_index(&self, radius: usize, id_mode: IdMode) -> Option<usize> {
        self.configs.iter().position(|&c| c == (radius, id_mode))
    }
}

/// Handed to [`PropertyCheck::inspect`]: view extraction for the item's
/// block, backed by the shared skeleton cache.
pub struct ItemCtx<'a> {
    block: usize,
    cache: &'a SkeletonCache,
    hits: &'a AtomicUsize,
    misses: &'a AtomicUsize,
    memo: bool,
    multiplicity: u64,
}

impl<'a> ItemCtx<'a> {
    /// Assembles a context for one item of `block`. Engine-internal: the
    /// panel walk builds contexts against its unioned cache, the lazy
    /// draw loop against its per-source cache.
    pub(super) fn new(
        block: usize,
        cache: &'a SkeletonCache,
        hits: &'a AtomicUsize,
        misses: &'a AtomicUsize,
        memo: bool,
        multiplicity: u64,
    ) -> ItemCtx<'a> {
        ItemCtx {
            block,
            cache,
            hits,
            misses,
            memo,
            multiplicity,
        }
    }
}

impl ItemCtx<'_> {
    /// The item's own view of node `v` (the item's labeling, stamped onto
    /// the block's cached skeleton when `(radius, id_mode)` was requested
    /// via [`PropertyCheck::view_configs`]).
    pub fn view(&self, item: &UniverseItem<'_>, v: usize, radius: usize, id_mode: IdMode) -> View {
        self.view_with(item, item.labeling, v, radius, id_mode)
    }

    /// Like [`ItemCtx::view`] but stamping an arbitrary labeling of the
    /// same instance (e.g. a prover's labeling in a completeness check).
    pub fn view_with(
        &self,
        item: &UniverseItem<'_>,
        labeling: &Labeling,
        v: usize,
        radius: usize,
        id_mode: IdMode,
    ) -> View {
        if let Some(c) = self.cache.config_index(radius, id_mode) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return self.cache.per_block[self.block][c][v].stamp(labeling);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        View::extract(item.instance, labeling, v, radius, id_mode)
    }

    /// Whether memo layers are enabled for this sweep (see
    /// [`SweepOpts::memo`]). Checks with their own caches (e.g. the
    /// neighborhood scan's view interner front cache) honor this so
    /// "memo off" really exercises the unmemoized path.
    pub fn memo_enabled(&self) -> bool {
        self.memo
    }

    /// How many universe items this item stands for: 1 on every strategy
    /// except [`SweepStrategy::Quotient`], where a canonical orbit
    /// representative carries its exact orbit size. Counting checks
    /// multiply per-item tallies by this to stay bit-exact against the
    /// full walk.
    pub fn multiplicity(&self) -> u64 {
        self.multiplicity
    }

    /// The cached skeleton identity of node `v` under `(radius,
    /// id_mode)`: the skeleton's class id plus its canonical node order
    /// (which original nodes the view reads, in stamping order). `None`
    /// when the configuration was not requested via
    /// [`PropertyCheck::view_configs`]. Feed into
    /// [`digit_key`](super::interner::digit_key) with the item's digits to
    /// get a compact identity of the stamped view.
    pub fn skeleton_key(
        &self,
        v: usize,
        radius: usize,
        id_mode: IdMode,
    ) -> Option<(u32, &[usize])> {
        let c = self.cache.config_index(radius, id_mode)?;
        Some((
            self.cache.class_of[self.block][c][v],
            self.cache.per_block[self.block][c][v].original_nodes(),
        ))
    }

    /// Runs `decoder` on every node of the item, in node order.
    pub fn run<D: Decoder + ?Sized>(&self, item: &UniverseItem<'_>, decoder: &D) -> Vec<Verdict> {
        self.run_with(item, item.labeling, decoder)
    }

    /// Runs `decoder` on every node under an arbitrary labeling.
    pub fn run_with<D: Decoder + ?Sized>(
        &self,
        item: &UniverseItem<'_>,
        labeling: &Labeling,
        decoder: &D,
    ) -> Vec<Verdict> {
        let (radius, id_mode) = (decoder.radius(), decoder.id_mode());
        (0..item.instance.graph().node_count())
            .map(|v| decoder.decide(&self.view_with(item, labeling, v, radius, id_mode)))
            .collect()
    }

    /// Whether every node accepts the item (early exit on first reject).
    pub fn accepts_all<D: Decoder + ?Sized>(&self, item: &UniverseItem<'_>, decoder: &D) -> bool {
        let (radius, id_mode) = (decoder.radius(), decoder.id_mode());
        (0..item.instance.graph().node_count()).all(|v| {
            decoder
                .decide(&self.view(item, v, radius, id_mode))
                .is_accept()
        })
    }
}

/// A one-block universe holding the bare `instance`: the synthetic
/// universe a lazy sweep over labelings of one instance reduces against.
pub(super) fn single_instance(instance: Instance, coverage: Coverage) -> Universe {
    // invariant: one `Unlabeled` block contributes exactly one item, far
    // from overflowing the flat index space.
    Universe::new(vec![Block::new(instance, LabelSource::Unlabeled)], coverage)
        .expect("a single bare instance cannot overflow")
}

/// The engine behind [`LazySweep`](super::LazySweep): draws items one at a
/// time and stops pulling at the first short-circuit, so a stateful
/// source advances exactly `checked` times and memory stays `O(1)` in the
/// stream length.
///
/// `draw` turns a source item into its labeling plus, when the item
/// brings its own instance, a one-block universe for it (whose skeleton
/// cache is then built on arrival — the per-variant cost an eager
/// universe pays too). Items without one are labelings of `universe`'s
/// single instance, whose cache is built once up front. The report's
/// `universe_size` is the number of items drawn, and
/// [`PropertyCheck::reduce`] receives `universe` — lazy sweeps suit checks
/// whose `reduce` depends only on the partials and the [`SweepOutcome`].
pub(super) fn run_lazy<C: PropertyCheck, T>(
    check: &C,
    universe: &Universe,
    items: impl IntoIterator<Item = T>,
    mut draw: impl FnMut(T) -> (Labeling, Option<Universe>),
) -> VerificationReport<C::Verdict> {
    let start = Instant::now();
    let configs = check.view_configs();
    let shared = SkeletonCache::build(universe, configs.clone());
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(shared.populated);
    let mut partials = Vec::new();
    let mut errors = Vec::new();
    let mut checked = 0usize;
    let mut short_circuited = false;
    for source in items {
        let (labeling, own) = draw(source);
        let own = own.map(|u| {
            let cache = SkeletonCache::build(&u, configs.clone());
            misses.fetch_add(cache.populated, Ordering::Relaxed);
            (u, cache)
        });
        let (instance, cache) = match &own {
            Some((u, cache)) => (u.blocks()[0].instance(), cache),
            None => (universe.blocks()[0].instance(), &shared),
        };
        let item = UniverseItem {
            index: checked,
            block: 0,
            instance,
            labeling: &labeling,
            digits: None,
        };
        checked += 1;
        let ctx = ItemCtx::new(0, cache, &hits, &misses, true, 1);
        match catch_unwind(AssertUnwindSafe(|| check.inspect(&item, &ctx))) {
            Ok(Some(partial)) => {
                let stop = check.short_circuits(&partial);
                partials.push((item.index, partial));
                if stop {
                    short_circuited = true;
                    break;
                }
            }
            Ok(None) => {}
            Err(payload) => errors.push(SweepError::from_panic(item.index, payload)),
        }
    }
    let coverage = if !errors.is_empty() {
        Coverage::Sampled
    } else {
        universe.coverage()
    };
    let outcome = SweepOutcome {
        checked,
        universe_size: checked,
        short_circuited,
    };
    let verdict = check.reduce(universe, partials, &outcome);
    VerificationReport {
        verdict,
        evidence: ExecEvidence {
            checked,
            universe_size: checked,
            short_circuited,
            interrupted: false,
            coverage,
            errors,
            cache_hits: hits.load(Ordering::Relaxed),
            cache_misses: misses.load(Ordering::Relaxed),
            memo_hits: 0,
            memo_misses: 0,
            elapsed: start.elapsed(),
            threads: 1,
            interner: check.interner_report(),
        },
    }
}

pub(super) fn resolve_threads(mode: ExecMode, items: usize) -> usize {
    if items < PARALLEL_THRESHOLD {
        return 1;
    }
    match mode {
        ExecMode::Parallel(t) => t.max(1),
        ExecMode::Auto => std::thread::available_parallelism()
            .map(|p| p.get().min(items))
            .unwrap_or(1),
    }
}

/// The delta-evaluation plan for a check with a
/// [`PropertyCheck::verdict_decoder`].
pub(super) struct DeltaDriver<'a> {
    decoder: &'a dyn Decoder,
    /// Index of the decoder's `(radius, id_mode)` in the skeleton cache.
    config: usize,
    /// `balls[b][v]` = nodes of block `b` whose decoder-config view reads
    /// node `v`'s certificate (computed by inverting skeleton node
    /// orders). Empty for blocks outside the verdict fast path.
    balls: Vec<Vec<Vec<usize>>>,
    /// `radix[b]` = block `b`'s alphabet size, the base its digits count
    /// in (0 outside the verdict fast path).
    radix: Vec<usize>,
    /// Whether block `b` gets the verdict fast path: an `All`-labeled
    /// block the check actually reads verdicts on.
    pub(super) verdict_blocks: Vec<bool>,
}

impl<'a> DeltaDriver<'a> {
    pub(super) fn build(
        decoder: &'a dyn Decoder,
        universe: &Universe,
        cache: &SkeletonCache,
        uses_verdicts: impl Fn(usize) -> bool,
    ) -> DeltaDriver<'a> {
        let config = cache
            .config_index(decoder.radius(), decoder.id_mode())
            .expect("decoder config was appended to the cache");
        let verdict_blocks: Vec<bool> = universe
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| matches!(block.labels(), LabelSource::All { .. }) && uses_verdicts(b))
            .collect();
        let radix: Vec<usize> = universe
            .blocks()
            .iter()
            .zip(&verdict_blocks)
            .map(|(block, &fast)| match block.labels() {
                LabelSource::All { alphabet } if fast => alphabet.len(),
                _ => 0,
            })
            .collect();
        let balls = universe
            .blocks()
            .iter()
            .enumerate()
            .map(|(b, block)| {
                if !verdict_blocks[b] {
                    return Vec::new();
                }
                let n = block.instance().graph().node_count();
                let mut balls = vec![Vec::new(); n];
                for u in 0..n {
                    let order = cache.per_block[b][config][u].original_nodes();
                    #[cfg(conformance_mutants)]
                    let order = if crate::mutants::active("delta_ball_misindex") && order.len() > 1
                    {
                        &order[1..]
                    } else {
                        order
                    };
                    for &orig in order {
                        balls[orig].push(u);
                    }
                }
                balls
            })
            .collect();
        DeltaDriver {
            decoder,
            config,
            balls,
            radix,
            verdict_blocks,
        }
    }
}

/// Per-thread odometer scratch: the enumeration state one worker steps
/// through the universe. Everything here is reused across items — the hot
/// loop performs no per-item allocation. Verdict state lives separately in
/// [`VerdictScratch`] so a fused panel can drive many verdict channels off
/// one walker.
#[derive(Default)]
pub(super) struct Walker {
    /// `(block, offset)` the scratch currently describes, if any.
    pos: Option<(usize, usize)>,
    /// Mixed-radix digits (node 0 least significant); empty for
    /// `Fixed`/`Unlabeled` blocks.
    pub(super) digits: Vec<usize>,
    /// The decoded labeling (certificate allocations reused in place).
    pub(super) labeling: Labeling,
    /// Digits changed by the last odometer step (a carry chain `0..=j`).
    changed: Vec<usize>,
}

impl Walker {
    /// Moves the scratch to `(block, offset)`. Returns `true` when reached
    /// by a single odometer step from the previous item (`changed` lists
    /// the carry chain), `false` when a full resync decode was needed.
    pub(super) fn advance_to(&mut self, universe: &Universe, block: usize, offset: usize) -> bool {
        if offset > 0 && self.pos == Some((block, offset - 1)) && !self.digits.is_empty() {
            if let LabelSource::All { alphabet } = universe.blocks()[block].labels() {
                let k = alphabet.len();
                self.changed.clear();
                for v in 0..self.digits.len() {
                    self.changed.push(v);
                    let d = self.digits[v] + 1;
                    if d < k {
                        self.digits[v] = d;
                        #[cfg(conformance_mutants)]
                        if crate::mutants::active("delta_stale_digit") {
                            self.pos = Some((block, offset));
                            return true;
                        }
                        self.labeling.assign(v, &alphabet[d]);
                        self.pos = Some((block, offset));
                        return true;
                    }
                    self.digits[v] = 0;
                    self.labeling.assign(v, &alphabet[0]);
                }
                // Carry ran off the top — `offset` is not in this block's
                // range. Unreachable for located indices; resync below
                // restores a consistent state regardless.
            }
        }
        universe.decode_into(block, offset, &mut self.labeling, &mut self.digits);
        self.pos = Some((block, offset));
        false
    }
}

/// One verdict channel's delta-maintained state: the per-node verdict
/// vector of a [`DeltaDriver`]'s decoder, tagged with the `(block,
/// offset)` it currently describes. A plain sweep owns exactly one; a
/// fused panel owns one per deduplicated decoder channel, all fed by the
/// same [`Walker`].
#[derive(Default)]
pub(super) struct VerdictScratch {
    /// `(block, offset)` the verdicts describe; `None` = invalid (never
    /// computed, mid-mutation panic, or deliberately dropped).
    pos: Option<(usize, usize)>,
    /// Per-node verdicts of the channel's decoder for `pos`.
    pub(super) verdicts: Vec<Verdict>,
    /// Dedup scratch for multi-digit carry steps (all-false between uses).
    touched: Vec<bool>,
    /// Node list scratch for multi-digit carry steps.
    pending: Vec<usize>,
}

/// Entries of the largest dense memo table: a ball whose digit space
/// (`|alphabet|^|ball|`) is larger is decided directly, unmemoized.
const MEMO_TABLE_MAX: usize = 1 << 20;

/// A memo table entry: not yet decided.
const UNKNOWN: u8 = 0;
/// A memo table entry: the decoder accepts.
const ACCEPTS: u8 = 1;
/// A memo table entry: the decoder rejects.
const REJECTS: u8 = 2;

/// One skeleton class's memo: a dense table with one byte per digit
/// assignment of the class's ball ([`memo_index`]), or none when that
/// table would exceed [`MEMO_TABLE_MAX`] entries.
enum MemoTable {
    Dense(Box<[u8]>),
    Direct,
}

impl MemoTable {
    /// The memo of a class whose ball has `ball` nodes over a `k`-letter
    /// alphabet.
    fn new(k: usize, ball: usize) -> MemoTable {
        let len = u32::try_from(ball).ok().and_then(|b| k.checked_pow(b));
        match len.filter(|&len| len <= MEMO_TABLE_MAX) {
            Some(len) => MemoTable::Dense(vec![UNKNOWN; len].into_boxed_slice()),
            None => MemoTable::Direct,
        }
    }
}

/// Per-thread verdict memo (lock-free: each worker owns one): one
/// [`MemoTable`] per skeleton class, made on first touch. A class pins
/// the ball's nodes and the alphabet its digits index, so an entry names
/// one stamped view and hence one verdict.
pub(super) struct VerdictMemo {
    /// `tables[class]`, `None` (or past the end) until the class is
    /// first decided.
    tables: Vec<Option<MemoTable>>,
    enabled: bool,
    pub(super) hits: usize,
    pub(super) misses: usize,
}

impl VerdictMemo {
    pub(super) fn new(enabled: bool) -> VerdictMemo {
        VerdictMemo {
            tables: Vec::new(),
            enabled,
            hits: 0,
            misses: 0,
        }
    }
}

/// A ball's dense memo index: its digits in skeleton order read as a
/// mixed-radix number in base `k`, `Σ digits[order[i]]·kⁱ` — below
/// `k^|order|`, and distinct for distinct digit assignments.
#[cfg_attr(not(conformance_mutants), allow(unused_variables))]
fn memo_index(order: &[usize], digits: &[usize], k: usize) -> usize {
    let mut index = 0;
    let mut place = 1;
    for (slot, &orig) in order.iter().enumerate() {
        let digit = digits[orig];
        #[cfg(conformance_mutants)]
        if crate::mutants::active("digit_key_slot_alias") && slot > 2 {
            // Overwrites slot 2's digit instead of taking a place of its own.
            index = index % (k * k) + digit * k * k;
            continue;
        }
        index += digit * place;
        place *= k;
    }
    index
}

/// One node's verdict: a dense memo probe first (when enabled and the
/// ball's table fits), decoder run on the stamped view otherwise.
fn node_verdict(
    driver: &DeltaDriver<'_>,
    cache: &SkeletonCache,
    block: usize,
    u: usize,
    labeling: &Labeling,
    digits: &[usize],
    memo: &mut VerdictMemo,
) -> Verdict {
    let skel = &cache.per_block[block][driver.config][u];
    if memo.enabled {
        let class = cache.class_of[block][driver.config][u] as usize;
        #[cfg(conformance_mutants)]
        let class = if crate::mutants::active("memo_key_class_collision") {
            0
        } else {
            class
        };
        let (order, k) = (skel.original_nodes(), driver.radix[block]);
        if class >= memo.tables.len() {
            memo.tables.resize_with(class + 1, || None);
        }
        let table = memo.tables[class].get_or_insert_with(|| MemoTable::new(k, order.len()));
        if let MemoTable::Dense(table) = table {
            let index = memo_index(order, digits, k);
            match table[index] {
                ACCEPTS => {
                    memo.hits += 1;
                    return Verdict::Accept;
                }
                REJECTS => {
                    memo.hits += 1;
                    return Verdict::Reject;
                }
                _ => {}
            }
            let verdict = driver.decoder.decide(&skel.stamp(labeling));
            table[index] = if verdict.is_accept() {
                ACCEPTS
            } else {
                REJECTS
            };
            memo.misses += 1;
            return verdict;
        }
    }
    memo.misses += 1;
    driver.decoder.decide(&skel.stamp(labeling))
}

/// Brings one channel's [`VerdictScratch`] up to date for the item at
/// `(block, offset)`: a no-op when the scratch is already current, a full
/// recompute after a resync (or when the scratch describes any other
/// position), a ball-restricted patch when the walker reached `offset` by
/// a single odometer step from the position the scratch describes. Runs
/// under the caller's `catch_unwind` (the decoder is check code); the
/// scratch position is cleared for the duration of the mutation, so a
/// decoder panic leaves it invalid and the next refresh recomputes from
/// the odometer state, which engine code alone maintains.
#[allow(clippy::too_many_arguments)] // the args are the walk state, not a config
pub(super) fn refresh_verdicts(
    driver: &DeltaDriver<'_>,
    cache: &SkeletonCache,
    block: usize,
    offset: usize,
    walker: &Walker,
    scratch: &mut VerdictScratch,
    memo: &mut VerdictMemo,
    tally: &mut WorkerTally,
    stepped: bool,
) {
    if scratch.pos == Some((block, offset)) {
        // Already current: a second panel member on the same channel.
        tally.readback();
        return;
    }
    tally.refresh();
    let can_patch = stepped && offset > 0 && scratch.pos == Some((block, offset - 1));
    #[cfg(conformance_mutants)]
    let can_patch = can_patch
        || (crate::mutants::active("delta_dropped_resync")
            && scratch.pos.is_some()
            && !scratch.verdicts.is_empty());
    let n = cache.per_block[block][driver.config].len();
    scratch.pos = None;
    let Walker {
        ref labeling,
        ref digits,
        ref changed,
        ..
    } = *walker;
    let VerdictScratch {
        ref mut verdicts,
        ref mut touched,
        ref mut pending,
        ..
    } = *scratch;
    if !can_patch {
        tally.decisions(n as u64);
        verdicts.clear();
        verdicts
            .extend((0..n).map(|u| node_verdict(driver, cache, block, u, labeling, digits, memo)));
    } else if changed.len() == 1 {
        // The common case (probability (k-1)/k): one digit stepped, only
        // its ball re-decides.
        let ball = &driver.balls[block][changed[0]];
        tally.decisions(ball.len() as u64);
        for &u in ball {
            verdicts[u] = node_verdict(driver, cache, block, u, labeling, digits, memo);
        }
    } else {
        // Carry chain: re-decide the union of the changed digits' balls.
        touched.resize(n, false);
        pending.clear();
        for &d in changed {
            for &u in &driver.balls[block][d] {
                if !touched[u] {
                    touched[u] = true;
                    pending.push(u);
                }
            }
        }
        tally.decisions(pending.len() as u64);
        for &u in pending.iter() {
            touched[u] = false;
            verdicts[u] = node_verdict(driver, cache, block, u, labeling, digits, memo);
        }
    }
    scratch.pos = Some((block, offset));
}
