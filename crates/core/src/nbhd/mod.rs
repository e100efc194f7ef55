//! The accepting neighborhood graph `V(D, n)` (paper, Section 3).
//!
//! `AViews(D, n)` is the set of views accepted by `D` somewhere in a
//! labeled yes-instance; `V(D, n)` connects two accepting views iff they
//! are *yes-instance-compatible* (they occur at the two endpoints of an
//! edge of some labeled yes-instance). Lemma 3.1 constructs `V(D, n)` by
//! iterating over labeled yes-instances, and [`sources`] produces the
//! universes (exhaustive for small n, or the paper's seeded figures).
//!
//! # One construction
//!
//! `V(D, n)` is a union over labeled yes-instances, so the iteration folds
//! item by item into an [`NbhdSummary`] and summaries merge in any order.
//! The summary keeps first witnesses only: for every view accepted in a
//! yes-instance its first accepting node, and for every unordered pair of
//! views adjacent in a yes-instance (self pairs included) its first edge.
//! Materializing it keeps the accepted views in first-witness order, turns
//! a pair into an edge or a self-loop only when both of its views are
//! accepted, and clones only the witness instances.
//!
//! Which nodes the fold reads depends on whether a node's verdict is a
//! function of its view in the graph's id mode: it is when the graph's
//! views keep at least the identifier information the decoder reads
//! (Full ⊒ OrderOnly ⊒ Anonymous), as for every audit decoder. Then a
//! view is accepted everywhere or nowhere, so the fold never interns a
//! rejecting node, pairs only two accepting nodes, and skips an item with
//! no accepting node. Otherwise (the decoder reads identifiers the views
//! drop) a view rejected in one instance can be accepted in another, so
//! pairs cover every node and which pairs become live is known only at
//! the end.
//!
//! The engine runs that fold as [`NbhdSweep`]: workers fold their items
//! into one summary each ([`PropertyCheck::fold_partial`]), fragments and
//! shards carry summaries as ordinary partials, and the reduce merges and
//! materializes them. [`NbhdGraph::extend`] runs the same per-item fold
//! sequentially into a summary the graph keeps, and [`NbhdGraph::build`]
//! is one `extend` of an empty graph.
//!
//! Lemma 3.2 then characterizes hiding: `D` hides a k-coloring iff
//! `V(D, n)` is not k-colorable — i.e. iff [`NbhdGraph::odd_cycle`]
//! succeeds (for k = 2) or [`NbhdGraph::k_colorable`] fails. The sweep
//! applies it on request ([`NbhdSweep::with_hiding`]), as it does the
//! extractability classification ([`NbhdSweep::with_extractability`]).

pub mod sources;

use crate::decoder::{run, Decoder, Verdict};
use crate::instance::LabeledInstance;
use crate::properties::hiding::{check_hiding, HidingVerdict};
use crate::properties::quantified::ExtractabilityMap;
use crate::verify::{
    digit_key, InternerReport, ItemCtx, PropertyCheck, SweepOutcome, SweepSession, SymmetrySpec,
    Universe, UniverseItem, VerificationReport, ViewId, ViewInterner,
};
use crate::view::{IdMode, View};
use hiding_lcp_graph::algo::{bipartite, coloring};
use hiding_lcp_graph::Graph;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A first witness: `(item, node)` for a view, `(item, edge position)`
/// for a pair of views, where `item` numbers a labeled yes-instance and an
/// edge position indexes [`Graph::edges`]. The least witness wins.
pub(crate) type Witness = (usize, usize);

/// Multiply-rotate hashing for interner ids. The keys are small dense
/// integers hashed once per node and edge of every yes-labeling, and the
/// interner mints them (input never picks one), so SipHash's flood
/// resistance buys nothing here.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The first witness per key.
type Firsts<K> = HashMap<K, Witness, BuildHasherDefault<IdHasher>>;

/// Whether a node's verdict is a function of its view in `scan` mode when
/// the decoder canonicalizes views in `decoder` mode: the scan keeps at
/// least the identifier information the decoder reads (Full ⊒ OrderOnly ⊒
/// Anonymous), so equal scan views mean equal decoder views.
fn verdict_follows_view(scan: IdMode, decoder: IdMode) -> bool {
    match scan {
        IdMode::Full => true,
        IdMode::OrderOnly => decoder != IdMode::Full,
        IdMode::Anonymous => decoder == IdMode::Anonymous,
    }
}

fn note<K: Hash + Eq>(firsts: &mut Firsts<K>, key: K, witness: Witness) {
    firsts
        .entry(key)
        .and_modify(|w| *w = (*w).min(witness))
        .or_insert(witness);
}

/// The mergeable state of the Lemma 3.1 scan: first witnesses keyed by
/// the view ids of one [`ViewInterner`] (see the module docs). Merging is
/// an element-wise minimum, so it is associative and commutative.
#[derive(Debug, Clone, Default)]
pub struct NbhdSummary {
    /// Per view accepted somewhere, its first accepting node.
    accepted: Firsts<ViewId>,
    /// Per candidate pair (self pairs included), its first edge.
    pairs: Firsts<(ViewId, ViewId)>,
}

impl NbhdSummary {
    /// The summary of the labeled yes-instance numbered `item`, whose node
    /// `v` accepts iff `accepts(v)` and has the view `id(v)` interns. With
    /// `accepting_only` (see [`verdict_follows_view`]) rejecting nodes are
    /// neither interned nor paired, and an item with no accepting node has
    /// no summary.
    fn of_item(
        item: usize,
        graph: &Graph,
        accepting_only: bool,
        accepts: impl Fn(usize) -> bool,
        mut id: impl FnMut(usize) -> ViewId,
    ) -> Option<NbhdSummary> {
        if accepting_only && !graph.nodes().any(&accepts) {
            return None;
        }
        let ids: Vec<Option<ViewId>> = graph
            .nodes()
            .map(|v| (!accepting_only || accepts(v)).then(|| id(v)))
            .collect();
        let mut summary = NbhdSummary::default();
        for (v, &id) in ids.iter().enumerate() {
            if let (Some(id), true) = (id, accepts(v)) {
                note(&mut summary.accepted, id, (item, v));
            }
        }
        for (pos, (u, v)) in graph.edges().enumerate() {
            if let (Some(a), Some(b)) = (ids[u], ids[v]) {
                summary.note_pair(a, b, (item, pos));
            }
        }
        Some(summary)
    }

    fn note_pair(&mut self, a: ViewId, b: ViewId, witness: Witness) {
        note(&mut self.pairs, (a.min(b), a.max(b)), witness);
    }

    /// Merges `other` in: the element-wise minimum of the two summaries.
    pub fn merge(&mut self, mut other: NbhdSummary) {
        let len = |s: &NbhdSummary| s.accepted.len() + s.pairs.len();
        if len(&other) > len(self) {
            std::mem::swap(self, &mut other);
        }
        for (id, w) in other.accepted {
            note(&mut self.accepted, id, w);
        }
        for (pair, w) in other.pairs {
            note(&mut self.pairs, pair, w);
        }
    }

    /// Number of views accepted somewhere.
    pub fn views_accepted(&self) -> usize {
        self.accepted.len()
    }

    /// Number of candidate pairs: unordered pairs of views adjacent in a
    /// yes-instance, self pairs included — of two accepting nodes when the
    /// verdict follows the view, of any two nodes otherwise.
    pub fn candidate_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The summary's witnesses as portable lines (view ids stay behind),
    /// grouped in [`SummaryLine`] order and strictly increasing.
    pub(crate) fn wire_lines(&self) -> Vec<(SummaryLine, Witness)> {
        let accepted = self.accepted.values().map(|&w| (SummaryLine::Accepted, w));
        let pairs = self.pairs.values().map(|&w| (SummaryLine::Pair, w));
        let mut lines: Vec<(SummaryLine, Witness)> = accepted.chain(pairs).collect();
        lines.sort_unstable();
        lines
    }
}

/// The kind of one [`NbhdSummary`] wire line, in shipping order: a view's
/// first accept (`a item node`) and a candidate pair's first edge
/// (`c item pos`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SummaryLine {
    Accepted,
    Pair,
}

impl SummaryLine {
    const TAGS: [(&'static str, SummaryLine); 2] =
        [("a", SummaryLine::Accepted), ("c", SummaryLine::Pair)];

    /// The line's tag on the wire.
    pub(crate) fn tag(self) -> &'static str {
        SummaryLine::TAGS[self as usize].0
    }

    /// The kind a wire tag names, if any.
    pub(crate) fn from_tag(tag: &str) -> Option<SummaryLine> {
        let found = SummaryLine::TAGS.iter().find(|&&(t, _)| t == tag);
        found.map(|&(_, line)| line)
    }
}

/// The Lemma 3.1 construction as a [`PropertyCheck`], and the only one:
/// inspection folds one labeled yes-instance into a [`NbhdSummary`]
/// (no-instances yield nothing), each worker folds its items into one
/// summary, and the reduce merges the summaries and materializes
/// `V(D, n)`, optionally with the Lemma 3.2 hiding verdict and the
/// extractability map ([`NbhdVerdict`]).
///
/// Views are hash-consed through an owned [`ViewInterner`]: within one
/// sweep every distinct view the fold keeps (every accepted view, when
/// the verdict follows the view) is stamped and stored once, and on the
/// executor's delta path the digit-key front cache resolves repeat views
/// without stamping at all. The interner is part of the check's state, so
/// a resumed fragment chain must reuse the *same* check instance for its
/// ids to stay meaningful (ids are opaque and run-specific; every ordering
/// derives from witnesses, never from ids). A check instance is likewise
/// tied to the universe it was built for.
pub struct NbhdSweep<'a, D: ?Sized> {
    decoder: &'a D,
    id_mode: IdMode,
    /// Whether each universe block's graph passed the `is_yes` filter
    /// (evaluated once per block, not once per labeling).
    block_yes: Vec<bool>,
    interner: ViewInterner,
    /// Palette size of the requested hiding verdict, if any.
    hiding: Option<usize>,
    /// Palette size of the requested extractability map, if any.
    extractability: Option<usize>,
}

/// What an [`NbhdSweep`] reduces to: `V(D, ·)` plus the analyses the sweep
/// was asked for.
#[derive(Debug, Clone)]
pub struct NbhdVerdict {
    /// The neighborhood graph.
    pub graph: NbhdGraph,
    /// The Lemma 3.2 verdict, with [`NbhdSweep::with_hiding`].
    pub hiding: Option<HidingVerdict>,
    /// The extractability map, with [`NbhdSweep::with_extractability`].
    pub extractability: Option<ExtractabilityMap>,
}

impl<'a, D: Decoder + ?Sized> NbhdSweep<'a, D> {
    /// Prepares a sweep of `universe`, retaining only blocks whose graph
    /// satisfies `is_yes`.
    pub fn new<F>(decoder: &'a D, id_mode: IdMode, universe: &Universe, is_yes: F) -> Self
    where
        F: Fn(&Graph) -> bool,
    {
        let block_yes = universe
            .blocks()
            .iter()
            .map(|b| is_yes(b.instance().graph()))
            .collect();
        NbhdSweep {
            decoder,
            id_mode,
            block_yes,
            interner: ViewInterner::new(),
            hiding: None,
            extractability: None,
        }
    }

    /// Also applies Lemma 3.2 for `k`-colorings, with the coverage read
    /// off the universe ([`check_hiding`]).
    pub fn with_hiding(mut self, k: usize) -> Self {
        self.hiding = Some(k);
        self
    }

    /// Also classifies the views by the `k`-colorability of their
    /// components ([`ExtractabilityMap`]).
    pub fn with_extractability(mut self, k: usize) -> Self {
        self.extractability = Some(k);
        self
    }

    /// `(front-cache hits, misses)` of the sweep's view interner so far: a
    /// hit resolved a node's view id from its digit key without stamping
    /// the view.
    pub fn interner_stats(&self) -> (usize, usize) {
        self.interner.stats()
    }

    /// The id of node `v`'s view in the graph's id mode: digit-key front
    /// cache first (when the executor provided odometer digits and memo
    /// layers are on), full stamp-and-intern otherwise.
    fn intern_node(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>, v: usize) -> ViewId {
        let radius = self.decoder.radius();
        if ctx.memo_enabled() {
            if let (Some((class, order)), Some(digits)) =
                (ctx.skeleton_key(v, radius, self.id_mode), item.digits)
            {
                if let Some(key) = digit_key(class, order, digits) {
                    if let Some(id) = self.interner.lookup_key(key) {
                        return id;
                    }
                    return self
                        .interner
                        .intern_keyed(key, ctx.view(item, v, radius, self.id_mode));
                }
            }
        }
        self.interner
            .intern(ctx.view(item, v, radius, self.id_mode))
    }

    /// Whether the fold skips rejecting nodes ([`verdict_follows_view`]).
    fn accepting_only(&self) -> bool {
        verdict_follows_view(self.id_mode, self.decoder.id_mode())
    }

    /// The one-item summary of a yes-instance item; `accepts(v)` is node
    /// `v`'s verdict.
    fn summarize(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        accepts: impl Fn(usize) -> bool,
    ) -> Option<NbhdSummary> {
        NbhdSummary::of_item(
            item.index,
            item.instance.graph(),
            self.accepting_only(),
            accepts,
            |v| self.intern_node(item, ctx, v),
        )
    }

    /// Re-stamps one shipped summary line into `summary`, interning into
    /// this sweep's table. The line is untrusted: `item` (already checked
    /// to lie in the report's range) must be a yes-instance, `at` a node
    /// or edge position of it, an accept witness must be a node the
    /// decoder accepts, and when the fold skips rejecting nodes, so must
    /// both ends of a pair.
    pub(crate) fn restamp(
        &self,
        universe: &Universe,
        summary: &mut NbhdSummary,
        line: SummaryLine,
        (item, at): Witness,
    ) -> Result<(), String> {
        let (block, _) = universe.locate(item);
        if !self.block_yes[block] {
            return Err(format!(
                "summary line at item {item} lies on a no-instance block"
            ));
        }
        let li = universe.labeled_instance(item);
        let graph = li.graph();
        let limit = match line {
            SummaryLine::Pair => graph.edge_count(),
            _ => graph.node_count(),
        };
        if at >= limit {
            return Err(format!(
                "summary line `{} {item} {at}` names a node or edge its instance lacks",
                line.tag()
            ));
        }
        let radius = self.decoder.radius();
        let id = |v: usize| self.interner.intern(li.view(v, radius, self.id_mode));
        let accepts = |v: usize| {
            let view = li.view(v, radius, self.decoder.id_mode());
            self.decoder.decide(&view).is_accept()
        };
        match line {
            SummaryLine::Accepted => {
                if !accepts(at) {
                    return Err(format!(
                        "accept witness `a {item} {at}` names a node the decoder rejects"
                    ));
                }
                note(&mut summary.accepted, id(at), (item, at));
            }
            SummaryLine::Pair => {
                // invariant: `at` was checked against the edge count.
                let (u, v) = graph.edges().nth(at).expect("edge position in range");
                if self.accepting_only() && !(accepts(u) && accepts(v)) {
                    return Err(format!(
                        "pair line `c {item} {at}` names an edge with an end the decoder rejects"
                    ));
                }
                summary.note_pair(id(u), id(v), (item, at));
            }
        }
        Ok(())
    }
}

impl<D: Decoder + ?Sized> PropertyCheck for NbhdSweep<'_, D> {
    type Partial = NbhdSummary;
    type Verdict = NbhdVerdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![
            (self.decoder.radius(), self.decoder.id_mode()),
            (self.decoder.radius(), self.id_mode),
        ]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<NbhdSummary> {
        if !self.block_yes[item.block] {
            return None;
        }
        let radius = self.decoder.radius();
        let accepts: Vec<bool> = item
            .instance
            .graph()
            .nodes()
            .map(|v| {
                self.decoder
                    .decide(&ctx.view(item, v, radius, self.decoder.id_mode()))
                    .is_accept()
            })
            .collect();
        self.summarize(item, ctx, |v| accepts[v])
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        Some(&self.decoder)
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        // No-instance blocks are dropped before any verdict is read, so
        // the executor shouldn't maintain verdicts there at all.
        self.block_yes[block]
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<NbhdSummary> {
        if !self.block_yes[item.block] {
            return None;
        }
        self.summarize(item, ctx, |v| verdicts[v].is_accept())
    }

    fn fold_partial(&self, acc: &mut NbhdSummary, next: NbhdSummary) -> Option<NbhdSummary> {
        acc.merge(next);
        None
    }

    // Automorphisms only: permuting an anonymous labeling permutes which
    // node holds which view but not the *set* of (view, accept) pairs the
    // scan contributes, and yes-instance-compatibility edges are read off
    // adjacent node pairs, which automorphisms preserve. Certificate swaps
    // are NOT declared -- they change the views themselves, so a quotient
    // over them would drop views from `AViews(D, n)`.
    fn symmetry_class(&self, _alphabet: &[crate::label::Certificate]) -> Option<SymmetrySpec> {
        (self.decoder.id_mode() == IdMode::Anonymous && self.id_mode == IdMode::Anonymous)
            .then_some(SymmetrySpec {
                automorphisms: true,
                alphabet_classes: None,
            })
    }

    fn interner_report(&self) -> Option<InternerReport> {
        Some(self.interner.report())
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, NbhdSummary)>,
        _outcome: &SweepOutcome,
    ) -> NbhdVerdict {
        let mut summary = NbhdSummary::default();
        for (_, partial) in partials {
            summary.merge(partial);
        }
        let graph = NbhdGraph::materialize(
            self.decoder.radius(),
            self.id_mode,
            &summary,
            self.interner.snapshot(),
            |item| universe.labeled_instance(item),
        );
        let hiding = self
            .hiding
            .map(|k| check_hiding(&graph, k, universe.coverage().into()));
        let extractability = self
            .extractability
            .map(|k| ExtractabilityMap::new(&graph, k));
        NbhdVerdict {
            graph,
            hiding,
            extractability,
        }
    }
}

/// What [`NbhdGraph::extend`] keeps between calls: its view interner,
/// the summary of every instance fed so far, and the instances a witness
/// of that summary names.
#[derive(Debug, Clone, Default)]
struct Growth {
    interner: ViewInterner,
    summary: NbhdSummary,
    pending: BTreeMap<usize, LabeledInstance>,
    items: usize,
}

/// The accepting neighborhood graph, with full provenance: every view and
/// every edge remembers a witnessing instance.
///
/// # Example
///
/// ```
/// use hiding_lcp_core::nbhd::NbhdGraph;
/// use hiding_lcp_core::decoder::{Decoder, Verdict};
/// use hiding_lcp_core::instance::Instance;
/// use hiding_lcp_core::label::Labeling;
/// use hiding_lcp_core::view::{IdMode, View};
/// use hiding_lcp_graph::generators;
///
/// struct AcceptAll;
/// impl Decoder for AcceptAll {
///     fn name(&self) -> String { "accept-all".into() }
///     fn radius(&self) -> usize { 1 }
///     fn id_mode(&self) -> IdMode { IdMode::Full }
///     fn decide(&self, _v: &View) -> Verdict { Verdict::Accept }
/// }
///
/// let li = Instance::canonical(generators::path(3)).with_labeling(Labeling::empty(3));
/// let nbhd = NbhdGraph::build(&AcceptAll, IdMode::Full, vec![li], |g| {
///     hiding_lcp_graph::algo::bipartite::is_bipartite(g)
/// });
/// assert_eq!(nbhd.view_count(), 3);
/// assert_eq!(nbhd.edge_count(), 2);
/// assert!(nbhd.odd_cycle().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct NbhdGraph {
    radius: usize,
    id_mode: IdMode,
    views: Vec<View>,
    index: HashMap<View, usize>,
    adj: Vec<BTreeSet<usize>>,
    /// For each view: (instance index, node) where it was first accepted.
    view_witness: Vec<(usize, usize)>,
    /// For each edge (a < b): (instance index, edge endpoints) realizing
    /// yes-instance compatibility.
    edge_witness: HashMap<(usize, usize), (usize, (usize, usize))>,
    /// Views that are yes-instance-compatible **with themselves**: two
    /// adjacent nodes of a yes-instance share this exact view. A self-loop
    /// makes `V(D, n)` non-k-colorable for every k (an extractor would
    /// have to give one view two different colors), so by Lemma 3.2 it
    /// immediately certifies hiding.
    self_loops: HashMap<usize, (usize, (usize, usize))>,
    /// The witness instances, in iteration order.
    instances: Vec<LabeledInstance>,
    /// The incremental state behind [`NbhdGraph::extend`]; `None` for a
    /// graph reduced from a sweep.
    growth: Option<Growth>,
}

impl NbhdGraph {
    /// Lemma 3.1: constructs `V(D, ·)` over the given instance universe —
    /// one [`NbhdGraph::extend`] of an empty graph.
    ///
    /// * Only instances whose graph satisfies `is_yes` participate
    ///   (labeled **yes**-instances; for `2-col` pass bipartiteness or the
    ///   promise class H, per Section 2.5).
    /// * Views are canonicalized with `id_mode` — the identifier
    ///   sensitivity of the *extractor class* being reasoned about, which
    ///   for an anonymous LCP is [`IdMode::Anonymous`] (the hiding
    ///   definition quantifies over anonymous decoders `D'`) and for the
    ///   general model is [`IdMode::Full`].
    /// * Acceptance is decided by `decoder` on views canonicalized to the
    ///   decoder's **own** id mode, independent of `id_mode`.
    pub fn build<D, F>(
        decoder: &D,
        id_mode: IdMode,
        instances: Vec<LabeledInstance>,
        is_yes: F,
    ) -> Self
    where
        D: Decoder + ?Sized,
        F: Fn(&Graph) -> bool,
    {
        let mut nbhd = NbhdGraph::empty(decoder.radius(), id_mode);
        nbhd.extend(decoder, instances, is_yes);
        nbhd
    }

    /// Lemma 3.1 on the verification engine: sweeps `universe` (see
    /// [`crate::verify::Universe`] for exhaustive constructors) with an
    /// [`NbhdSweep`] and returns the neighborhood graph together with the
    /// sweep's [`VerificationReport`] evidence — instances checked,
    /// view-cache hits, elapsed time, thread count. Witness instances are
    /// numbered in universe order.
    pub fn from_sweep<D, F>(
        decoder: &D,
        id_mode: IdMode,
        universe: &Universe,
        is_yes: F,
    ) -> VerificationReport<NbhdGraph>
    where
        D: Decoder + ?Sized,
        F: Fn(&Graph) -> bool,
    {
        let check = NbhdSweep::new(decoder, id_mode, universe, is_yes);
        SweepSession::over(universe).run(&check).map(|v| v.graph)
    }

    /// An empty neighborhood graph, ready for [`NbhdGraph::extend`].
    pub fn empty(radius: usize, id_mode: IdMode) -> Self {
        NbhdGraph {
            radius,
            id_mode,
            views: Vec::new(),
            index: HashMap::new(),
            adj: Vec::new(),
            view_witness: Vec::new(),
            edge_witness: HashMap::new(),
            self_loops: HashMap::new(),
            instances: Vec::new(),
            growth: Some(Growth::default()),
        }
    }

    /// Incrementally grows the universe (the monotone step of Lemma 3.1:
    /// AViews and the compatibility relation only ever grow with n). New
    /// instances are filtered by `is_yes` and folded into the summary the
    /// graph keeps, numbered after every earlier instance; the graph is
    /// then materialized again, so a newly accepted view activates the
    /// edges older instances witnessed. The graph keeps the instances a
    /// witness of its summary names, pending pairs included.
    ///
    /// # Panics
    ///
    /// Panics if `decoder.radius()` differs from the graph's radius, or if
    /// the graph was reduced from a sweep ([`NbhdGraph::from_sweep`], the
    /// property checks): a sweep keeps only the witness instances of the
    /// edges it materialized, not those of pairs a later view could
    /// activate.
    pub fn extend<D, F>(&mut self, decoder: &D, instances: Vec<LabeledInstance>, is_yes: F)
    where
        D: Decoder + ?Sized,
        F: Fn(&Graph) -> bool,
    {
        assert_eq!(decoder.radius(), self.radius, "radius mismatch");
        let mut growth = self
            .growth
            .take()
            .expect("extend grows graphs from `empty` or `build`, not a sweep's");
        let accepting_only = verdict_follows_view(self.id_mode, decoder.id_mode());
        for li in instances.into_iter().filter(|li| is_yes(li.graph())) {
            let item = growth.items;
            growth.items += 1;
            let verdicts = run(decoder, &li);
            let interner = &growth.interner;
            let one = NbhdSummary::of_item(
                item,
                li.graph(),
                accepting_only,
                |v| verdicts[v].is_accept(),
                |v| interner.intern(li.view(v, self.radius, self.id_mode)),
            );
            if let Some(one) = one {
                growth.summary.merge(one);
                growth.pending.insert(item, li);
            }
        }
        let summary = &growth.summary;
        let named = summary.accepted.values().chain(summary.pairs.values());
        let referenced: BTreeSet<usize> = named.map(|&(item, _)| item).collect();
        growth.pending.retain(|item, _| referenced.contains(item));
        let mut grown = NbhdGraph::materialize(
            self.radius,
            self.id_mode,
            &growth.summary,
            growth.interner.snapshot(),
            |item| growth.pending[&item].clone(),
        );
        grown.growth = Some(growth);
        *self = grown;
    }

    /// The materialization shared by the sweep's reduce and
    /// [`NbhdGraph::extend`]: accepted views in first-accept order, live
    /// pairs as edges or self-loops, witnesses renumbered into the witness
    /// instances (`instance(item)` clones one). `table` maps view ids to
    /// views.
    fn materialize(
        radius: usize,
        id_mode: IdMode,
        summary: &NbhdSummary,
        table: Vec<View>,
        instance: impl Fn(usize) -> LabeledInstance,
    ) -> NbhdGraph {
        let mut accepted: Vec<(Witness, ViewId)> =
            summary.accepted.iter().map(|(&id, &w)| (w, id)).collect();
        accepted.sort_unstable();
        let at: HashMap<ViewId, usize> = accepted
            .iter()
            .enumerate()
            .map(|(idx, &(_, id))| (id, idx))
            .collect();
        let mut live: Vec<(Witness, usize, usize)> = summary
            .pairs
            .iter()
            .filter_map(|(&(a, b), &w)| Some((w, *at.get(&a)?, *at.get(&b)?)))
            .collect();
        live.sort_unstable();
        let items: BTreeSet<usize> = accepted
            .iter()
            .map(|&((item, _), _)| item)
            .chain(live.iter().map(|&((item, _), _, _)| item))
            .collect();
        let number: HashMap<usize, usize> = items
            .iter()
            .enumerate()
            .map(|(k, &item)| (item, k))
            .collect();

        let mut nbhd = NbhdGraph::empty(radius, id_mode);
        nbhd.growth = None;
        nbhd.instances = items.iter().map(|&item| instance(item)).collect();
        for &((item, node), id) in &accepted {
            // invariant: every id the summary names was minted by the
            // table's interner.
            let view = table[id as usize].clone();
            nbhd.index.insert(view.clone(), nbhd.views.len());
            nbhd.views.push(view);
            nbhd.adj.push(BTreeSet::new());
            nbhd.view_witness.push((number[&item], node));
        }
        for ((item, pos), a, b) in live {
            let inst = number[&item];
            // invariant: a pair witness names an edge position of its item.
            let edge = nbhd.instances[inst]
                .graph()
                .edges()
                .nth(pos)
                .expect("pair witness names an edge");
            if a == b {
                #[cfg(conformance_mutants)]
                if crate::mutants::active("nbhd_selfloop_dropped") {
                    continue;
                }
                nbhd.self_loops.insert(a, (inst, edge));
            } else {
                nbhd.adj[a].insert(b);
                nbhd.adj[b].insert(a);
                nbhd.edge_witness.insert((a.min(b), a.max(b)), (inst, edge));
            }
        }
        nbhd
    }

    /// The verification radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// The identifier mode views were canonicalized with.
    pub fn id_mode(&self) -> IdMode {
        self.id_mode
    }

    /// Number of accepting views (nodes of `V(D, n)`).
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Number of compatibility edges.
    pub fn edge_count(&self) -> usize {
        self.edge_witness.len()
    }

    /// The view at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn view(&self, i: usize) -> &View {
        &self.views[i]
    }

    /// All views in insertion (deterministic) order.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// The index of a view, if present.
    pub fn index_of(&self, view: &View) -> Option<usize> {
        self.index.get(view).copied()
    }

    /// Neighbors of view `i`, sorted.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[i].iter().copied()
    }

    /// Whether views `a` and `b` are yes-instance-compatible.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj.get(a).is_some_and(|s| s.contains(&b))
    }

    /// The witness instances: the labeled yes-instances some view, edge
    /// or self-loop witness points into, in the order they were folded.
    /// Other yes-instances are not retained.
    pub fn instances(&self) -> &[LabeledInstance] {
        &self.instances
    }

    /// The witness instance and node where view `i` was first accepted.
    pub fn view_witness(&self, i: usize) -> (usize, usize) {
        self.view_witness[i]
    }

    /// The instance and graph edge witnessing compatibility of `{a, b}`.
    pub fn edge_witness(&self, a: usize, b: usize) -> Option<(usize, (usize, usize))> {
        self.edge_witness.get(&(a.min(b), a.max(b))).copied()
    }

    /// Views that are compatible with themselves, sorted.
    pub fn self_loop_views(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.self_loops.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// The witness of a self-loop at view `i`.
    pub fn self_loop_witness(&self, i: usize) -> Option<(usize, (usize, usize))> {
        self.self_loops.get(&i).copied()
    }

    /// `V(D, n)` as a plain loop-free [`Graph`] (same node indexing);
    /// self-loops are reported separately via [`Self::self_loop_views`].
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.views.len());
        for &(a, b) in self.edge_witness.keys() {
            g.add_edge(a, b).expect("edge witnesses are valid");
        }
        g
    }

    /// An odd closed walk in `V(D, n)`, if one exists — by Lemma 3.2 this
    /// certifies that the decoder hides a 2-coloring (w.r.t. the explored
    /// universe). A self-loop counts as an odd closed walk of length 1.
    pub fn odd_cycle(&self) -> Option<Vec<usize>> {
        if let Some(&i) = self.self_loops.keys().min() {
            return Some(vec![i]);
        }
        bipartite::bipartition(&self.to_graph()).err()
    }

    /// Whether `V(D, n)` is k-colorable. For an exhaustive universe,
    /// `true` means the decoder is **not** hiding (Lemma 3.2 constructs an
    /// extractor; see [`crate::extract`]). Any self-loop makes the graph
    /// non-colorable for every k.
    pub fn k_colorable(&self, k: usize) -> bool {
        self.self_loops.is_empty() && coloring::is_k_colorable(&self.to_graph(), k)
    }

    /// The lexicographically first proper k-coloring of `V(D, n)` in view
    /// insertion order — the deterministic coloring `c` from the proof of
    /// Lemma 3.2. `None` if not k-colorable (in particular whenever a
    /// self-loop exists).
    pub fn lex_coloring(&self, k: usize) -> Option<Vec<usize>> {
        if !self.self_loops.is_empty() {
            return None;
        }
        coloring::lex_first_coloring(&self.to_graph(), k)
    }

    /// Renders `V(D, ·)` in Graphviz DOT format, one node per view with
    /// its [`View::describe`] text — used to regenerate the paper's
    /// Figs. 4 and 6. Self-loop views are annotated.
    pub fn to_dot(&self) -> String {
        let labels: Vec<String> = self
            .views
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mark = if self.self_loops.contains_key(&i) {
                    " [self-loop]"
                } else {
                    ""
                };
                format!("{}{}", v.describe(), mark)
            })
            .collect();
        hiding_lcp_graph::dot::to_dot(&self.to_graph(), Some(&labels))
    }

    /// The chromatic number of `V(D, ·)`, or `None` when a self-loop makes
    /// it infinite.
    ///
    /// By the contrapositive of Lemma 3.2 this is the decoder's *hiding
    /// spectrum*: a K-coloring can be extracted iff `χ(V(D, ·)) ≤ K`, so
    /// the decoder hides exactly the K-colorings with `K < χ`. The paper's
    /// promise-free-separation program (Section 1) needs a bipartiteness
    /// certificate that hides a **3**-coloring, i.e. `χ(V) > 3`; a
    /// self-loop (as in Lemma 4.2's scheme) hides every `K`.
    pub fn chromatic_number(&self) -> Option<usize> {
        if !self.self_loops.is_empty() {
            return None;
        }
        Some(coloring::chromatic_number(&self.to_graph()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{TableDecoder, Verdict};
    use crate::instance::Instance;
    use crate::label::{Certificate, Labeling};
    use hiding_lcp_graph::generators;

    /// Accepts iff the node's certificate differs from all neighbors'
    /// (the revealing 2-coloring LCP, anonymously).
    struct LocalDiff;
    impl Decoder for LocalDiff {
        fn name(&self) -> String {
            "local-diff".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, view: &View) -> Verdict {
            let mine = view.center_label();
            Verdict::from(
                view.center_arcs()
                    .iter()
                    .all(|arc| view.node(arc.to).label != *mine),
            )
        }
    }

    /// A 2-colored cycle with rotation-symmetric ports, so anonymous views
    /// depend only on the center's color.
    fn two_colored_cycle(n: usize) -> LabeledInstance {
        let g = generators::cycle(n);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n)).unwrap();
        let labels = (0..n)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        inst.with_labeling(labels)
    }

    #[test]
    fn revealing_lcp_has_bipartite_nbhd() {
        let instances = vec![two_colored_cycle(4), two_colored_cycle(6)];
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, instances, |g| {
            bipartite::is_bipartite(g)
        });
        // Anonymous views on a 2-colored cycle: label 0 with two 1s, or
        // label 1 with two 0s — exactly two views, one edge.
        assert_eq!(nbhd.view_count(), 2);
        assert_eq!(nbhd.edge_count(), 1);
        assert!(nbhd.odd_cycle().is_none());
        assert!(nbhd.k_colorable(2));
        assert_eq!(nbhd.lex_coloring(2), Some(vec![0, 1]));
    }

    #[test]
    fn no_instances_are_filtered_out() {
        let odd = {
            let inst = Instance::canonical(generators::cycle(5));
            inst.with_labeling(Labeling::uniform(5, Certificate::from_byte(0)))
        };
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![odd], |g| {
            bipartite::is_bipartite(g)
        });
        assert_eq!(nbhd.view_count(), 0);
        assert_eq!(nbhd.instances().len(), 0);
    }

    #[test]
    fn rejecting_nodes_contribute_no_views() {
        // A half-bad labeling of C6: nodes 0..3 properly colored, rest
        // constant. Only properly-separated nodes accept.
        let inst = Instance::canonical(generators::cycle(6));
        let labels = Labeling::new(vec![
            Certificate::from_byte(0),
            Certificate::from_byte(1),
            Certificate::from_byte(0),
            Certificate::from_byte(1),
            Certificate::from_byte(1),
            Certificate::from_byte(1),
        ]);
        let li = inst.with_labeling(labels);
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        // Accepting nodes: 0 (nbrs 1, 1), 1 (nbrs 0,0), 2 (nbrs 1,1),
        // 3 (nbrs 0, 1)? node 3 has neighbors 2 (label 0) and 4 (label 1)
        // = label 1 equals neighbor 4 -> reject. Node 5: label 1,
        // neighbors 4 (1) and 0 (0) -> reject. Node 4: label 1, nbrs 1,1
        // -> reject.
        assert!(nbhd.view_count() >= 2);
        let g = nbhd.to_graph();
        assert!(bipartite::is_bipartite(&g));
        // Provenance round-trips.
        for i in 0..nbhd.view_count() {
            let (inst_idx, node) = nbhd.view_witness(i);
            let li = &nbhd.instances()[inst_idx];
            assert_eq!(li.view(node, 1, IdMode::Anonymous), *nbhd.view(i));
        }
    }

    #[test]
    fn identical_adjacent_views_form_self_loops() {
        // Accept-everything on an unlabeled C4: anonymously all four views
        // coincide, so the single view is compatible with itself.
        struct YesMan;
        impl Decoder for YesMan {
            fn name(&self) -> String {
                "yes-man".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Anonymous
            }
            fn decide(&self, _view: &View) -> Verdict {
                Verdict::Accept
            }
        }
        let g = generators::cycle(4);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(4)).unwrap();
        let li = inst.with_labeling(Labeling::empty(4));
        let nbhd = NbhdGraph::build(&YesMan, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        assert_eq!(nbhd.view_count(), 1);
        assert_eq!(nbhd.self_loop_views(), vec![0]);
        assert!(nbhd.self_loop_witness(0).is_some());
        assert_eq!(nbhd.odd_cycle(), Some(vec![0]));
        assert!(!nbhd.k_colorable(7), "self-loops defeat every palette");
        assert_eq!(nbhd.lex_coloring(2), None);
    }

    #[test]
    fn dot_export_renders_views_and_marks_self_loops() {
        struct YesMan2;
        impl Decoder for YesMan2 {
            fn name(&self) -> String {
                "yes".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Anonymous
            }
            fn decide(&self, _v: &View) -> Verdict {
                Verdict::Accept
            }
        }
        let g = generators::cycle(4);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(4)).unwrap();
        let li = inst.with_labeling(Labeling::empty(4));
        let nbhd = NbhdGraph::build(&YesMan2, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        let dot = nbhd.to_dot();
        assert!(dot.starts_with("graph {"));
        assert!(dot.contains("[self-loop]"));
    }

    /// Equality of every observable, witnesses compared by the instance
    /// they name.
    fn assert_same_graph(a: &NbhdGraph, b: &NbhdGraph, what: &str) {
        let named =
            |g: &NbhdGraph, (idx, at): (usize, (usize, usize))| (g.instances()[idx].clone(), at);
        assert_eq!(a.views(), b.views(), "{what}: views");
        assert_eq!(a.edge_count(), b.edge_count(), "{what}: edges");
        assert_eq!(a.self_loop_views(), b.self_loop_views(), "{what}: loops");
        for i in 0..a.view_count() {
            let (ia, va) = a.view_witness(i);
            let (ib, vb) = b.view_witness(i);
            assert_eq!(
                (&a.instances()[ia], va),
                (&b.instances()[ib], vb),
                "{what}: view {i}"
            );
            assert!(a.neighbors(i).eq(b.neighbors(i)), "{what}: view {i} nbrs");
            for j in a.neighbors(i) {
                let wa = a.edge_witness(i, j).map(|w| named(a, w));
                assert_eq!(wa, b.edge_witness(i, j).map(|w| named(b, w)), "{what}");
            }
            let wa = a.self_loop_witness(i).map(|w| named(a, w));
            assert_eq!(wa, b.self_loop_witness(i).map(|w| named(b, w)), "{what}");
        }
    }

    #[test]
    fn incremental_extension_matches_batch_build() {
        let half_bad = Instance::canonical(generators::cycle(6)).with_labeling(Labeling::new(
            [0u8, 1, 0, 1, 1, 1].map(Certificate::from_byte).to_vec(),
        ));
        let odd = Instance::canonical(generators::cycle(5))
            .with_labeling(Labeling::uniform(5, Certificate::from_byte(0)));
        let universe = vec![
            two_colored_cycle(4),
            half_bad,
            odd,
            two_colored_cycle(6),
            Instance::canonical(generators::path(3)).with_labeling(
                [0u8, 1, 0]
                    .map(Certificate::from_byte)
                    .into_iter()
                    .collect(),
            ),
            two_colored_cycle(8),
        ];
        let batch = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, universe.clone(), |g| {
            bipartite::is_bipartite(g)
        });
        let swept = NbhdGraph::from_sweep(
            &LocalDiff,
            IdMode::Anonymous,
            &Universe::from_labeled(universe.clone(), crate::verify::Coverage::Sampled)
                .expect("six instances fit"),
            bipartite::is_bipartite,
        )
        .verdict;
        assert_same_graph(&batch, &swept, "build vs sweep");
        let mut one_by_one = NbhdGraph::empty(1, IdMode::Anonymous);
        for li in universe.clone() {
            one_by_one.extend(&LocalDiff, vec![li], bipartite::is_bipartite);
        }
        assert_same_graph(&one_by_one, &batch, "one by one");
        for split in 0..=universe.len() {
            let mut incremental = NbhdGraph::empty(1, IdMode::Anonymous);
            let (head, tail) = universe.split_at(split);
            incremental.extend(&LocalDiff, head.to_vec(), bipartite::is_bipartite);
            incremental.extend(&LocalDiff, tail.to_vec(), bipartite::is_bipartite);
            assert_same_graph(&incremental, &batch, &format!("split at {split}"));
        }
    }

    #[test]
    fn extension_activates_old_instances_edges() {
        // An instance where only one endpoint of an edge accepts: the edge
        // is absent until a later instance makes the other view accepting.
        // LocalDiff on P2 labeled (0, 0): both reject; labeled (0, 1):
        // both accept. Use a custom decoder accepting only label 1 -- so
        // P2 (1, 0) has exactly one accepting node, and only after a
        // second instance (1, 1)... LocalDiff suffices with a subtler
        // setup; keep it simple with TableDecoder.
        let inst = Instance::canonical(generators::path(2));
        let li_a = inst.clone().with_labeling(Labeling::new(vec![
            Certificate::from_byte(0),
            Certificate::from_byte(1),
        ]));
        let view_of_zero = li_a.view(0, 1, IdMode::Anonymous);
        let view_of_one = li_a.view(1, 1, IdMode::Anonymous);
        // A decoder that initially accepts only node 0's view.
        let only_zero = TableDecoder::new(
            "only-zero",
            1,
            IdMode::Anonymous,
            [view_of_zero.clone()],
            Verdict::Reject,
        );
        let mut nbhd = NbhdGraph::empty(1, IdMode::Anonymous);
        nbhd.extend(&only_zero, vec![li_a.clone()], |_| true);
        assert_eq!(nbhd.view_count(), 1);
        assert_eq!(nbhd.edge_count(), 0, "partner view not accepting yet");
        // Extend with a decoder accepting both views (simulating a richer
        // acceptance set): the OLD instance's edge must now appear.
        let both = TableDecoder::new(
            "both",
            1,
            IdMode::Anonymous,
            [view_of_zero, view_of_one],
            Verdict::Reject,
        );
        nbhd.extend(&both, vec![li_a], |_| true);
        assert_eq!(nbhd.view_count(), 2);
        assert_eq!(nbhd.edge_count(), 1, "old edge activated by the new view");
    }

    #[test]
    fn edge_witnesses_are_recorded() {
        let nbhd = NbhdGraph::build(
            &LocalDiff,
            IdMode::Anonymous,
            vec![two_colored_cycle(4)],
            bipartite::is_bipartite,
        );
        assert_eq!(nbhd.view_count(), 2);
        assert!(nbhd.has_edge(0, 1));
        let (inst_idx, (u, v)) = nbhd.edge_witness(0, 1).unwrap();
        assert_eq!(inst_idx, 0);
        assert!(nbhd.instances()[0].graph().has_edge(u, v));
        assert!(nbhd.edge_witness(0, 5).is_none());
    }
}
