//! Declarative audit plans: the whole property battery as data.
//!
//! An [`AuditPlan`] names *what* to audit — a decoder, a language, an
//! instance family, a subset of the seven properties — and [`AuditPlan::run`]
//! decides *how*: properties quantifying over the same universe shape are
//! fused into one [`super::SweepSession::run_panel`] walk, so the full battery pays for
//! each enumeration once instead of once per property. The shapes are:
//!
//! * **labelings** — every labeling of every instance. Soundness, strong
//!   soundness, hiding and quantified extractability all walk this shape;
//!   they become one panel sharing one verdict channel (same decoder
//!   object) and one skeleton cache. Soundness only quantifies over
//!   no-instances, so its member is wrapped in [`BlockGated`], which
//!   silences it on yes-instance blocks.
//! * **instances** — one unlabeled item per yes-instance; the prover's
//!   labeling is judged inside inspection (completeness).
//! * **erasure** — seeded f-erasures of one honest labeling.
//! * **invariance** — seeded identifier permutations of one honest
//!   labeled instance ([`anonymity_universe`]).
//!
//! An optional fault plan appends a [`degradation_sweep`] (itself
//! panel-backed per rate). The result is an [`AuditReport`] that renders
//! to JSON via [`AuditReport::to_json`] — the `audit` binary is a thin
//! CLI shell around this module.

use std::time::Duration;

use crate::decoder::Decoder;
use crate::instance::{Instance, LabeledInstance};
use crate::label::Certificate;
use crate::language::KCol;
use crate::nbhd::{NbhdSummary, NbhdSweep, NbhdVerdict, SummaryLine, Witness};
use crate::network::{degradation_sweep, DegradationReport};
use crate::properties::completeness::completeness_member;
use crate::properties::erasure::{erased_labeling, erasure_member};
use crate::properties::hiding::hiding_line;
use crate::properties::invariance::{anonymity_universe, invariance_member};
use crate::properties::quantified::quantified_line;
use crate::properties::soundness::{SoundnessCheck, SoundnessViolation};
use crate::properties::strong::{strong_member, StrongViolation};
use crate::prover::Prover;
use crate::verify::{
    Block, Coverage, DynPropertyCheck, ExecMode, InternerReport, ItemCtx, LabelSource,
    MetricsRecorder, PanelReport, PropertyCheck, PropertyTag, SweepBudget, SweepOpts, SweepOutcome,
    SweepRecorder, SweepStrategy, SymmetrySpec, Universe, UniverseItem,
};

use super::budget::{MemberFrontier, PanelFragment, SweepError};
use super::erased::ErasedPartial;
use super::session::SweepSession;
use super::shard::{merge_panel_fragments, ShardSpec};
use super::telemetry::diff;
use crate::view::IdMode;
use hiding_lcp_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Restricts a check to the blocks where `active` holds; items of other
/// blocks inspect to `None` and cost no verdict maintenance. Used to fuse
/// checks with different quantification domains (e.g. soundness, which
/// ranges over no-instances only) into a panel walking the full family.
pub struct BlockGated<C> {
    /// The underlying check.
    pub check: C,
    /// `active[b]` — whether block `b` participates.
    pub active: Vec<bool>,
}

impl<C: PropertyCheck> PropertyCheck for BlockGated<C> {
    type Partial = C::Partial;
    type Verdict = C::Verdict;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        self.check.view_configs()
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<Self::Partial> {
        self.active[item.block]
            .then(|| self.check.inspect(item, ctx))
            .flatten()
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        self.check.verdict_decoder()
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        self.active[block] && self.check.uses_verdicts(block)
    }

    fn inspect_with_verdicts(
        &self,
        item: &UniverseItem<'_>,
        verdicts: &[crate::decoder::Verdict],
        ctx: &ItemCtx<'_>,
    ) -> Option<Self::Partial> {
        self.active[item.block]
            .then(|| self.check.inspect_with_verdicts(item, verdicts, ctx))
            .flatten()
    }

    fn short_circuits(&self, partial: &Self::Partial) -> bool {
        self.check.short_circuits(partial)
    }

    fn fold_partial(&self, acc: &mut Self::Partial, next: Self::Partial) -> Option<Self::Partial> {
        self.check.fold_partial(acc, next)
    }

    // Gating is symmetry-neutral: inactive blocks inspect to `None` for
    // every orbit member alike, active blocks inherit the inner check's
    // invariance.
    fn symmetry_class(&self, alphabet: &[Certificate]) -> Option<SymmetrySpec> {
        self.check.symmetry_class(alphabet)
    }

    fn interner_report(&self) -> Option<InternerReport> {
        self.check.interner_report()
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, Self::Partial)>,
        outcome: &SweepOutcome,
    ) -> Self::Verdict {
        self.check.reduce(universe, partials, outcome)
    }
}

/// The wire shape of one labelings-panel member's partials in a shard
/// report. Partials are reconstructed, not shipped whole: every concrete
/// partial is derivable from item indices plus small payloads, so a
/// report stays a few text lines per violation or summary witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberKind {
    /// [`SoundnessViolation`] — the item index alone (the labeling is
    /// re-decoded from the universe).
    Sound,
    /// [`StrongViolation`] — item index plus the accepting node list.
    Strong,
    /// The Lemma 3.1 scan's [`NbhdSummary`], merged into one and shipped
    /// as its witnesses ([`NbhdSummary::wire_lines`]). View ids are
    /// run-local interner handles and never cross the process boundary;
    /// the merging side re-stamps each witness ([`NbhdSweep::restamp`]).
    Summary,
}

impl MemberKind {
    fn wire(self) -> &'static str {
        match self {
            MemberKind::Sound => "sound",
            MemberKind::Strong => "strong",
            MemberKind::Summary => "summary",
        }
    }
}

/// The labelings panel's concrete checks, owned separately from the
/// erased member list. [`LabelingsMembers::members`] borrows them (via
/// the blanket `&C: PropertyCheck` impl), so the shard-merge path can
/// keep the scan around after the fragments come back and re-stamp
/// shipped summaries into the very instance whose `reduce` will run. The
/// ordinary [`AuditPlan::run`] path builds its panel through the same
/// constructor, so a merged report cannot drift from a live one.
struct LabelingsMembers<'p> {
    decoder: &'p dyn Decoder,
    language: &'p KCol,
    soundness: Option<BlockGated<SoundnessCheck<'p, dyn Decoder + 'p>>>,
    strong: bool,
    /// The one Lemma 3.1 scan, whenever hiding or quantified is wanted,
    /// carrying only the wanted analyses; tagged hiding when it carries
    /// the hiding verdict.
    nbhd: Option<(PropertyTag, NbhdSweep<'p, dyn Decoder + 'p>)>,
}

impl<'p> LabelingsMembers<'p> {
    fn build(
        plan: &'p AuditPlan<'_>,
        universe: &Universe,
        is_yes: &[bool],
    ) -> LabelingsMembers<'p> {
        let soundness = plan.wants(PropertyTag::Soundness).then(|| BlockGated {
            check: SoundnessCheck {
                decoder: plan.decoder,
            },
            active: is_yes.iter().map(|yes| !yes).collect(),
        });
        let hiding = plan.wants(PropertyTag::Hiding);
        let quantified = plan.wants(PropertyTag::Quantified);
        let k = plan.language.k();
        let nbhd = (hiding || quantified).then(|| {
            let mut sweep =
                NbhdSweep::new(plan.decoder, IdMode::Anonymous, universe, |g: &Graph| {
                    plan.language.is_yes_graph(g)
                });
            if hiding {
                sweep = sweep.with_hiding(k);
            }
            if quantified {
                sweep = sweep.with_extractability(k);
            }
            let tag = if hiding {
                PropertyTag::Hiding
            } else {
                PropertyTag::Quantified
            };
            (tag, sweep)
        });
        LabelingsMembers {
            decoder: plan.decoder,
            language: &plan.language,
            soundness,
            strong: plan.wants(PropertyTag::Strong),
            nbhd,
        }
    }

    /// Wire kinds, in member order.
    fn kinds(&self) -> Vec<MemberKind> {
        [
            (self.soundness.is_some(), MemberKind::Sound),
            (self.strong, MemberKind::Strong),
            (self.nbhd.is_some(), MemberKind::Summary),
        ]
        .into_iter()
        .filter_map(|(wanted, kind)| wanted.then_some(kind))
        .collect()
    }

    /// The erased panel members, borrowing the owned checks, all on the
    /// decoder's one verdict channel. Strong soundness is
    /// [`strong_member`] itself. Soundness is gated onto no-instance
    /// blocks, so its line deliberately differs from
    /// [`soundness_member`](crate::properties::soundness::soundness_member)'s
    /// "no unanimous accept in {n} labelings": the gated member's count
    /// spans the whole walk, yes-instances included, and would mislead.
    /// The scan member's own line is a placeholder that
    /// [`split_nbhd_member`] replaces.
    fn members(&self) -> Vec<DynPropertyCheck<'_>> {
        let mut members: Vec<DynPropertyCheck<'_>> = Vec::new();
        if let Some(check) = &self.soundness {
            members.push(
                DynPropertyCheck::with_summary(
                    PropertyTag::Soundness,
                    "soundness",
                    check,
                    |v: &Result<usize, SoundnessViolation>| match v {
                        Ok(_) => (Some(true), "no unanimous accept on a no-instance".into()),
                        Err(_) => (Some(false), "unanimously accepted labeling found".into()),
                    },
                )
                .with_channel(self.decoder),
            );
        }
        if self.strong {
            members.push(strong_member(self.decoder, self.language));
        }
        if let Some((tag, check)) = &self.nbhd {
            members.push(
                DynPropertyCheck::new(*tag, "lemma31-scan", check).with_channel(self.decoder),
            );
        }
        members
    }

    /// Rebuilds one typed partial from its wire payload. `item` is
    /// already checked to lie in the report's range. Sound and strong
    /// partials are violation witnesses, so a payload that cannot be one
    /// (a yes-instance for the gated soundness, an accepting set that
    /// induces a member of `G(L)`) is refused rather than reduced.
    fn reconstruct_partial(
        &self,
        kind: MemberKind,
        universe: &Universe,
        item: usize,
        payload: Option<&str>,
    ) -> Result<ErasedPartial, String> {
        let li = universe.labeled_instance(item);
        let n = li.graph().node_count();
        match kind {
            MemberKind::Sound => {
                let (block, _) = universe.locate(item);
                if self.soundness.as_ref().is_some_and(|g| !g.active[block]) {
                    return Err(format!(
                        "soundness partial at item {item} is a yes-instance"
                    ));
                }
                Ok(Box::new(SoundnessViolation {
                    labeling: li.into_parts().1,
                }))
            }
            MemberKind::Strong => {
                let payload = payload.ok_or_else(|| {
                    format!("strong partial at item {item} lacks its accepting list")
                })?;
                let accepting = if payload == "-" {
                    Vec::new()
                } else {
                    payload
                        .split(',')
                        .map(|t| {
                            t.parse::<usize>()
                                .map_err(|_| format!("bad accepting node `{t}` at item {item}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?
                };
                if accepting.windows(2).any(|w| w[0] >= w[1]) || accepting.iter().any(|&v| v >= n) {
                    return Err(format!(
                        "strong partial at item {item} lists nodes out of order or outside its {n} nodes"
                    ));
                }
                if self
                    .language
                    .is_yes_graph(&li.graph().induced(&accepting).0)
                {
                    return Err(format!(
                        "strong partial at item {item} is no violation: its accepting set induces a member of G(L)"
                    ));
                }
                Ok(Box::new(StrongViolation {
                    labeling: li.into_parts().1,
                    accepting,
                }))
            }
            MemberKind::Summary => Err(format!(
                "`p` line at item {item} for a summary member, which ships `a` and `c` lines"
            )),
        }
    }
}

/// Renders one member's partials as wire lines: one `p` line per
/// violation, or the merged summary's witness lines.
fn serialize_partials(kind: MemberKind, partials: Vec<(usize, ErasedPartial)>) -> String {
    let mut out = String::new();
    if kind == MemberKind::Summary {
        let mut summary = NbhdSummary::default();
        for (_, partial) in partials {
            // invariant: `kinds()` tags a member `Summary` only when it
            // wraps the `NbhdSweep`, whose partial is an `NbhdSummary`.
            let partial = partial
                .downcast::<NbhdSummary>()
                .expect("summary member partial is an NbhdSummary");
            summary.merge(*partial);
        }
        for (line, (item, at)) in summary.wire_lines() {
            out.push_str(&format!("{} {item} {at}\n", line.tag()));
        }
        return out;
    }
    for (item, partial) in partials {
        if kind == MemberKind::Sound {
            out.push_str(&format!("p {item}\n"));
            continue;
        }
        // invariant: `kinds()` tags a member `Strong` only when it wraps a
        // `StrongCheck`, whose partial is a `StrongViolation`.
        let v = partial
            .downcast_ref::<StrongViolation>()
            .expect("strong member partial is a StrongViolation");
        if v.accepting.is_empty() {
            out.push_str(&format!("p {item} -\n"));
        } else {
            let list: Vec<String> = v.accepting.iter().map(ToString::to_string).collect();
            out.push_str(&format!("p {item} {}\n", list.join(",")));
        }
    }
    out
}

/// Escapes a free-form string onto one wire line.
fn wire_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`wire_escape`]; unknown escapes pass through verbatim.
fn wire_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// The instance family an [`AuditPlan`] quantifies over.
#[derive(Debug, Clone)]
pub enum InstanceSet {
    /// An explicit list with caller-asserted coverage. `Exhaustive` is
    /// only sound if the list really is the language's full promise
    /// family at this size.
    Explicit {
        /// The instances.
        instances: Vec<Instance>,
        /// What the list covers.
        coverage: Coverage,
    },
    /// The Lemma 3.1 family: every connected graph on `1..=max_n` nodes,
    /// every port assignment, canonical ids ([`Universe::lemma31`]).
    Lemma31 {
        /// Largest node count (capped at 8 by the enumerator).
        max_n: usize,
    },
}

/// How many degradation trials to run and at which fault rates.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// The uniform per-message fault rates to sweep.
    pub rates: Vec<f64>,
    /// Trials per rate.
    pub trials: usize,
}

/// A declarative audit: decoder + language + instance family + property
/// subset, compiled by [`AuditPlan::run`] into fused panels grouped by
/// universe shape.
pub struct AuditPlan<'a> {
    decoder: &'a dyn Decoder,
    prover: Option<&'a dyn Prover>,
    language: KCol,
    instances: InstanceSet,
    alphabet: Vec<Certificate>,
    properties: Vec<PropertyTag>,
    mode: ExecMode,
    opts: SweepOpts,
    budget: Option<SweepBudget>,
    telemetry: Option<&'a MetricsRecorder>,
    fault_plan: Option<FaultSpec>,
    seed: u64,
}

/// Erasure-panel shape: certificates wiped per trial, and trials.
const ERASURE_F: usize = 1;
const ERASURE_TRIALS: usize = 8;
/// Invariance-panel shape: random identifier permutations sampled.
const INVARIANCE_SAMPLES: usize = 16;

/// Every paper property, in canonical audit order.
pub const ALL_PROPERTIES: [PropertyTag; 7] = [
    PropertyTag::Soundness,
    PropertyTag::Strong,
    PropertyTag::Hiding,
    PropertyTag::Quantified,
    PropertyTag::Completeness,
    PropertyTag::Erasure,
    PropertyTag::Invariance,
];

impl<'a> AuditPlan<'a> {
    /// A plan auditing every property of `decoder` against `KCol(k)` over
    /// `instances` with `alphabet` certificates. Prover-dependent panels
    /// (completeness, erasure, invariance) require [`AuditPlan::prover`].
    pub fn new(
        decoder: &'a dyn Decoder,
        k: usize,
        instances: InstanceSet,
        alphabet: Vec<Certificate>,
    ) -> AuditPlan<'a> {
        AuditPlan {
            decoder,
            prover: None,
            language: KCol::new(k),
            instances,
            alphabet,
            properties: ALL_PROPERTIES.to_vec(),
            mode: ExecMode::Auto,
            opts: SweepOpts::default(),
            budget: None,
            telemetry: None,
            fault_plan: None,
            seed: 0xA0D1_7E57,
        }
    }

    /// Supplies the prover for completeness/erasure/invariance panels.
    pub fn prover(mut self, prover: &'a dyn Prover) -> Self {
        self.prover = Some(prover);
        self
    }

    /// Restricts the audit to `properties` (default: all seven).
    pub fn properties(mut self, properties: impl IntoIterator<Item = PropertyTag>) -> Self {
        self.properties = properties.into_iter().collect();
        self
    }

    /// Sets the execution mode for every panel (default [`ExecMode::Auto`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the sweep options (strategy/memo) for every panel.
    pub fn opts(mut self, opts: SweepOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Bounds the labelings panel (the combinatorial one) by `budget`. An
    /// interrupted audit downgrades those members to sampled coverage and
    /// records a note.
    pub fn budget(mut self, budget: SweepBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a metrics recorder: every panel streams counters, phase
    /// timings and spans into it, and the report gains a `telemetry`
    /// section with per-panel counter deltas.
    pub fn telemetry(mut self, recorder: &'a MetricsRecorder) -> Self {
        self.telemetry = Some(recorder);
        self
    }

    /// Appends a degradation sweep under communication faults.
    pub fn fault_plan(mut self, spec: FaultSpec) -> Self {
        self.fault_plan = Some(spec);
        self
    }

    /// Seeds every sampled panel (erasure targets, invariance
    /// permutations, fault plans). Same seed, same report.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn wants(&self, tag: PropertyTag) -> bool {
        self.properties.contains(&tag)
    }

    /// The attached recorder as the engine-facing trait object.
    fn attached(&self) -> Option<&dyn SweepRecorder> {
        self.telemetry.map(|r| r as &dyn SweepRecorder)
    }

    /// A session over `universe` with the plan's mode, options and
    /// recorder: every panel of the plan runs through one.
    fn session<'s>(&'s self, universe: &'s Universe) -> SweepSession<'s> {
        let session = SweepSession::over(universe).mode(self.mode).opts(self.opts);
        match self.attached() {
            Some(r) => session.recorder(r),
            None => session,
        }
    }

    /// Runs `members` as one panel over `universe` and appends its report
    /// lines (via `summarize`) and, with a recorder attached, the panel's
    /// counter movement to the report's telemetry section.
    fn run_recorded(
        &self,
        shape: &str,
        session: SweepSession<'_>,
        members: &[DynPropertyCheck<'_>],
        summarize: fn(&str, &PanelReport) -> AuditPanelReport,
        report: &mut AuditReport,
    ) -> PanelReport {
        let before = self.telemetry.map(MetricsRecorder::snapshot);
        let panel = session.run_panel(members);
        report.panels.push(summarize(shape, &panel));
        if let (Some(recorder), Some(before)) = (self.telemetry, before) {
            let delta = diff::diff(&before, &recorder.snapshot());
            let counters = delta
                .changed()
                .map(|row| (row.name.clone(), row.delta().max(0) as u64, row.stable));
            report
                .telemetry
                .push(self.panel_telemetry(shape, counters.collect()));
        }
        panel
    }

    /// One panel's telemetry section under the plan's strategy.
    fn panel_telemetry(&self, shape: &str, counters: Vec<(String, u64, bool)>) -> PanelTelemetry {
        PanelTelemetry {
            shape: shape.into(),
            strategy: strategy_name(self.opts.strategy).into(),
            counters,
        }
    }

    /// Compiles the plan into panels grouped by universe shape and
    /// executes them as a batch.
    ///
    /// # Panics
    ///
    /// When the labelings universe cannot be built: an
    /// [`InstanceSet::Explicit`] family whose labelings overflow the flat
    /// index space, or an [`InstanceSet::Lemma31`] family past
    /// [`Universe::lemma31`]'s limits ([`Universe::lemma31_graphs`]
    /// reports the latter as an error without building a block).
    pub fn run(&self) -> AuditReport {
        let mut report = self.fresh_report();
        if let Some(r) = self.attached() {
            r.span_enter("plan");
        }
        let labelings = self.labelings_universe();
        let is_yes = self.yes_mask(&labelings);
        self.run_labelings_panel(&labelings, &is_yes, &mut report);
        self.finish_run(&labelings, &is_yes, &mut report);
        report
    }

    /// The report header every execution path starts from.
    fn fresh_report(&self) -> AuditReport {
        AuditReport {
            decoder: self.decoder.name(),
            k: self.language.k(),
            seed: self.seed,
            panels: Vec::new(),
            telemetry: Vec::new(),
            degradation: None,
            notes: Vec::new(),
        }
    }

    /// Which blocks of the labelings universe are yes-instances.
    fn yes_mask(&self, labelings: &Universe) -> Vec<bool> {
        labelings
            .blocks()
            .iter()
            .map(|b| self.language.is_yes_graph(b.instance().graph()))
            .collect()
    }

    /// The panels that follow the labelings walk — linear, prover-backed
    /// shapes a merging process recomputes locally rather than shipping.
    /// Closes the plan span.
    fn finish_run(&self, labelings: &Universe, is_yes: &[bool], report: &mut AuditReport) {
        self.run_completeness_panel(labelings, is_yes, report);

        let honest = self.honest_fixture(labelings, is_yes, report);
        if let Some(honest) = &honest {
            self.run_erasure_panel(honest, report);
            self.run_invariance_panel(honest, report);
            if let Some(spec) = &self.fault_plan {
                // Single-node erasures of the honest labeling are the
                // adversarial battery: the fault-free verifier rejects
                // them, so any unanimous accept under faults is false.
                let n = honest.graph().node_count();
                let adversarial: Vec<_> = (0..n.min(4))
                    .map(|v| erased_labeling(honest, &[v]))
                    .collect();
                report.degradation = Some(degradation_sweep(
                    self.decoder,
                    &self.language,
                    honest,
                    &adversarial,
                    &spec.rates,
                    spec.trials,
                    self.seed,
                ));
            }
        } else if self.fault_plan.is_some() {
            report
                .notes
                .push("degradation skipped: no certified yes-instance".into());
        }

        if let Some(r) = self.attached() {
            r.span_exit("plan");
        }
    }

    /// The labelings-shape universe: every instance crossed with every
    /// labeling over the alphabet. Panics as documented on
    /// [`AuditPlan::run`], the public entry points' shared panic.
    fn labelings_universe(&self) -> Universe {
        match &self.instances {
            InstanceSet::Explicit {
                instances,
                coverage,
            } => {
                let blocks = instances
                    .iter()
                    .map(|inst| {
                        Block::new(
                            inst.clone(),
                            LabelSource::All {
                                alphabet: self.alphabet.clone(),
                            },
                        )
                    })
                    .collect();
                Universe::new(blocks, *coverage).expect("audit family fits the flat index space")
            }
            InstanceSet::Lemma31 { max_n } => Universe::lemma31(*max_n, self.alphabet.clone())
                .expect("audit family fits the flat index space"),
        }
    }

    fn run_labelings_panel(&self, universe: &Universe, is_yes: &[bool], report: &mut AuditReport) {
        let checks = LabelingsMembers::build(self, universe, is_yes);
        let members = checks.members();
        if members.is_empty() {
            return;
        }
        let session = self
            .session(universe)
            .budget(self.budget.unwrap_or_default());
        let panel = self.run_recorded("labelings", session, &members, summarize_labelings, report);
        if panel.evidence.interrupted {
            report.notes.push(
                "labelings panel interrupted by budget; verdicts cover the visited prefix".into(),
            );
        }
    }

    fn run_completeness_panel(
        &self,
        labelings: &Universe,
        is_yes: &[bool],
        report: &mut AuditReport,
    ) {
        if !self.wants(PropertyTag::Completeness) {
            return;
        }
        let Some(prover) = self.prover else {
            report
                .notes
                .push("completeness skipped: plan has no prover".into());
            return;
        };
        // Completeness quantifies over the prover's promise class: a
        // decline marks an instance *outside* the class (the concrete
        // LCPs certify families narrower than all of G(L)), not a
        // failure. Declines are counted in the notes instead.
        let mut declined = 0usize;
        let yes_instances: Vec<Instance> = labelings
            .blocks()
            .iter()
            .zip(is_yes)
            .filter(|(_, yes)| **yes)
            .filter_map(|(b, _)| {
                if prover.certify(b.instance()).is_some() {
                    Some(b.instance().clone())
                } else {
                    declined += 1;
                    None
                }
            })
            .collect();
        if declined > 0 {
            report.notes.push(format!(
                "completeness: {declined} yes-instance(s) outside the prover's promise class"
            ));
        }
        if yes_instances.is_empty() {
            report
                .notes
                .push("completeness skipped: prover's promise class misses the family".into());
            return;
        }
        // invariant: one item per instance, and these instances are a
        // subset of the labelings universe's blocks, which already fit.
        let universe = Universe::instances_only(yes_instances, Coverage::Sampled)
            .expect("one item per instance fits");
        let member = completeness_member(self.decoder, prover);
        self.run_linear_panel("instances", member, &universe, report);
    }

    /// The first yes-instance the prover certifies — the honest fixture
    /// behind the erasure, invariance and degradation shapes.
    fn honest_fixture(
        &self,
        labelings: &Universe,
        is_yes: &[bool],
        report: &mut AuditReport,
    ) -> Option<LabeledInstance> {
        let needs = self.wants(PropertyTag::Erasure)
            || self.wants(PropertyTag::Invariance)
            || self.fault_plan.is_some();
        if !needs {
            return None;
        }
        let Some(prover) = self.prover else {
            report
                .notes
                .push("erasure/invariance/degradation skipped: plan has no prover".into());
            return None;
        };
        let found = labelings
            .blocks()
            .iter()
            .zip(is_yes)
            .filter(|(_, yes)| **yes)
            .find_map(|(b, _)| {
                prover
                    .certify(b.instance())
                    .map(|l| LabeledInstance::new(b.instance().clone(), l))
            });
        if found.is_none() {
            report
                .notes
                .push("erasure/invariance skipped: prover certified no instance".into());
        }
        found
    }

    fn run_erasure_panel(&self, honest: &LabeledInstance, report: &mut AuditReport) {
        if !self.wants(PropertyTag::Erasure) {
            return;
        }
        let n = honest.graph().node_count();
        let f = ERASURE_F.min(n);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xE5A5);
        let target_sets: Vec<Vec<usize>> = (0..ERASURE_TRIALS)
            .map(|_| {
                rand::seq::index::sample(&mut rng, n, f)
                    .into_iter()
                    .collect()
            })
            .collect();
        let erased_counts = target_sets.iter().map(Vec::len).collect();
        let labelings = target_sets
            .iter()
            .map(|targets| erased_labeling(honest, targets))
            .collect();
        // invariant: one item per materialized labeling, and a `Vec`
        // length always fits the flat index space.
        let universe =
            Universe::labelings_of(honest.instance().clone(), labelings, Coverage::Sampled)
                .expect("materialized labelings fit");
        let member = erasure_member(self.decoder, erased_counts);
        self.run_linear_panel("erasure", member, &universe, report);
    }

    fn run_invariance_panel(&self, honest: &LabeledInstance, report: &mut AuditReport) {
        if !self.wants(PropertyTag::Invariance) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1D5);
        let universe = anonymity_universe(
            honest.instance(),
            honest.labeling(),
            INVARIANCE_SAMPLES,
            &mut rng,
        );
        let member = invariance_member(self.decoder, honest.instance(), honest.labeling());
        self.run_linear_panel("invariance", member, &universe, report);
    }

    /// Runs one of the linear, one-member panels (completeness, erasure,
    /// invariance) unbudgeted.
    fn run_linear_panel(
        &self,
        shape: &str,
        member: DynPropertyCheck<'_>,
        universe: &Universe,
        report: &mut AuditReport,
    ) {
        let session = self.session(universe);
        let members = std::slice::from_ref(&member);
        self.run_recorded(shape, session, members, summarize_panel, report);
    }

    /// Runs this plan's labelings panel over one shard's index range and
    /// renders the resulting fragment as a portable text shard report.
    ///
    /// Only the labelings walk is sharded — it is the combinatorial
    /// shape; the remaining panels are linear in the family and the
    /// merging process recomputes them locally. A budgeted plan resumes
    /// itself until the shard's range completes, so one report always
    /// describes the whole range (`max_items` bounds each pass, the
    /// deadline each process's passes individually).
    ///
    /// The report ships reconstruction *payloads*, not verdicts:
    /// recorded partials are reduced only after
    /// [`AuditPlan::run_with_shards`] reassembles the fragments, so a
    /// merged report is the same reduction over the same partials as a
    /// single-process run — byte-identical stable JSON.
    ///
    /// # Panics
    ///
    /// As [`AuditPlan::run`] does, when the labelings universe cannot be
    /// built.
    pub fn run_shard(&self, shard: ShardSpec) -> String {
        let universe = self.labelings_universe();
        let is_yes = self.yes_mask(&universe);
        let checks = LabelingsMembers::build(self, &universe, &is_yes);
        let members = checks.members();
        let kinds = checks.kinds();
        let recorder = MetricsRecorder::new();
        let before = recorder.snapshot();
        let session = SweepSession::over(&universe)
            .mode(self.mode)
            .opts(self.opts)
            .shard(shard)
            .budget(self.budget.unwrap_or_default())
            .recorder(&recorder);
        let mut fragment = session.run_panel_fragment(&members);
        while !fragment.is_complete() {
            let stalled = fragment.next;
            fragment = session.resume_panel_fragment(&members, fragment);
            if fragment.next == stalled {
                break; // deadline too tight to advance; ship the torn range
            }
        }
        let mut out = String::new();
        out.push_str("shardreport v1\n");
        out.push_str(&format!("decoder {}\n", wire_escape(&self.decoder.name())));
        out.push_str(&format!("k {}\n", self.language.k()));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("universe {}\n", universe.len()));
        out.push_str(&format!("shard {}\n", shard.label()));
        out.push_str(&format!("range {} {}\n", fragment.lo, fragment.hi));
        out.push_str(&format!("next {}\n", fragment.next));
        for (m, frontier) in fragment.members.into_iter().enumerate() {
            let stop = frontier
                .stop_at
                .map_or_else(|| "-".to_string(), |s| s.to_string());
            out.push_str(&format!("member {m} {} {stop}\n", kinds[m].wire()));
            out.push_str(&serialize_partials(kinds[m], frontier.partials));
            for e in &frontier.errors {
                out.push_str(&format!("e {} {}\n", e.item_index, wire_escape(&e.payload)));
            }
        }
        for row in diff::diff(&before, &recorder.snapshot()).changed() {
            if row.stable {
                out.push_str(&format!("counter {} {}\n", row.name, row.delta().max(0)));
            }
        }
        out.push_str("end shardreport\n");
        out
    }

    /// Merges shard reports (from [`AuditPlan::run_shard`], any order)
    /// into the full audit: the labelings panel is reassembled from the
    /// shipped fragments and reduced once, then the remaining panels run
    /// locally exactly as [`AuditPlan::run`] would. Fails — rather than
    /// guessing — on fingerprint mismatches (different decoder, k, seed
    /// or universe size), torn reports, and ranges that don't tile the
    /// universe.
    ///
    /// With a recorder attached, the labelings telemetry section carries
    /// the *sum* of the shards' stable counters
    /// ([`super::shard::sum_stable_counters`]): stable counters are
    /// per-item, so their shard sums equal a single process's counts.
    ///
    /// # Panics
    ///
    /// As [`AuditPlan::run`] does, when the labelings universe cannot be
    /// built.
    pub fn run_with_shards(&self, shard_reports: &[String]) -> Result<AuditReport, String> {
        let mut report = self.fresh_report();
        if let Some(r) = self.attached() {
            r.span_enter("plan");
        }
        let labelings = self.labelings_universe();
        let is_yes = self.yes_mask(&labelings);
        if let Err(e) = self.merge_labelings_shards(&labelings, &is_yes, shard_reports, &mut report)
        {
            if let Some(r) = self.attached() {
                r.span_exit("plan");
            }
            return Err(e);
        }
        self.finish_run(&labelings, &is_yes, &mut report);
        Ok(report)
    }

    /// The sharded replacement for the labelings leg of [`AuditPlan::run`].
    fn merge_labelings_shards(
        &self,
        universe: &Universe,
        is_yes: &[bool],
        shard_reports: &[String],
        report: &mut AuditReport,
    ) -> Result<(), String> {
        let checks = LabelingsMembers::build(self, universe, is_yes);
        let members = checks.members();
        if members.is_empty() {
            return Ok(());
        }
        let kinds = checks.kinds();
        let mut fragments = Vec::with_capacity(shard_reports.len());
        let mut per_shard_counters = Vec::with_capacity(shard_reports.len());
        for text in shard_reports {
            let (fragment, counters) = self.parse_shard_report(text, universe, &checks, &kinds)?;
            fragments.push(fragment);
            per_shard_counters.push(counters);
        }
        let panel =
            merge_panel_fragments(&members, universe, self.mode, fragments, self.attached())?;
        report.panels.push(summarize_labelings("labelings", &panel));
        if self.telemetry.is_some() {
            let counters = super::shard::sum_stable_counters(&per_shard_counters)
                .into_iter()
                .map(|(name, delta)| (name, delta, true));
            report
                .telemetry
                .push(self.panel_telemetry("labelings", counters.collect()));
        }
        Ok(())
    }

    /// Parses one shard report against this plan's fingerprint and
    /// reconstructs its typed partials. The report is untrusted input:
    /// every header line appears at most once, the range fits the
    /// universe, every item and stop index lies inside the range (checked
    /// before any partial is rebuilt), item indices strictly increase
    /// within a member, and counter names do not repeat.
    fn parse_shard_report(
        &self,
        text: &str,
        universe: &Universe,
        checks: &LabelingsMembers<'_>,
        kinds: &[MemberKind],
    ) -> Result<(PanelFragment, Vec<(String, u64)>), String> {
        let parse_usize = |what: &str, s: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("bad {what} `{s}` in shard report"))
        };
        let mut lines = text.lines();
        if lines.next() != Some("shardreport v1") {
            return Err("shard report lacks the `shardreport v1` header".to_string());
        }
        let mut headers: Vec<&str> = Vec::new();
        let mut range: Option<(usize, usize)> = None;
        let mut next = None;
        let mut members: Vec<MemberFrontier> = Vec::new();
        // The summary member's summary under reconstruction, with its last
        // line; it becomes the member's one partial when its section ends.
        let mut summary: Option<(NbhdSummary, Option<(SummaryLine, Witness)>)> = None;
        let flush = |members: &mut Vec<MemberFrontier>, summary: &mut Option<_>, lo: usize| {
            if let (Some((built, Some(_))), Some(frontier)) = (summary.take(), members.last_mut()) {
                frontier
                    .partials
                    .push((lo, Box::new(built) as ErasedPartial));
            }
        };
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err("shard report continues past `end shardreport`".to_string());
            }
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            if SHARD_HEADERS.contains(&tag) {
                if headers.contains(&tag) {
                    return Err(format!("shard report repeats its `{tag}` line"));
                }
                headers.push(tag);
            }
            // The item index a `member`, `p` or `e` line names, checked
            // against the range before anything is built from it.
            let in_range = |what: &str, index: &str| {
                let index = parse_usize(what, index)?;
                let (lo, hi) = range
                    .ok_or_else(|| format!("shard report names {what} {index} before its range"))?;
                if (lo..hi).contains(&index) {
                    Ok(index)
                } else {
                    Err(format!(
                        "shard report {what} {index} lies outside its range [{lo}, {hi})"
                    ))
                }
            };
            if let Some(kind) = SummaryLine::from_tag(tag) {
                let (item, at) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("bad summary line `{line}`"))?;
                let witness = (in_range("item", item)?, parse_usize("node or edge", at)?);
                let Some((built, last)) = summary.as_mut() else {
                    return Err(format!(
                        "shard report line `{line}` outside a summary member"
                    ));
                };
                if last.is_some_and(|prev| (kind, witness) <= prev) {
                    return Err(format!("shard report line `{line}` is out of order"));
                }
                *last = Some((kind, witness));
                // invariant: `kinds` describes these checks, so a summary
                // member exists whenever a summary is being built.
                let (_, sweep) = checks.nbhd.as_ref().expect("summary member has a scan");
                sweep.restamp(universe, built, kind, witness)?;
                continue;
            }
            match tag {
                "decoder" => {
                    let name = wire_unescape(rest);
                    if name != self.decoder.name() {
                        return Err(format!(
                            "shard report audits decoder `{name}`, this plan audits `{}`",
                            self.decoder.name()
                        ));
                    }
                }
                "k" => {
                    if parse_usize("k", rest)? != self.language.k() {
                        return Err(format!(
                            "shard report has k={rest}, this plan has k={}",
                            self.language.k()
                        ));
                    }
                }
                "seed" => {
                    let seed = rest
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{rest}` in shard report"))?;
                    if seed != self.seed {
                        return Err(format!(
                            "shard report has seed {seed}, this plan has seed {}",
                            self.seed
                        ));
                    }
                }
                "universe" => {
                    if parse_usize("universe size", rest)? != universe.len() {
                        return Err(format!(
                            "shard report walked a universe of {rest} items, this plan's has {}",
                            universe.len()
                        ));
                    }
                }
                "shard" => {} // informational; the range line is authoritative
                "range" => {
                    let (lo, hi) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad range line `{line}`"))?;
                    let (lo, hi) = (parse_usize("range lo", lo)?, parse_usize("range hi", hi)?);
                    if lo > hi || hi > universe.len() {
                        return Err(format!(
                            "shard report range [{lo}, {hi}) does not fit the universe of {} items",
                            universe.len()
                        ));
                    }
                    range = Some((lo, hi));
                }
                "next" => next = Some(parse_usize("next", rest)?),
                "member" => {
                    let mut parts = rest.splitn(3, ' ');
                    let (index, kind, stop) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(i), Some(k), Some(s)) => (i, k, s),
                        _ => return Err(format!("bad member line `{line}`")),
                    };
                    if parse_usize("member index", index)? != members.len() {
                        return Err(format!(
                            "shard report member `{index}` out of order (expected {})",
                            members.len()
                        ));
                    }
                    let Some(&want) = kinds.get(members.len()) else {
                        return Err(format!(
                            "shard report describes more members than this plan's panel ({})",
                            kinds.len()
                        ));
                    };
                    if kind != want.wire() {
                        return Err(format!(
                            "shard report member {index} is `{kind}`, this plan expects `{}`",
                            want.wire()
                        ));
                    }
                    let stop_at = if stop == "-" {
                        None
                    } else {
                        Some(in_range("stop index", stop)?)
                    };
                    // A summary line needs the range, so a summary built
                    // before the range line is empty and the key unused.
                    flush(&mut members, &mut summary, range.map_or(0, |(lo, _)| lo));
                    summary = (want == MemberKind::Summary).then(|| (NbhdSummary::default(), None));
                    members.push(MemberFrontier {
                        stop_at,
                        partials: Vec::new(),
                        errors: Vec::new(),
                    });
                }
                "p" => {
                    let (item, payload) = match rest.split_once(' ') {
                        Some((item, payload)) => (item, Some(payload)),
                        None => (rest, None),
                    };
                    let item = in_range("item", item)?;
                    let kind = kinds[..members.len()].last().copied();
                    let (Some(frontier), Some(kind)) = (members.last_mut(), kind) else {
                        return Err("shard report partial before any member line".to_string());
                    };
                    if frontier
                        .partials
                        .last()
                        .is_some_and(|&(last, _)| item <= last)
                    {
                        return Err(format!("shard report item {item} is out of order"));
                    }
                    let partial = checks.reconstruct_partial(kind, universe, item, payload)?;
                    frontier.partials.push((item, partial));
                }
                "e" => {
                    let (item, payload) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad error line `{line}`"))?;
                    let item = in_range("item", item)?;
                    let Some(frontier) = members.last_mut() else {
                        return Err("shard report error before any member line".to_string());
                    };
                    if frontier.errors.last().is_some_and(|e| item <= e.item_index) {
                        return Err(format!("shard report error item {item} is out of order"));
                    }
                    frontier.errors.push(SweepError {
                        item_index: item,
                        payload: wire_unescape(payload),
                    });
                }
                "counter" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad counter line `{line}`"))?;
                    let value = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad counter value `{value}` in shard report"))?;
                    if counters.iter().any(|(n, _)| n == name) {
                        return Err(format!("shard report repeats counter `{name}`"));
                    }
                    counters.push((name.to_string(), value));
                }
                "end" if rest == "shardreport" => ended = true,
                "" => {}
                _ => return Err(format!("unknown shard report line `{line}`")),
            }
        }
        if !ended || !text.ends_with('\n') {
            return Err("shard report is torn: no `end shardreport` trailer".to_string());
        }
        let (lo, hi) = range.ok_or_else(|| "shard report lacks a range line".to_string())?;
        flush(&mut members, &mut summary, lo);
        let next = next.ok_or_else(|| "shard report lacks a next line".to_string())?;
        if !(lo..=hi).contains(&next) {
            return Err(format!(
                "shard report's next index {next} lies outside its range [{lo}, {hi}]"
            ));
        }
        if members.len() != kinds.len() {
            return Err(format!(
                "shard report describes {} members, this plan's panel has {}",
                members.len(),
                kinds.len()
            ));
        }
        Ok((
            PanelFragment {
                lo,
                hi,
                next,
                members,
            },
            counters,
        ))
    }
}

/// The shard report's header lines, each allowed at most once.
const SHARD_HEADERS: [&str; 7] = ["decoder", "k", "seed", "universe", "shard", "range", "next"];

/// One member's line in an [`AuditPanelReport`].
#[derive(Debug, Clone)]
pub struct AuditMemberReport {
    /// The property's stable name.
    pub property: String,
    /// The member's label.
    pub label: String,
    /// `Some(true)` held, `Some(false)` violated, `None` informational.
    pub passed: Option<bool>,
    /// Human-readable verdict detail.
    pub detail: String,
    /// Items this member inspected (sequential semantics).
    pub checked: usize,
    /// Whether the member short-circuited.
    pub short_circuited: bool,
    /// Whether the budget cut this member off.
    pub interrupted: bool,
    /// The member's achieved coverage.
    pub coverage: Coverage,
    /// Inspection errors this member hit.
    pub errors: usize,
}

/// One executed panel in an [`AuditReport`].
#[derive(Debug, Clone)]
pub struct AuditPanelReport {
    /// The universe shape ("labelings", "instances", "erasure",
    /// "invariance").
    pub shape: String,
    /// Total items in the panel's universe.
    pub universe_size: usize,
    /// How far the shared walk reached.
    pub checked: usize,
    /// Worker threads used (1 = sequential).
    pub threads: usize,
    /// Wall-clock time of the panel.
    pub elapsed: Duration,
    /// Views served from the shared skeleton cache.
    pub cache_hits: usize,
    /// Skeletons computed plus uncached extractions.
    pub cache_misses: usize,
    /// Delta-path memo hits across all verdict channels.
    pub memo_hits: usize,
    /// Delta-path decoder runs across all verdict channels.
    pub memo_misses: usize,
    /// Whether a budget ended the walk early.
    pub interrupted: bool,
    /// Per-member verdict lines, in member order.
    pub members: Vec<AuditMemberReport>,
}

/// One panel's counter movement under the plan's attached recorder:
/// the before/after snapshot diff taken around that panel's walk.
#[derive(Debug, Clone)]
pub struct PanelTelemetry {
    /// The panel's shape (matches the [`AuditPanelReport`] shape).
    pub shape: String,
    /// The sweep strategy the panel ran under.
    pub strategy: String,
    /// Counters the panel moved: `(wire name, delta, stable)`. Stable
    /// counters are deterministic for a fixed plan; the rest depend on
    /// scheduling (memo timing, interner contention).
    pub counters: Vec<(String, u64, bool)>,
}

/// The batch result of an [`AuditPlan`].
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The audited decoder's name.
    pub decoder: String,
    /// The language parameter (k of k-coloring).
    pub k: usize,
    /// The plan seed.
    pub seed: u64,
    /// Executed panels, in shape order.
    pub panels: Vec<AuditPanelReport>,
    /// Per-panel telemetry breakdowns; empty unless the plan carried
    /// [`AuditPlan::telemetry`].
    pub telemetry: Vec<PanelTelemetry>,
    /// The fault-degradation sweep, when a fault plan was given.
    pub degradation: Option<DegradationReport>,
    /// Panels skipped or degraded, with reasons.
    pub notes: Vec<String>,
}

/// The stable counters that compose across shard boundaries — the only
/// counters [`AuditReport::to_stable_json`] prints. `cache_misses` is
/// deterministic for a fixed single-process plan but not shard-composable
/// (each process warms its own skeleton cache), and `cache_hits` is not
/// even deterministic (see [`super::SweepCounter::is_stable`]), so both are
/// deliberately absent.
pub const STABLE_COUNTER_ALLOWLIST: &[&str] = &[
    "budget_interruptions",
    "items_inspected",
    "items_orbit_skipped",
    "items_walked",
    "orbit_multiplicity",
    "panics_caught",
    "quotient_blocks",
    "verdict_readbacks",
    "verdict_refreshes",
];

/// The wire name of a sweep strategy, as rendered in telemetry sections.
fn strategy_name(strategy: SweepStrategy) -> &'static str {
    match strategy {
        SweepStrategy::DeltaStepping => "delta-stepping",
        SweepStrategy::DecodeOracle => "decode-oracle",
        SweepStrategy::Quotient => "quotient",
    }
}

impl AuditReport {
    /// Every member that *violated* its property (`passed == Some(false)`),
    /// as `"shape/property"` strings. Informational members (`None`) are
    /// not failures.
    pub fn failures(&self) -> Vec<String> {
        self.panels
            .iter()
            .flat_map(|p| {
                p.members
                    .iter()
                    .filter(|m| m.passed == Some(false))
                    .map(|m| format!("{}/{}", p.shape, m.property))
            })
            .collect()
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace
    /// carries no serializer dependency).
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// The deterministic projection of [`AuditReport::to_json`]: the same
    /// structure with every scheduling- and process-dependent field
    /// pinned. Wall-clock renders as `0.000`, per-process cache/memo
    /// counters as zero, and telemetry sections keep only the
    /// shard-composable counters ([`STABLE_COUNTER_ALLOWLIST`], sorted by
    /// name) with `observed` left empty. Two runs of the same plan —
    /// sharded across any number of processes or not — render
    /// byte-identical stable JSON; the CI shard smoke job diffs exactly
    /// this.
    pub fn to_stable_json(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, stable: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"decoder\": {},\n", json_str(&self.decoder)));
        out.push_str(&format!("  \"k\": {},\n", self.k));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"panels\": [");
        for (i, panel) in self.panels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"shape\": {},\n", json_str(&panel.shape)));
            out.push_str(&format!(
                "      \"universe_size\": {},\n      \"checked\": {},\n      \"threads\": {},\n",
                panel.universe_size, panel.checked, panel.threads
            ));
            let elapsed_ms = if stable {
                0.0
            } else {
                panel.elapsed.as_secs_f64() * 1e3
            };
            out.push_str(&format!("      \"elapsed_ms\": {elapsed_ms:.3},\n"));
            let (cache_hits, cache_misses, memo_hits, memo_misses) = if stable {
                (0, 0, 0, 0)
            } else {
                (
                    panel.cache_hits,
                    panel.cache_misses,
                    panel.memo_hits,
                    panel.memo_misses,
                )
            };
            out.push_str(&format!(
                "      \"cache_hits\": {cache_hits},\n      \"cache_misses\": {cache_misses},\n      \"memo_hits\": {memo_hits},\n      \"memo_misses\": {memo_misses},\n",
            ));
            out.push_str(&format!("      \"interrupted\": {},\n", panel.interrupted));
            out.push_str("      \"members\": [");
            for (j, m) in panel.members.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {");
                out.push_str(&format!("\"property\": {}, ", json_str(&m.property)));
                out.push_str(&format!("\"label\": {}, ", json_str(&m.label)));
                out.push_str(&format!(
                    "\"passed\": {}, ",
                    match m.passed {
                        Some(b) => b.to_string(),
                        None => "null".into(),
                    }
                ));
                out.push_str(&format!("\"detail\": {}, ", json_str(&m.detail)));
                out.push_str(&format!(
                    "\"checked\": {}, \"short_circuited\": {}, \"interrupted\": {}, ",
                    m.checked, m.short_circuited, m.interrupted
                ));
                out.push_str(&format!(
                    "\"coverage\": {}, \"errors\": {}}}",
                    json_str(match m.coverage {
                        Coverage::Exhaustive => "exhaustive",
                        Coverage::Sampled => "sampled",
                    }),
                    m.errors
                ));
            }
            if !panel.members.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !self.panels.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"telemetry\": [");
        for (i, t) in self.telemetry.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"shape\": {},\n", json_str(&t.shape)));
            out.push_str(&format!("      \"strategy\": {},\n", json_str(&t.strategy)));
            for (section, want_stable) in [("stable", true), ("observed", false)] {
                out.push_str(&format!("      \"{section}\": {{"));
                // The stable rendering prints only the shard-composable
                // allowlist, name-sorted so live and merged sections
                // agree byte for byte; observed counters are per-process
                // and render empty there.
                let mut rows: Vec<(&str, u64)> = t
                    .counters
                    .iter()
                    .filter(|(_, _, s)| *s == want_stable)
                    .filter(|(name, _, _)| {
                        !stable
                            || (want_stable && STABLE_COUNTER_ALLOWLIST.contains(&name.as_str()))
                    })
                    .map(|(name, delta, _)| (name.as_str(), *delta))
                    .collect();
                if stable {
                    rows.sort_by(|a, b| a.0.cmp(b.0));
                }
                let mut first = true;
                for (name, delta) in rows {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    out.push_str(&format!("{}: {delta}", json_str(name)));
                }
                out.push_str(if want_stable { "},\n" } else { "}\n" });
            }
            out.push_str("    }");
        }
        if !self.telemetry.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        match &self.degradation {
            Some(deg) => {
                out.push_str("  \"degradation\": {\n");
                out.push_str(&format!(
                    "    \"decoder\": {},\n    \"nodes\": {},\n    \"seed\": {},\n",
                    json_str(&deg.decoder),
                    deg.nodes,
                    deg.seed
                ));
                out.push_str("    \"points\": [");
                for (i, p) in deg.points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n      {{\"rate\": {}, \"trials\": {}, \"avg_rejecting\": {:.4}, \"strong_violations\": {}, \"adversarial_trials\": {}, \"false_accepts\": {}, \"fault_events\": {}}}",
                        p.rate, p.trials, p.avg_rejecting, p.strong_violations,
                        p.adversarial_trials, p.false_accepts, p.stats.total()
                    ));
                }
                if !deg.points.is_empty() {
                    out.push_str("\n    ");
                }
                out.push_str("]\n  },\n");
            }
            None => out.push_str("  \"degradation\": null,\n"),
        }
        out.push_str("  \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(note));
        }
        out.push_str("]\n}\n");
        out
    }
}

fn summarize_panel(shape: &str, panel: &PanelReport) -> AuditPanelReport {
    AuditPanelReport {
        shape: shape.into(),
        universe_size: panel.evidence.universe_size,
        checked: panel.evidence.checked,
        threads: panel.evidence.threads,
        elapsed: panel.evidence.elapsed,
        cache_hits: panel.evidence.cache_hits,
        cache_misses: panel.evidence.cache_misses,
        memo_hits: panel.evidence.memo_hits,
        memo_misses: panel.evidence.memo_misses,
        interrupted: panel.evidence.interrupted,
        members: panel
            .members
            .iter()
            .map(|m| AuditMemberReport {
                property: m.tag.as_str().into(),
                label: m.label.clone(),
                passed: m.verdict.passed,
                detail: m.verdict.detail.clone(),
                checked: m.checked,
                short_circuited: m.short_circuited,
                interrupted: m.interrupted,
                coverage: m.coverage,
                errors: m.errors.len(),
            })
            .collect(),
    }
}

/// [`summarize_panel`] for the labelings panel: the Lemma 3.1 scan
/// member's line becomes one line per property the scan was built for.
fn summarize_labelings(shape: &str, panel: &PanelReport) -> AuditPanelReport {
    let mut summary = summarize_panel(shape, panel);
    split_nbhd_member(&mut summary, panel);
    summary
}

/// Replaces the Lemma 3.1 scan member's line with one line per wanted
/// property (hiding, then quantified), each with the text the standalone
/// member reports; counts, coverage and errors are the one scan's. So an
/// [`AuditReport`] reads the same whether one scan served one property
/// or two.
fn split_nbhd_member(summary: &mut AuditPanelReport, panel: &PanelReport) {
    let Some((index, verdict)) = panel
        .members
        .iter()
        .enumerate()
        .find_map(|(i, m)| Some((i, m.verdict.get::<NbhdVerdict>()?)))
    else {
        return;
    };
    let base = summary.members.remove(index);
    let lines = verdict
        .hiding
        .iter()
        .map(|v| (PropertyTag::Hiding, hiding_line(v)))
        .chain(
            verdict
                .extractability
                .iter()
                .map(|m| (PropertyTag::Quantified, quantified_line(&verdict.graph, m))),
        );
    for (offset, (tag, (passed, detail))) in lines.enumerate() {
        let line = AuditMemberReport {
            property: tag.as_str().into(),
            label: tag.as_str().into(),
            passed,
            detail,
            ..base.clone()
        };
        summary.members.insert(index + offset, line);
    }
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Verdict;
    use crate::label::Labeling;
    use crate::view::View;
    use hiding_lcp_graph::generators;

    /// Accepts iff the node's certificate is nonempty and differs from
    /// all neighbors' — a sound, strong, revealing 2-coloring scheme.
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
            if view.center_label().is_empty() {
                return Verdict::Reject;
            }
            let mine = view.center_label();
            Verdict::from(view.center_arcs().iter().all(|arc| {
                let l = &view.node(arc.to).label;
                !l.is_empty() && l != mine
            }))
        }
    }

    /// Certifies bipartite graphs by revealing a 2-coloring.
    struct BipartiteProver;
    impl Prover for BipartiteProver {
        fn name(&self) -> String {
            "bipartite".into()
        }
        fn certify(&self, instance: &Instance) -> Option<Labeling> {
            let sides = hiding_lcp_graph::algo::bipartite::bipartition(instance.graph()).ok()?;
            Some(sides.iter().map(|&s| Certificate::from_byte(s)).collect())
        }
    }

    fn bits() -> Vec<Certificate> {
        vec![Certificate::from_byte(0), Certificate::from_byte(1)]
    }

    fn family() -> InstanceSet {
        InstanceSet::Explicit {
            instances: vec![
                Instance::canonical(generators::cycle(4)),
                Instance::canonical(generators::path(3)),
                Instance::canonical(generators::cycle(5)),
            ],
            coverage: Coverage::Sampled,
        }
    }

    #[test]
    fn full_battery_compiles_into_four_panels() {
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .seed(11)
            .run();
        let shapes: Vec<&str> = report.panels.iter().map(|p| p.shape.as_str()).collect();
        assert_eq!(shapes, ["labelings", "instances", "erasure", "invariance"]);
        let labelings = &report.panels[0];
        assert_eq!(labelings.universe_size, 16 + 8 + 32);
        let props: Vec<&str> = labelings
            .members
            .iter()
            .map(|m| m.property.as_str())
            .collect();
        assert_eq!(props, ["soundness", "strong", "hiding", "quantified"]);
        // LocalDiff is sound (C5 admits no proper 2-labeling over two
        // certificates), strong (accepting sets are properly colored) and
        // complete with the bipartite prover; it reveals the coloring, so
        // hiding over a sampled family is at best inconclusive.
        assert_eq!(labelings.members[0].passed, Some(true), "soundness");
        assert_eq!(labelings.members[1].passed, Some(true), "strong");
        assert_ne!(labelings.members[2].passed, Some(true), "hiding");
        assert_eq!(report.panels[1].members[0].passed, Some(true));
        assert!(report.failures().is_empty() || report.failures() == ["labelings/hiding"]);
        assert!(
            report.notes.is_empty(),
            "nothing skipped: {:?}",
            report.notes
        );
    }

    /// For every subset of {hiding, quantified}, the plan's one Lemma 3.1
    /// scan member must report exactly the lines the standalone
    /// `hiding_member` / `quantified_member` produce on the same universe
    /// — sharing the scan is a cost optimization, never an observable one.
    #[test]
    fn shared_nbhd_scan_matches_standalone_members() {
        use crate::properties::hiding::hiding_member;
        use crate::properties::quantified::quantified_member;
        let plan = || AuditPlan::new(&LocalDiff, 2, family(), bits());
        let universe = plan().labelings_universe();
        let is_yes = |g: &Graph| KCol::new(2).is_yes_graph(g);
        for subset in [
            vec![PropertyTag::Hiding],
            vec![PropertyTag::Quantified],
            vec![PropertyTag::Hiding, PropertyTag::Quantified],
        ] {
            let members: Vec<DynPropertyCheck<'_>> = subset
                .iter()
                .map(|tag| match tag {
                    PropertyTag::Hiding => hiding_member(&LocalDiff, &universe, 2, is_yes),
                    _ => quantified_member(&LocalDiff, &universe, 2, is_yes),
                })
                .collect();
            let standalone = SweepSession::over(&universe).run_panel(&members);
            let audit = plan().properties(subset.clone()).run();
            let lines = &audit.panels[0].members;
            assert_eq!(lines.len(), subset.len(), "{subset:?}");
            for (line, m) in lines.iter().zip(&standalone.members) {
                assert_eq!(line.property, m.tag.as_str(), "{subset:?}");
                assert_eq!(line.label, m.label, "{subset:?}");
                assert_eq!(line.passed, m.verdict.passed, "{subset:?}");
                assert_eq!(line.detail, m.verdict.detail, "{subset:?}");
                assert_eq!(line.checked, m.checked, "{subset:?}");
                assert_eq!(line.coverage, m.coverage, "{subset:?}");
            }
        }
    }

    #[test]
    fn property_subset_and_missing_prover_are_noted() {
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .properties([PropertyTag::Soundness, PropertyTag::Completeness])
            .run();
        assert_eq!(report.panels.len(), 1);
        assert_eq!(report.panels[0].members.len(), 1);
        assert_eq!(report.panels[0].members[0].property, "soundness");
        assert!(report.notes.iter().any(|n| n.contains("no prover")));
    }

    #[test]
    fn lemma31_family_gates_soundness_onto_no_instances() {
        let report = AuditPlan::new(&LocalDiff, 2, InstanceSet::Lemma31 { max_n: 3 }, bits())
            .properties([PropertyTag::Soundness, PropertyTag::Strong])
            .run();
        let labelings = &report.panels[0];
        // The n<=3 family's only no-instance is the triangle; soundness
        // still scans the full shared walk but only records there.
        assert_eq!(labelings.members[0].passed, Some(true));
        assert_eq!(labelings.members[1].passed, Some(true));
        assert_eq!(labelings.checked, labelings.universe_size);
    }

    /// A plan with a recorder attached reports one telemetry section per
    /// executed panel, every panel walks, and the plan span closes.
    #[test]
    fn telemetry_section_breaks_down_per_panel() {
        let recorder = MetricsRecorder::new();
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .telemetry(&recorder)
            .run();
        let shapes: Vec<&str> = report.telemetry.iter().map(|t| t.shape.as_str()).collect();
        assert_eq!(shapes, ["labelings", "instances", "erasure", "invariance"]);
        for t in &report.telemetry {
            assert_eq!(t.strategy, "delta-stepping");
            assert!(
                t.counters
                    .iter()
                    .any(|(name, delta, _)| name == "items_walked" && *delta > 0),
                "{} panel walked nothing: {:?}",
                t.shape,
                t.counters
            );
        }
        assert!(recorder.trace_balanced(), "plan/panel spans all close");
        let json = report.to_json();
        assert!(json.contains("\"telemetry\": ["));
        assert!(json.contains("\"strategy\": \"delta-stepping\""));
        // The section reflects the recorder the caller owns: the summed
        // per-panel walked counts equal the recorder's grand total.
        let walked: u64 = report
            .telemetry
            .iter()
            .flat_map(|t| &t.counters)
            .filter(|(name, _, _)| name == "items_walked")
            .map(|(_, delta, _)| delta)
            .sum();
        assert_eq!(recorder.snapshot().get("items_walked"), Some(walked));
    }

    /// The tentpole invariant at plan level: a 2- or 4-way sharded audit
    /// merges into stable JSON byte-identical to one process's.
    #[test]
    fn sharded_audit_merges_byte_identical() {
        let plan = || {
            AuditPlan::new(&LocalDiff, 2, family(), bits())
                .prover(&BipartiteProver)
                .seed(7)
        };
        let single = plan().run().to_stable_json();
        for shards in [2usize, 4] {
            let reports: Vec<String> = ShardSpec::partition(shards)
                .into_iter()
                .map(|s| plan().run_shard(s))
                .collect();
            let merged = plan()
                .run_with_shards(&reports)
                .expect("clean shard reports merge");
            assert_eq!(single, merged.to_stable_json(), "{shards} shards");
        }
    }

    /// Tampered or mismatched shard reports fail the merge loudly
    /// instead of producing a silently wrong audit.
    #[test]
    fn shard_merge_rejects_fingerprint_and_torn_reports() {
        let plan = || AuditPlan::new(&LocalDiff, 2, family(), bits()).seed(7);
        let reports: Vec<String> = ShardSpec::partition(2)
            .into_iter()
            .map(|s| plan().run_shard(s))
            .collect();
        let torn = vec![
            reports[0].clone(),
            reports[1].replace("end shardreport\n", ""),
        ];
        let err = plan().run_with_shards(&torn).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        let err = plan().seed(8).run_with_shards(&reports).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        // The same shard twice leaves a gap and an overlap in the tiling.
        let twice = vec![reports[0].clone(), reports[0].clone()];
        plan().run_with_shards(&twice).unwrap_err();
        // Missing a shard leaves the tail of the universe uncovered.
        let half = vec![reports[0].clone()];
        plan().run_with_shards(&half).unwrap_err();
    }

    /// Shard reports are untrusted input. Truncations, duplicated lines
    /// and out-of-range or out-of-order item indices must fail the merge;
    /// swapping two adjacent lines, or replacing a numeric token by the
    /// universe size or `u64::MAX`, must fail it or leave it unchanged.
    /// A forged accept witness on a rejecting node and a summary line on
    /// a no-instance block must fail it. No case may panic: each runs
    /// under `catch_unwind`, so a failure names its case.
    #[test]
    fn shard_merge_survives_adversarial_reports() {
        let plan = || AuditPlan::new(&LocalDiff, 2, family(), bits()).seed(7);
        let reports: Vec<String> = ShardSpec::partition(2)
            .into_iter()
            .map(|s| plan().run_shard(s))
            .collect();
        let clean = plan().run_with_shards(&reports).unwrap().to_stable_json();
        let n = plan().labelings_universe().len();
        // Merges with shard `s`'s report replaced by `text`: an `Ok` must
        // reproduce the clean merge, and `fails` demands an `Err`.
        let check = |case: String, s: usize, text: String, fails: bool| {
            let mut tampered = reports.clone();
            tampered[s] = text;
            let merged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan().run_with_shards(&tampered)
            }))
            .unwrap_or_else(|_| panic!("merge panicked on {case}"));
            if let Ok(report) = merged {
                assert!(!fails, "merge accepted {case}");
                assert_eq!(report.to_stable_json(), clean, "{case} changed the merge");
            }
        };
        let join =
            |lines: &[String]| -> String { lines.iter().map(|l| l.clone() + "\n").collect() };
        // Partial lines: violations (`p`) and summary witnesses.
        let is_partial = |line: &str| ["p ", "a ", "c "].iter().any(|t| line.starts_with(t));
        // Shard `s`'s report with every line tagged `tag` replaced by one
        // forged `line`, which keeps the lines in order.
        let forge = |s: usize, tag: &str, line: String| {
            let mut lines: Vec<String> = reports[s].lines().map(str::to_string).collect();
            let at = lines
                .iter()
                .position(|l| l.starts_with(tag))
                .expect("tagged line");
            lines.retain(|l| !l.starts_with(tag));
            lines.insert(at, line);
            join(&lines)
        };
        // Shard 0 holds every yes-instance. Its item 0 labels C4 all-zero,
        // so every node rejects; its item 25 is on C5, a no-instance.
        let merge_forged = |tag: &str, line: &str| {
            let forged = vec![forge(0, tag, line.into()), reports[1].clone()];
            check(format!("forged `{line}`"), 0, forged[0].clone(), true);
            plan().run_with_shards(&forged).unwrap_err()
        };
        let err = merge_forged("a ", "a 0 0");
        assert!(err.contains("rejects"), "accept witness re-decided: {err}");
        let err = merge_forged("c ", "c 25 0");
        assert!(err.contains("no-instance"), "pair block checked: {err}");
        let err = merge_forged("c ", "c 0 0");
        assert!(err.contains("rejects"), "pair ends re-decided: {err}");
        let mut items_tampered = 0;
        for (s, report) in reports.iter().enumerate() {
            let (lo, hi) = ShardSpec::new(s, 2).range(n);
            for cut in 0..report.len() {
                check(
                    format!("shard {s} cut at {cut}"),
                    s,
                    report[..cut].into(),
                    true,
                );
            }
            let lines: Vec<String> = report.lines().map(str::to_string).collect();
            for i in 0..lines.len() {
                let mut dup = lines.clone();
                dup.insert(i, lines[i].clone());
                check(format!("shard {s} line {i} twice"), s, join(&dup), true);
                if i > 0 {
                    let mut swapped = lines.clone();
                    swapped.swap(i - 1, i);
                    let reordered = is_partial(&lines[i - 1]) && is_partial(&lines[i]);
                    check(
                        format!("shard {s} line {i} up"),
                        s,
                        join(&swapped),
                        reordered,
                    );
                }
                let tokens: Vec<&str> = lines[i].split(' ').collect();
                for (t, token) in tokens.iter().enumerate() {
                    if token.parse::<u64>().is_err() {
                        continue;
                    }
                    let item = t == 1 && is_partial(&lines[i]);
                    let mut values = vec![n as u64, u64::MAX];
                    if item {
                        items_tampered += 1;
                        values.push(hi as u64);
                        values.extend(lo.checked_sub(1).map(|v| v as u64));
                    }
                    for value in values {
                        let mut edited = tokens.clone();
                        let value = value.to_string();
                        edited[t] = &value;
                        let mut tampered = lines.clone();
                        tampered[i] = edited.join(" ");
                        let case = format!("shard {s} line {i} token {t} = {value}");
                        check(case, s, join(&tampered), item);
                    }
                }
            }
        }
        assert!(
            items_tampered > 0,
            "the reports ship partials to tamper with"
        );
    }

    /// Stable JSON pins wall-clock and per-process counters, so repeated
    /// runs agree byte for byte.
    #[test]
    fn stable_json_pins_scheduling_fields() {
        let audit = || {
            AuditPlan::new(&LocalDiff, 2, family(), bits())
                .prover(&BipartiteProver)
                .seed(7)
                .run()
        };
        let json = audit().to_stable_json();
        assert!(json.contains("\"elapsed_ms\": 0.000"), "{json}");
        assert!(json.contains("\"cache_hits\": 0"), "{json}");
        assert_eq!(json, audit().to_stable_json());
    }

    /// A merged report's labelings telemetry is the sum of the shards'
    /// stable counters, and agrees with a single process's section on
    /// the stable-JSON allowlist.
    #[test]
    fn sharded_telemetry_sums_match_single_process() {
        let recorder = MetricsRecorder::new();
        let single = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .telemetry(&recorder)
            .seed(7)
            .run();
        let reports: Vec<String> = ShardSpec::partition(2)
            .into_iter()
            .map(|s| {
                AuditPlan::new(&LocalDiff, 2, family(), bits())
                    .seed(7)
                    .run_shard(s)
            })
            .collect();
        let shard_recorder = MetricsRecorder::new();
        let merged = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .telemetry(&shard_recorder)
            .seed(7)
            .run_with_shards(&reports)
            .expect("shards merge");
        assert_eq!(single.to_stable_json(), merged.to_stable_json());
        let allowlisted = |r: &AuditReport| {
            let mut rows: Vec<(String, u64)> = r.telemetry[0]
                .counters
                .iter()
                .filter(|(name, _, s)| *s && STABLE_COUNTER_ALLOWLIST.contains(&name.as_str()))
                .map(|(name, delta, _)| (name.clone(), *delta))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(allowlisted(&single), allowlisted(&merged));
        assert!(
            allowlisted(&single)
                .iter()
                .any(|(name, delta)| name == "items_walked" && *delta > 0),
            "labelings section records the walk"
        );
    }

    #[test]
    fn json_renders_balanced_and_complete() {
        let report = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .fault_plan(FaultSpec {
                rates: vec![0.0, 0.3],
                trials: 3,
            })
            .seed(7)
            .run();
        let json = report.to_json();
        for key in [
            "\"decoder\": \"local-diff\"",
            "\"panels\"",
            "\"shape\": \"labelings\"",
            "\"property\": \"soundness\"",
            "\"degradation\"",
            "\"points\"",
            "\"notes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
        // Determinism: the same plan renders the same report.
        let again = AuditPlan::new(&LocalDiff, 2, family(), bits())
            .prover(&BipartiteProver)
            .fault_plan(FaultSpec {
                rates: vec![0.0, 0.3],
                trials: 3,
            })
            .seed(7)
            .run();
        // Compare everything but wall-clock.
        assert_eq!(report.failures(), again.failures());
        assert_eq!(
            report.degradation.as_ref().map(|d| &d.points),
            again.degradation.as_ref().map(|d| &d.points)
        );
    }
}
