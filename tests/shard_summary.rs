//! A shard report ships the Lemma 3.1 scan as its first-witness summary:
//! one line per accepted view and per candidate pair, not one line per
//! yes-labeling of the shard's range. Degree-one's verdict follows its
//! anonymous view, so the scan never folds a rejecting node: no seen-view
//! lines, and every pair joins two accepting nodes.

use hiding_lcp::certs::degree_one;
use hiding_lcp::core::decoder::Decoder;
use hiding_lcp::core::language::KCol;
use hiding_lcp::core::nbhd::{NbhdSummary, NbhdSweep};
use hiding_lcp::core::verify::{
    AuditPlan, DynPropertyCheck, InstanceSet, PropertyTag, ShardSpec, SweepSession, Universe,
};
use hiding_lcp::core::view::IdMode;

#[test]
fn degree_one_shard_ships_its_summary_not_its_labelings() {
    let decoder = degree_one::DegreeOneDecoder;
    let alphabet = degree_one::adversary_alphabet();
    let shard = ShardSpec::new(0, 2);
    let plan = AuditPlan::new(
        &decoder,
        2,
        InstanceSet::Lemma31 { max_n: 4 },
        alphabet.clone(),
    );
    let report = plan.run_shard(shard);
    let lines = |tag: &str| report.lines().filter(|l| l.starts_with(tag)).count();

    // The summary one scan folds over the same range, in process.
    let universe = Universe::lemma31(4, alphabet).expect("the n <= 4 family fits");
    let language = KCol::new(2);
    let is_yes = |g: &hiding_lcp::graph::Graph| language.is_yes_graph(g);
    let check = NbhdSweep::new(&decoder, IdMode::Anonymous, &universe, is_yes);
    let members = [DynPropertyCheck::new(PropertyTag::Hiding, "scan", &check)];
    let fragment = SweepSession::over(&universe)
        .shard(shard)
        .run_panel_fragment(&members);
    let mut summary = NbhdSummary::default();
    for (_, partial) in fragment.members.into_iter().flat_map(|m| m.partials) {
        let partial = partial.downcast::<NbhdSummary>();
        summary.merge(*partial.expect("scan partials are summaries"));
    }
    assert_eq!(lines("v "), 0, "no seen-view lines");
    assert_eq!(lines("a "), summary.views_accepted(), "accepted views");
    assert_eq!(lines("c "), summary.candidate_pairs(), "candidate pairs");
    assert_eq!(lines("p "), 0, "degree-one is sound and strong");
    for line in report.lines().filter(|l| l.starts_with("c ")) {
        let mut tokens = line[2..]
            .split(' ')
            .map(|t| t.parse::<usize>().expect("number"));
        let (item, pos) = (tokens.next().expect("item"), tokens.next().expect("pos"));
        let li = universe.labeled_instance(item);
        let (u, v) = li.graph().edges().nth(pos).expect("edge position");
        let accepts = |w: usize| {
            decoder
                .decide(&li.view(w, decoder.radius(), decoder.id_mode()))
                .is_accept()
        };
        assert!(accepts(u) && accepts(v), "`{line}` pairs a rejecting node");
    }

    let (lo, hi) = shard.range(universe.len());
    let yes_labelings = (lo..hi)
        .filter(|&i| is_yes(universe.blocks()[universe.locate(i).0].instance().graph()))
        .count();
    let shipped = lines("a ") + lines("c ");
    assert!(
        shipped < yes_labelings,
        "{shipped} summary lines for {yes_labelings} yes-labelings"
    );
}
