//! Theorem 1.5's executable content, end to end:
//!
//! * the upper-bound LCPs (hiding **and** strong) never yield a
//!   refutation — their hiding witnesses cannot be realized;
//! * cheating decoders are refuted through both routes: the adversarial
//!   search (edge-3-coloring on K₄) and the Lemma 5.1 `G_bad`
//!   realization (accept-everything on the identifier pentagon);
//! * the Lemma 6.2 order-invariantization and the finite Ramsey search
//!   compose with real decoders.

use hiding_lcp::certs::degree_one::{DegreeOneDecoder, DegreeOneProver};
use hiding_lcp::certs::edge3::{Edge3Decoder, Edge3Prover};
use hiding_lcp::core::decoder::{run, Decoder, Verdict};
use hiding_lcp::core::instance::{Instance, LabeledInstance};
use hiding_lcp::core::label::Labeling;
use hiding_lcp::core::lower::{refute, search_cycle_decoders, try_realize_walk, RefutationOutcome};
use hiding_lcp::core::nbhd::NbhdGraph;
use hiding_lcp::core::prover::Prover;
use hiding_lcp::core::ramsey::{monochromatic_subset, OrderInvariantized};
use hiding_lcp::core::view::{IdMode, View};
use hiding_lcp::graph::algo::bipartite;
use hiding_lcp::graph::{generators, Graph, IdAssignment, PortAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct YesMan;
impl Decoder for YesMan {
    fn name(&self) -> String {
        "accept-everything".into()
    }
    fn radius(&self) -> usize {
        1
    }
    fn id_mode(&self) -> IdMode {
        IdMode::Full
    }
    fn decide(&self, _view: &View) -> Verdict {
        Verdict::Accept
    }
}

/// The pentagon universe of the `refutation` example (five bipartite
/// 6-cycles whose pentagon-member views glue into a realizable odd view
/// cycle).
fn pentagon_universe() -> Vec<LabeledInstance> {
    let pent = |i: i64| -> u64 { ((i - 1).rem_euclid(5) + 1) as u64 };
    (1..=5i64)
        .map(|j| {
            let ids = vec![
                pent(j - 1),
                pent(j),
                pent(j + 1),
                pent(j + 2),
                (6 + 2 * j) as u64,
                (7 + 2 * j) as u64,
            ];
            let mut g = Graph::new(6);
            for k in 0..6usize {
                g.add_edge(k, (k + 1) % 6).unwrap();
            }
            let order = vec![
                vec![1, 5],
                vec![2, 0],
                vec![3, 1],
                vec![4, 2],
                vec![5, 3],
                vec![0, 4],
            ];
            let ports = PortAssignment::from_order(&g, order).unwrap();
            let inst = Instance::new(g, ports, IdAssignment::from_ids(ids, 64).unwrap()).unwrap();
            let n = inst.graph().node_count();
            inst.with_labeling(Labeling::empty(n))
        })
        .collect()
}

#[test]
fn upper_bound_lcps_cannot_be_refuted() {
    // The degree-one LCP is hiding AND strong: refute() must stop at
    // HidingOnly even when fed honest adversarial material.
    let g = generators::path(4);
    let mut universe = Vec::new();
    for ports in hiding_lcp::graph::ports::all_port_assignments(&g, 100) {
        let inst = Instance::new(g.clone(), ports, IdAssignment::canonical(4)).unwrap();
        for labeling in hiding_lcp::certs::degree_one::accepting_labelings(&inst) {
            universe.push(inst.clone().with_labeling(labeling));
        }
    }
    let trap = Instance::canonical(generators::pendant_path(3, 1));
    let adversarial: Vec<Labeling> = hiding_lcp::core::prover::all_labelings(
        trap.graph().node_count(),
        &hiding_lcp::certs::degree_one::adversary_alphabet(),
    )
    .collect();
    let outcome = refute(
        &DegreeOneDecoder,
        universe,
        IdMode::Anonymous,
        |g| bipartite::is_bipartite(g) && g.min_degree() == Some(1),
        &[(trap, adversarial)],
    );
    match outcome {
        RefutationOutcome::HidingOnly { odd_walk } => assert_eq!(odd_walk.len() % 2, 1),
        other => panic!("Lemma 4.1's LCP is strong; got {other:?}"),
    }
}

#[test]
fn edge3_is_refuted_adversarially() {
    let universe: Vec<LabeledInstance> = [generators::path(2), generators::hypercube(3)]
        .into_iter()
        .filter_map(|g| {
            let inst = Instance::canonical(g);
            let labeling = Edge3Prover.certify(&inst)?;
            Some(inst.with_labeling(labeling))
        })
        .collect();
    let k4 = Instance::canonical(generators::complete(4));
    let k4_labeling = Edge3Prover.certify(&k4).unwrap();
    let outcome = refute(
        &Edge3Decoder,
        universe,
        IdMode::Anonymous,
        bipartite::is_bipartite,
        &[(k4, vec![k4_labeling])],
    );
    let RefutationOutcome::Refuted(r) = outcome else {
        panic!("edge3 must be refuted");
    };
    assert!(!r.via_realization);
    assert!(!bipartite::is_bipartite(r.violation_instance.graph()));
}

#[test]
fn pentagon_cycle_realizes_g_bad() {
    let yes: Vec<LabeledInstance> = pentagon_universe()
        .into_iter()
        .filter(|li| bipartite::is_bipartite(li.graph()))
        .collect();
    let nbhd = NbhdGraph::build(&YesMan, IdMode::Full, yes.clone(), |g| {
        bipartite::is_bipartite(g)
    });
    let pent = |i: i64| -> u64 { ((i - 1).rem_euclid(5) + 1) as u64 };
    let walk: Vec<usize> = (1..=5i64)
        .map(|i| {
            (0..nbhd.view_count())
                .find(|&v| {
                    let view = nbhd.view(v);
                    view.center_id() == Some(pent(i))
                        && view.node_with_id(pent(i - 1)).is_some()
                        && view.node_with_id(pent(i + 1)).is_some()
                })
                .expect("pentagon views present")
        })
        .collect();
    // The walk is a genuine odd cycle of V(D, ·).
    for k in 0..5 {
        assert!(nbhd.has_edge(walk[k], walk[(k + 1) % 5]));
    }
    let realization = try_realize_walk(&nbhd, &walk, &yes).expect("realizable");
    let g_bad = realization.labeled.graph();
    assert_eq!(g_bad.node_count(), 5);
    assert!(
        !bipartite::is_bipartite(g_bad),
        "G_bad contains the pentagon"
    );
    let verdicts = run(&YesMan, &realization.labeled);
    for i in 1..=5u64 {
        assert!(verdicts[realization.node_of_id[&i]].is_accept());
    }
    // And refute() finds it through the realization route on its own.
    let outcome = refute(
        &YesMan,
        pentagon_universe(),
        IdMode::Full,
        bipartite::is_bipartite,
        &[],
    );
    match outcome {
        RefutationOutcome::Refuted(r) => {
            assert!(r.via_realization, "found by realizing the odd cycle");
            assert!(!bipartite::is_bipartite(r.violation_instance.graph()));
        }
        other => panic!("accept-everything must be refuted, got {other:?}"),
    }
}

#[test]
fn exhaustive_cycle_search_matches_theory() {
    // On C4 alone (exempt class!), the pair-encoding decoder survives all
    // three properties; adding C6 kills every port-oblivious decoder.
    let single = search_cycle_decoders(&[4], &[3, 4, 5]);
    assert!(single.all_three.contains(&18));
    let double = search_cycle_decoders(&[4, 6], &[3, 4, 5, 6]);
    assert!(double.all_three.is_empty());
    // The revealing code is complete+strong but never hiding.
    let reveal = (1 << 2) | (1 << 3);
    assert!(double.complete.contains(&reveal));
    assert!(double.strong.contains(&reveal));
    assert!(!double.hiding.contains(&reveal));
}

#[test]
fn order_invariantization_composes_with_real_decoders() {
    // Wrap the (anonymous, hence trivially order-invariant) degree-one
    // decoder pipeline: route identifiers through a good set found by the
    // finite Ramsey search on an identifier-parity coloring.
    let universe: Vec<u64> = (1..=20).collect();
    let (good, _) =
        monochromatic_subset(&universe, 2, 8, |pair| (pair[0] + pair[1]) % 2).expect("R works");
    assert_eq!(good.len(), 8);

    /// A decoder that cheats by reading identifier parity.
    struct ParityCheat;
    impl Decoder for ParityCheat {
        fn name(&self) -> String {
            "parity-cheat".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Full
        }
        fn decide(&self, view: &View) -> Verdict {
            Verdict::from(view.center_id().expect("full") % 2 == 1)
        }
    }

    let wrapped = OrderInvariantized::new(ParityCheat, good);
    let inst = Instance::canonical(generators::path(5));
    let labeling = Labeling::empty(5);
    let mut rng = StdRng::seed_from_u64(9);
    hiding_lcp::core::properties::invariance::check_order_invariant(
        &wrapped, &inst, &labeling, 40, &mut rng,
    )
    .expect("the wrapper is order-invariant by construction");
}

#[test]
fn honest_provers_feed_the_refuter_nothing() {
    // Sanity: refute() with an empty universe reports no hiding witness.
    let outcome = refute(
        &DegreeOneDecoder,
        Vec::new(),
        IdMode::Anonymous,
        |_g| true,
        &[],
    );
    assert!(matches!(outcome, RefutationOutcome::NoHidingWitness));
    // And an honest labeled instance alone yields a bipartite V(D, ·).
    let inst = Instance::canonical(generators::path(4));
    let labeling = DegreeOneProver.certify(&inst).unwrap();
    let outcome = refute(
        &DegreeOneDecoder,
        vec![inst.with_labeling(labeling)],
        IdMode::Anonymous,
        bipartite::is_bipartite,
        &[],
    );
    assert!(matches!(outcome, RefutationOutcome::NoHidingWitness));
}
