//! Property tests on trainer components: the LR schedule's invariants,
//! the DRS state machine, and negative-sampling guarantees.

use kge_train::{CommChoice, DynamicCommSelector, LrDecision, PlateauSchedule};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lr_scale_never_increases_and_stays_positive(
        metrics in proptest::collection::vec(0.0f64..1.0, 1..200),
        p in 1usize..20,
        tolerance in 1usize..10,
        max_drops in 0usize..4,
    ) {
        let mut s = PlateauSchedule::new(p, 4.0, 0.1, tolerance, max_drops);
        let mut prev = s.lr_scale();
        prop_assert!((1.0..=4.0).contains(&prev));
        for &m in &metrics {
            let _ = s.observe(m);
            let cur = s.lr_scale();
            prop_assert!(cur > 0.0);
            prop_assert!(cur <= prev + 1e-9, "lr scale must be non-increasing");
            prev = cur;
        }
    }

    #[test]
    fn schedule_converges_within_bounded_stale_epochs(
        tolerance in 1usize..8,
        max_drops in 0usize..4,
    ) {
        // A never-improving metric must converge after at most
        // (max_drops + 1) × tolerance stale epochs.
        let mut s = PlateauSchedule::new(1, 4.0, 0.1, tolerance, max_drops);
        s.observe(1.0); // set the best
        let bound = (max_drops + 1) * tolerance + 1;
        let mut converged_at = None;
        for i in 0..bound {
            if matches!(s.observe(0.0), LrDecision::Converged) {
                converged_at = Some(i);
                break;
            }
        }
        prop_assert!(converged_at.is_some(), "did not converge within {bound} epochs");
        prop_assert_eq!(s.drops(), max_drops);
    }

    #[test]
    fn improving_metric_never_converges(
        steps in 1usize..100,
        tolerance in 1usize..5,
    ) {
        let mut s = PlateauSchedule::new(2, 4.0, 0.5, tolerance, 2);
        for i in 0..steps {
            let d = s.observe(i as f64);
            prop_assert_eq!(d, LrDecision::Continue);
        }
        prop_assert!(!s.converged());
    }

    #[test]
    fn drs_switch_is_permanent(times in proptest::collection::vec(0.0f64..10.0, 1..100)) {
        let mut sel = DynamicCommSelector::new(3);
        let mut committed: Option<CommChoice> = None;
        for &t in &times {
            if !sel.still_dynamic() && committed.is_none() {
                // First epoch after the switch: remember the winning arm.
                committed = Some(sel.choice());
                prop_assert!(committed != Some(CommChoice::AllReduce));
            }
            if let Some(arm) = committed {
                // Once switched, the choice is pinned forever.
                prop_assert_eq!(sel.choice(), arm);
            }
            sel.observe_epoch(t);
        }
    }

    #[test]
    fn drs_probe_cadence(check_every in 1usize..20) {
        // With every probe arm always slower, the selector must stay on
        // all-reduce except during the two-epoch probe rounds that recur
        // every `check_every` all-reduce epochs.
        let mut sel = DynamicCommSelector::new(check_every);
        let mut probes = 0usize;
        for _ in 0..100 {
            let t = match sel.choice() {
                CommChoice::AllReduce => 1.0,
                // Alternative arm being timed: always slower, never switch.
                _ => {
                    probes += 1;
                    2.0
                }
            };
            sel.observe_epoch(t);
        }
        prop_assert!(sel.still_dynamic());
        // Each cycle is `check_every` all-reduce epochs + 2 probe epochs.
        prop_assert!(probes >= 2 * (100 / (check_every + 2)) / 2, "probes {probes}");
    }
}

/// What S5's staging leaves for the block kernel to skip its forward with:
/// one score per staged example, in example order, each `score`'s bits for
/// that triple on the tables the sampler read — positives included, and
/// after the arg-max rounds have moved the kept candidates. Without
/// selection nothing is scored and nothing is left.
#[test]
fn staged_selection_scores_are_the_staged_examples_scores() {
    use kge_core::{ComplEx, EmbeddingTable, KgeModel};
    use kge_data::synth::{generate, SynthConfig};
    use kge_data::FilterIndex;
    use kge_train::neg::{NegSampler, NegScratch};
    use kge_train::NegSampling;
    use rand::SeedableRng;

    let ds = generate(&SynthConfig {
        name: "staged-scores".into(),
        n_entities: 48,
        n_relations: 5,
        n_triples: 500,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.05,
        test_frac: 0.05,
        seed: 21,
    });
    let filter = FilterIndex::build(&ds);
    let model = ComplEx::new(6);
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let ent = EmbeddingTable::xavier(ds.n_entities, 12, &mut rng);
    let rel = EmbeddingTable::xavier(ds.n_relations, 12, &mut rng);
    let mut scratch = NegScratch::default();
    for policy in [NegSampling::select(1, 5), NegSampling::select(3, 16), NegSampling::uniform(4)] {
        let sampler = NegSampler {
            policy,
            model: &model,
            ent: &ent,
            rel: &rel,
            filter: &filter,
            bias: None,
            n_entities: ds.n_entities,
        };
        let (mut labels, mut triples) = (Vec::new(), Vec::new());
        sampler.stage(ds.train[..37].iter().copied(), &mut rng, &mut scratch, &mut labels, &mut triples);
        if !policy.uses_selection() {
            assert!(scratch.scores().is_empty(), "{policy:?}");
            continue;
        }
        assert_eq!(scratch.scores().len(), triples.len(), "{policy:?}");
        for (&(h, r, t), s) in triples.iter().zip(scratch.scores()) {
            let want = model.score(ent.row(h as usize), rel.row(r as usize), ent.row(t as usize));
            assert_eq!(s.to_bits(), want.to_bits(), "{policy:?} ({h}, {r}, {t})");
        }
    }
}
