//! The generator's bytes, pinned: every graph the benchmark, `repro` and
//! the root suite build, plus edge cells, must reproduce the split lengths
//! and split hashes recorded in `synth_golden.txt`.

use kge_data::synth::{generate, SynthConfig, SynthPreset};
use kge_data::Triple;

/// FNV-1a over a split's `(head, rel, tail)` ids, little-endian, in order.
fn fnv(triples: &[Triple]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in triples {
        for b in [t.head, t.rel, t.tail].iter().flat_map(|id| id.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The `serve-wide` graph of the benchmark's `eval_serve` workload.
fn serve_wide() -> SynthConfig {
    SynthConfig {
        name: "serve-wide".to_string(),
        n_entities: 1_500,
        n_relations: 64,
        n_triples: 60_000,
        relation_zipf: 0.75,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.04,
        test_frac: 0.05,
        seed: 2022,
    }
}

/// The in-file tests' small graph, the base of the edge cells.
fn small() -> SynthConfig {
    SynthConfig {
        name: "small".to_string(),
        n_entities: 500,
        n_relations: 24,
        n_triples: 8000,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.05,
        test_frac: 0.05,
        seed: 42,
    }
}

fn cells() -> Vec<(String, SynthConfig)> {
    use SynthPreset::{Fb15kLike, Fb250kLike};
    let mut cells = vec![
        // The benchmark's three graphs.
        ("bench fb15k@0.15 s2022".to_string(), Fb15kLike.config(0.15, 2022)),
        ("bench fb250k@0.005 s2022".to_string(), Fb250kLike.config(0.005, 2022)),
        ("bench serve-wide s2022".to_string(), serve_wide()),
        // `repro` at --quick and at its default scale.
        ("repro quick fb15k@0.02 s7".to_string(), Fb15kLike.config(0.02, 7)),
        ("repro quick fb250k@0.004 s8".to_string(), Fb250kLike.config(0.004, 8)),
        ("repro fb15k@0.1 s7".to_string(), Fb15kLike.config(0.1, 7)),
        ("repro fb250k@0.02 s8".to_string(), Fb250kLike.config(0.02, 8)),
    ];
    // The root suite's graphs.
    for seed in [1, 2, 4, 5, 6, 7, 8, 17, 21] {
        cells.push((format!("root fb15k@0.015 s{seed}"), Fb15kLike.config(0.015, seed)));
    }
    cells.push(("root fb15k@0.03 s12".to_string(), Fb15kLike.config(0.03, 12)));
    cells.push(("root fb250k@0.005 s3".to_string(), Fb250kLike.config(0.005, 3)));
    // Edge cells around the small graph.
    let edge = |name: &str, f: &dyn Fn(&mut SynthConfig)| {
        let mut c = small();
        f(&mut c);
        (format!("edge {name}"), c)
    };
    cells.push(edge("small", &|_| {}));
    cells.push(edge("entity_zipf=0", &|c| c.entity_zipf = 0.0));
    cells.push(edge("entity_zipf=1.5", &|c| c.entity_zipf = 1.5));
    cells.push(edge("noise_frac=0", &|c| c.noise_frac = 0.0));
    cells.push(edge("noise_frac=0.3", &|c| c.noise_frac = 0.3));
    // `generate` rejects fewer than 32 entities, the smallest interval
    // `RelPattern::build` clamps to: the table records the panic, and 32 as
    // the smallest graph that generates.
    for n in [16, 32] {
        cells.push(edge(&format!("n_entities={n}"), &|c| {
            c.n_entities = n;
            c.n_relations = 4;
            c.n_triples = 200;
        }));
    }
    cells.push(edge("exhausted", &|c| {
        // One relation asking for more distinct pairs than 64 entities and
        // a 16-candidate tail choice yield: the loop stops at max_attempts.
        c.n_entities = 64;
        c.n_relations = 1;
        c.n_triples = 3000;
        c.noise_frac = 0.0;
    }));
    cells
}

#[test]
fn synth_golden() {
    // To regenerate after an *intended* change of the generated graphs:
    //   1. cargo test --release -p kge-data --test synth_golden -- --nocapture \
    //        | grep ' | ' > /tmp/golden; mv /tmp/golden crates/kge-data/tests/synth_golden.txt
    //   2. git diff crates/kge-data/tests/synth_golden.txt   # every changed cell is a claim
    //   3. commit the file with the change that explains the diff
    let mut lines = Vec::new();
    for (cell, cfg) in cells() {
        let Ok(ds) = std::panic::catch_unwind(|| generate(&cfg)) else {
            lines.push(format!("{cell} | panics"));
            continue;
        };
        let total = ds.train.len() + ds.valid.len() + ds.test.len();
        if cell == "edge exhausted" {
            assert!(total < cfg.n_triples, "the budget must exhaust max_attempts: {total}");
        }
        lines.push(format!(
            "{cell} | train={} valid={} test={} fnv={:016x},{:016x},{:016x}",
            ds.train.len(),
            ds.valid.len(),
            ds.test.len(),
            fnv(&ds.train),
            fnv(&ds.valid),
            fnv(&ds.test),
        ));
    }
    for line in &lines {
        println!("{line}");
    }
    let golden = include_str!("synth_golden.txt");
    for (want, got) in golden.lines().zip(&lines) {
        assert_eq!(want, got, "golden cell moved");
    }
    assert_eq!(golden.lines().count(), lines.len(), "golden cell count");
}
