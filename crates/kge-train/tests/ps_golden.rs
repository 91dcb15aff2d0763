//! The parameter-server trainer's run pinned to the bit: every cell's
//! model, per-epoch trace, epoch count, convergence, simulated clock and
//! wire totals, in the style of `sharded_golden`.

use kge_data::synth::{generate, SynthConfig};
use kge_train::{train_ps, NegSampling, StrategyConfig, TrainConfig, TrainOutcome};
use simgrid::{Cluster, ClusterSpec};

fn dataset() -> kge_data::Dataset {
    generate(&SynthConfig {
        name: "ps-golden".into(),
        n_entities: 120,
        n_relations: 8,
        n_triples: 1500,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.08,
        test_frac: 0.08,
        seed: 29,
    })
}

fn config(max_epochs: usize, neg: NegSampling) -> TrainConfig {
    let mut strategy = StrategyConfig::baseline_allgather(1);
    strategy.neg = neg;
    let mut c = TrainConfig::new(4, 64, strategy);
    c.plateau_tolerance = 2;
    c.max_lr_drops = 1;
    c.max_epochs = max_epochs;
    c.valid_samples = 64;
    c.base_lr = 5e-3;
    c
}

/// FNV-1a over a table's f32 bit patterns.
fn fnv(values: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line of `ps_golden.txt`, floats as bit patterns so equality is
/// exact.
fn golden_line(cell: &str, out: &TrainOutcome) -> String {
    let r = &out.report;
    let bits = |xs: &[f64]| {
        let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
        hex.join(",")
    };
    let trace: Vec<String> = r
        .trace
        .iter()
        .map(|t| {
            format!(
                "{}:{:?}:{:08x}:{}:{}",
                bits(&[t.sim_seconds, t.train_loss, t.valid_acc]),
                t.comm,
                t.lr_scale.to_bits(),
                t.bytes_sent,
                bits(&[t.mean_nonzero_rows, t.mean_rows_sent, t.rs_sparsity]),
            )
        })
        .collect();
    format!(
        "{cell} | sim={} ent={:016x} rel={:016x} epochs={} converged={} allgather_epochs={} \
         wire_total={}/{} trace={}",
        bits(&[r.sim_total_seconds]),
        fnv(out.entities.as_slice()),
        fnv(out.relations.as_slice()),
        r.epochs,
        r.converged,
        r.allgather_epochs,
        r.wire_bytes_sent,
        r.wire_bytes_recv,
        trace.join(";"),
    )
}

#[test]
fn ps_golden() {
    // The parameter server's contract, pinned: three cells (servers x
    // workers, epochs, negative sampling) must reproduce the recorded run
    // to the bit. The model hashes go through the host's `exp`/`ln`, so
    // the table is tied to this toolchain and libm; to regenerate it after
    // an *intended* change of trajectory or pricing:
    //   1. cargo test --release -p kge-train --test ps_golden -- --nocapture \
    //        | grep '^servers=' > /tmp/golden; mv /tmp/golden crates/kge-train/tests/ps_golden.txt
    //   2. git diff crates/kge-train/tests/ps_golden.txt   # every changed cell is a claim
    //   3. commit the file with the change that explains the diff
    let ds = dataset();
    let cells = [
        (1usize, 2usize, config(1, NegSampling::uniform(1))),
        (2, 2, config(8, NegSampling::uniform(1))),
        (1, 3, config(5, NegSampling::select(1, 4))),
    ];
    let mut lines = Vec::new();
    for (servers, workers, c) in &cells {
        let cluster = Cluster::new(servers + workers, ClusterSpec::cray_xc40());
        let out = train_ps(&ds, &cluster, c, *servers);
        let cell = format!("servers={servers} workers={workers} max_epochs={} neg={:?}", c.max_epochs, c.strategy.neg);
        lines.push(golden_line(&cell, &out));
    }
    for line in &lines {
        println!("{line}");
    }
    let golden = include_str!("ps_golden.txt");
    for (want, got) in golden.lines().zip(&lines) {
        assert_eq!(want, got, "golden cell moved");
    }
    assert_eq!(golden.lines().count(), lines.len(), "golden cell count");
}
