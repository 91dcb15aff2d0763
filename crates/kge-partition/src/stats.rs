//! Balance and disjointness measurements for partitions.

use kge_data::Triple;
use std::collections::HashMap;

/// Measured properties of a `p`-way triple partition.
#[derive(Debug, Clone)]
pub struct PartitionStats {
    /// Triples per shard.
    pub shard_sizes: Vec<usize>,
    /// Distinct relations per shard.
    pub relations_per_shard: Vec<usize>,
    /// Total triples across shards.
    pub total_triples: usize,
    /// True iff no relation id appears in more than one shard.
    pub relation_disjoint: bool,
}

impl PartitionStats {
    /// Measure the given shards.
    pub fn measure(shards: &[Vec<Triple>]) -> Self {
        let mut owner: HashMap<u32, usize> = HashMap::new();
        let mut relation_disjoint = true;
        let mut relations_per_shard = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            let mut rels: Vec<u32> = shard.iter().map(|t| t.rel).collect();
            rels.sort_unstable();
            rels.dedup();
            relations_per_shard.push(rels.len());
            for r in rels {
                match owner.get(&r) {
                    Some(&o) if o != i => relation_disjoint = false,
                    _ => {
                        owner.insert(r, i);
                    }
                }
            }
        }
        PartitionStats {
            shard_sizes: shards.iter().map(Vec::len).collect(),
            relations_per_shard,
            total_triples: shards.iter().map(Vec::len).sum(),
            relation_disjoint,
        }
    }

    /// Max shard size over mean shard size (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let p = self.shard_sizes.len();
        if p == 0 || self.total_triples == 0 {
            return 1.0;
        }
        let mean = self.total_triples as f64 / p as f64;
        *self.shard_sizes.iter().max().unwrap() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_sizes_and_relations() {
        let shards = vec![
            vec![Triple::new(0, 0, 1), Triple::new(1, 0, 2)],
            vec![Triple::new(2, 1, 3)],
        ];
        let s = PartitionStats::measure(&shards);
        assert_eq!(s.shard_sizes, vec![2, 1]);
        assert_eq!(s.relations_per_shard, vec![1, 1]);
        assert_eq!(s.total_triples, 3);
        assert!(s.relation_disjoint);
        assert!((s.imbalance() - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn detects_relation_overlap() {
        let shards = vec![vec![Triple::new(0, 7, 1)], vec![Triple::new(2, 7, 3)]];
        assert!(!PartitionStats::measure(&shards).relation_disjoint);
    }

    #[test]
    fn empty_partition_is_balanced_by_convention() {
        let s = PartitionStats::measure(&[]);
        assert_eq!(s.imbalance(), 1.0);
        let s = PartitionStats::measure(&[vec![], vec![]]);
        assert_eq!(s.imbalance(), 1.0);
    }
}
