//! # kge-data — knowledge-graph datasets
//!
//! Substrate crate providing everything the paper's experiments need on the
//! data side:
//!
//! - [`Triple`] / [`Dataset`]: compact triple stores with train/valid/test
//!   splits and structural statistics.
//! - [`synth`]: a **Freebase-shaped synthetic generator**. The paper
//!   evaluates on FB15K and FB250K, which are skims of the (discontinued)
//!   Freebase dump; at full scale they are not redistributable inside this
//!   offline environment, so the generator produces graphs with the same
//!   structural statistics that the paper's strategies are sensitive to:
//!   power-law entity degrees, Zipf-distributed relation frequencies, a
//!   1-1 / 1-N / N-1 / N-N relation-type mix, and learnable regularity
//!   (relations act as noisy mappings between entity groups) so embedding
//!   quality metrics (MRR, TCA) behave qualitatively like on Freebase.
//! - [`io`]: OpenKE-style TSV loading, so the *real* FB15K/FB250K can be
//!   dropped in when available.
//! - [`batch`]: seeded epoch shuffling, batching, and uniform sharding.
//! - [`FilterIndex`]: the all-known-triples index used for filtered
//!   ranking metrics and for avoiding false-negative samples.

pub mod batch;
pub mod dataset;
pub mod filter;
mod hash;
pub mod io;
pub mod powerlaw;
pub mod synth;
pub mod triple;
pub mod vocab;

pub use dataset::{classify_relations, Dataset, DatasetStats, RelationCategory, Split};
pub use filter::{FilterIndex, GroupedFilter};
pub use powerlaw::{PermutedZipf, ZipfSampler};
pub use synth::{SynthConfig, SynthPreset};
pub use triple::Triple;
pub use vocab::Vocab;
