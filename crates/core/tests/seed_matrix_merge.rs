//! Property tests for [`SeedMatrix::merge`] — the algebra the parallel
//! sweep executor stands on.
//!
//! A parallel pool shards a sweep arbitrarily: any worker count, and any
//! interleaving of which worker claims which job. Its result equals the
//! serial sweep *iff* merge is (1) associative, (2) commutative, and (3)
//! invariant under how the run set is partitioned into shards. Each property is
//! checked against full `Debug` equality, which covers every field of every
//! outcome transitively.
//!
//! The vendored `proptest` derives case inputs deterministically from the
//! test name, so these properties are exactly reproducible in CI.

use broadcast::{Algo, Scenario, SeedMatrix, TopologySpec, Workload};
use proptest::prelude::*;

/// A small but real sweep: every run is a genuine `Outcome` so debug
/// equality exercises real payload fields, not placeholders.
fn sweep(n: usize, seeds: u64) -> SeedMatrix {
    Scenario::new(TopologySpec::Path { n }, Workload::Baseline(Algo::Decay { payload: 3 }))
        .seeds(0..seeds)
}

/// Deals `matrix`'s runs round-robin onto `shards` shard matrices, then
/// rotates each shard's run order by `rot` — merge must not rely on a
/// shard's runs arriving in serial order.
fn deal(matrix: &SeedMatrix, shards: usize, rot: usize) -> Vec<SeedMatrix> {
    let mut out: Vec<SeedMatrix> =
        (0..shards).map(|_| SeedMatrix::empty(matrix.label.clone())).collect();
    for (i, run) in matrix.runs.iter().enumerate() {
        out[i % shards].runs.push(run.clone());
    }
    for shard in &mut out {
        if !shard.runs.is_empty() {
            let r = rot % shard.runs.len();
            shard.runs.rotate_left(r);
        }
    }
    out
}

fn debug_eq(a: &SeedMatrix, b: &SeedMatrix) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any round-robin partition into any shard count, with shard-local
    /// execution order arbitrarily rotated, merges back to the serial
    /// matrix.
    #[test]
    fn merge_is_partition_invariant(
        n in 4usize..10,
        seeds in 1u64..10,
        shards in 1usize..6,
        rot in 0usize..7,
    ) {
        let serial = sweep(n, seeds);
        let mut merged = SeedMatrix::empty(serial.label.clone());
        for shard in deal(&serial, shards, rot) {
            merged.merge(shard);
        }
        prop_assert!(debug_eq(&merged, &serial));
    }

    /// `a ⊕ b == b ⊕ a` for every two-way split point.
    #[test]
    fn merge_is_commutative(n in 4usize..10, seeds in 2u64..10, split_num in 0usize..100) {
        let serial = sweep(n, seeds);
        let split = split_num % (serial.len() + 1);
        let (mut a, mut b) =
            (SeedMatrix::empty(serial.label.clone()), SeedMatrix::empty(serial.label.clone()));
        a.runs = serial.runs[..split].to_vec();
        b.runs = serial.runs[split..].to_vec();
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        prop_assert!(debug_eq(&ab, &ba));
        prop_assert!(debug_eq(&ab, &serial));
    }

    /// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` over three-way round-robin shards.
    #[test]
    fn merge_is_associative(n in 4usize..10, seeds in 3u64..10, rot in 0usize..7) {
        let serial = sweep(n, seeds);
        let shards = deal(&serial, 3, rot);
        let [a, b, c] = <[SeedMatrix; 3]>::try_from(shards).expect("three shards");

        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());

        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);

        prop_assert!(debug_eq(&left, &right));
        prop_assert!(debug_eq(&left, &serial));
    }
}

/// Merging the empty matrix (the identity) on either side is a no-op.
#[test]
fn empty_is_the_identity() {
    let serial = sweep(6, 4);
    let mut left = SeedMatrix::empty(serial.label.clone());
    left.merge(serial.clone());
    assert!(debug_eq(&left, &serial));

    let mut right = serial.clone();
    right.merge(SeedMatrix::empty(serial.label.clone()));
    assert!(debug_eq(&right, &serial));
}

/// Overlapping shards (the same serial position twice) are a partitioning
/// bug and must panic, not silently double-count.
#[test]
#[should_panic(expected = "overlapping shards")]
fn overlapping_shards_panic() {
    let serial = sweep(6, 4);
    let mut a = serial.clone();
    a.merge(serial);
}

/// Merging matrices of different scenarios is a bug and must panic.
#[test]
#[should_panic(expected = "different scenarios")]
fn mismatched_labels_panic() {
    let mut a = sweep(6, 2);
    a.merge(sweep(7, 2));
}
