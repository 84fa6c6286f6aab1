//! Linear algebra over `F_2`, the two-element field.
//!
//! Vectors are bit-packed into `u64` limbs; addition is XOR and the inner
//! product is the parity of the bitwise AND — both are word-parallel.

mod vector;

pub use vector::BitVec;
