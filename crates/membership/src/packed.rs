//! The reasoner's cache entry: `X⁺` and the blocks `X^M` of one
//! Algorithm 5.1 run packed into width-exact words.
//!
//! Proposition 4.10 decides every FD and MVD from `X⁺` and `X^M` alone,
//! and `DepB(X) = SubB(X⁺) ∪ X^M` is a function of the two, so an entry
//! stores nothing else: no `DepB` list, and no [`AtomSet`] (whose inline
//! storage is sized for the widest inline class) — each set takes
//! exactly `⌈|N|/64⌉` words. Queries read an entry in place;
//! [`PackedBasis::to_basis`] derives the full [`DependencyBasis`] for the
//! callers that ask for one.

use nalist_algebra::{AlgebraError, AtomSet};
use nalist_deps::CompiledDep;

use crate::closure::{derivable, DependencyBasis};

/// One cached dependency basis as a single run of `u64` words: `X⁺`,
/// then the blocks `X^M` in [`DependencyBasis::blocks`] order, each
/// `⌈|N|/64⌉` words wide (see [`AtomSet::words`]), then the stable ids of
/// the dependencies that fired while it was computed, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBasis {
    run: Box<[u64]>,
    atoms: u32,
    blocks: u32,
}

impl PackedBasis {
    /// Packs `X⁺`, the sorted blocks and the fired ids.
    pub(crate) fn pack(
        closure: &AtomSet,
        blocks: &[AtomSet],
        fired: impl ExactSizeIterator<Item = u64>,
    ) -> Self {
        let width = closure.words().len();
        let mut run = Vec::with_capacity(width * (1 + blocks.len()) + fired.len());
        run.extend_from_slice(closure.words());
        for w in blocks {
            run.extend_from_slice(w.words());
        }
        run.extend(fired);
        PackedBasis {
            run: run.into_boxed_slice(),
            atoms: u32::try_from(closure.capacity()).expect("atom count fits in u32"),
            blocks: u32::try_from(blocks.len()).expect("block count fits in u32"),
        }
    }

    /// Rebuilds an entry from its run over `atoms` atoms holding
    /// `blocks` blocks (the inverse of reading [`PackedBasis::closure`],
    /// [`PackedBasis::blocks`] and [`PackedBasis::fired`] back to back).
    /// Every set goes through the checked [`AtomSet::from_words`], so a
    /// bit at or above `atoms` is [`AlgebraError::AtomOutOfRange`]; a run
    /// too short for its sets is [`AlgebraError::CapacityMismatch`].
    pub fn from_run(atoms: u32, run: Vec<u64>, blocks: u32) -> Result<Self, AlgebraError> {
        let sets = blocks as usize + 1;
        if run.len() < (atoms as usize).div_ceil(64).saturating_mul(sets) {
            return Err(AlgebraError::CapacityMismatch {
                have: 64 * (run.len() / sets),
                want: atoms as usize,
            });
        }
        let packed = PackedBasis {
            run: run.into_boxed_slice(),
            atoms,
            blocks,
        };
        for set in std::iter::once(packed.closure()).chain(packed.blocks()) {
            AtomSet::from_words(atoms as usize, set)?;
        }
        Ok(packed)
    }

    fn width(&self) -> usize {
        (self.atoms as usize).div_ceil(64)
    }

    /// The universe size `|N|` the sets are drawn from.
    pub fn atoms(&self) -> usize {
        self.atoms as usize
    }

    /// `X⁺`, as width-exact words.
    pub fn closure(&self) -> &[u64] {
        &self.run[..self.width()]
    }

    /// The blocks `X^M` in sorted order, each as width-exact words.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = &[u64]> + Clone + '_ {
        let width = self.width();
        (1..1 + self.blocks as usize).map(move |i| &self.run[i * width..(i + 1) * width])
    }

    /// Stable ids of the dependencies that fired, ascending.
    pub fn fired(&self) -> &[u64] {
        &self.run[self.width() * (1 + self.blocks as usize)..]
    }

    /// Bytes the entry's run holds: its words plus its fired ids.
    pub fn bytes(&self) -> u64 {
        8 * self.run.len() as u64
    }

    /// Does `Σ` imply `c`? Proposition 4.10, read in place.
    pub fn implies(&self, c: &CompiledDep) -> bool {
        derivable(c.kind, self.closure(), self.blocks(), c.rhs.words())
    }

    /// The full [`DependencyBasis`], with `DepB(X)` derived from `X⁺` and
    /// the blocks.
    pub fn to_basis(&self, alg: &nalist_algebra::Algebra) -> DependencyBasis {
        let set = |w: &[u64]| {
            AtomSet::from_words(self.atoms(), w).expect("a packed basis holds checked sets")
        };
        DependencyBasis::derive(alg, set(self.closure()), self.blocks().map(set).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::closure_and_basis;
    use nalist_algebra::Algebra;
    use nalist_deps::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    #[test]
    fn pack_round_trips_the_basis_and_the_ids() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = ["A'(B) ->> A'(C[D(E)])", "A'(C[λ]) -> A'(B)"]
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let x = alg
            .from_attr(&parse_subattr_of(&n, "A'(B)").unwrap())
            .unwrap();
        let basis = closure_and_basis(&alg, &sigma, &x);
        let packed = PackedBasis::pack(&basis.closure, &basis.blocks, [3, 9].into_iter());
        assert_eq!(packed.to_basis(&alg), basis);
        assert_eq!(packed.fired(), &[3, 9]);
        assert_eq!(packed.blocks().len(), basis.blocks.len());
        assert_eq!(packed.bytes(), 8 * (1 + basis.blocks.len() as u64 + 2));
        for c in &sigma {
            assert!(packed.implies(c));
        }
        let again = PackedBasis::from_run(
            packed.atoms() as u32,
            std::iter::once(packed.closure())
                .chain(packed.blocks())
                .chain([packed.fired()])
                .flatten()
                .copied()
                .collect(),
            basis.blocks.len() as u32,
        );
        assert_eq!(again, Ok(packed));
    }

    #[test]
    fn from_run_rejects_tail_bits_and_short_runs() {
        // 5 atoms: bit 5 is outside the universe, in the closure or a block
        assert!(PackedBasis::from_run(5, vec![0b1, 0b10], 1).is_ok());
        assert_eq!(
            PackedBasis::from_run(5, vec![1 << 5, 0b10], 1),
            Err(AlgebraError::AtomOutOfRange {
                atom: 5,
                capacity: 5
            })
        );
        assert!(matches!(
            PackedBasis::from_run(5, vec![0b1, 1 << 63, 7], 1),
            Err(AlgebraError::AtomOutOfRange { atom: 63, .. })
        ));
        assert!(matches!(
            PackedBasis::from_run(70, vec![0, 0, 0], 1),
            Err(AlgebraError::CapacityMismatch { .. })
        ));
    }
}
