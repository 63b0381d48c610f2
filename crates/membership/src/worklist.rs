//! The engine of Algorithm 5.1 — the one implementation of its step —
//! and the two drivers that schedule that step:
//!
//! * [`run`], the change-driven worklist behind
//!   [`crate::closure_and_basis`], the reasoner's cache and the
//!   certificates of [`mod@crate::certify`];
//! * [`closure_and_basis_traced`], the paper's own REPEAT-UNTIL
//!   schedule, which records every step so that `nalist trace` prints
//!   Example 5.1 and Figures 3–4 pass for pass.
//!
//! [`step_would_change`] runs the same step once on a cached fixpoint.
//!
//! Semantically the worklist is exactly Algorithm 5.1 (see
//! [`crate::closure`]); it differs from the paper's pass schedule only in
//! *which steps it skips*, and every skipped step is provably a no-op,
//! so both drivers traverse identical state trajectories and produce
//! identical output.
//!
//! ## Why skipping is sound
//!
//! Write a dependency's step as a function of `(X_new, DB)`. Three
//! monotonicity facts drive the engine:
//!
//! 1. **`Ū` only shrinks.** A block only ever changes by being replaced
//!    with subsets of itself (FD reduction `W ↦ (W ∸ Ṽ)^CC`, MVD splits,
//!    and new singletons `b(m)^↓` are all contained in the block that
//!    covered `m`), and `X_new` only grows; both shrink the set of
//!    anchoring blocks and the blocks themselves, so `Ū` is
//!    `⊇`-monotonically decreasing and `Ṽ = V ∸ Ū` only grows.
//! 2. **Refinement preserves no-ops.** Every block is `^CC`-closed — it
//!    equals the downward closure of its maximal atoms, and the maximal
//!    atoms partition `MaxB(N)`. Once all blocks are fully split along a
//!    fixed `Ṽ` (each block's maximal atoms lie entirely inside or
//!    outside `Ṽ`), any refinement of the partition keeps that property,
//!    because sub-blocks carry subsets of their parent's maximal atoms.
//!    The same holds for the FD "fully reduced" state. So a dependency
//!    whose last run changed nothing stays a no-op while `Ṽ` is
//!    unchanged.
//! 3. **A dependency's `Ū` only depends on blocks meeting its LHS.** An
//!    anchoring block possesses an LHS atom, and possession implies
//!    membership, so a block with `W ∩ SubB(U) = ∅` never anchored and —
//!    since new blocks are subsets of the block they replace — its
//!    descendants never will.
//!
//! Hence a clean dependency needs reprocessing only when the *dirty set*
//! — atoms newly added to `X_new`, plus the atoms of every block that was
//! replaced (taking the pre-replacement set, which covers all its
//! descendants) — intersects its LHS footprint. That intersection is one
//! word-parallel mask test per dependency per change, replacing the
//! seed's clone-everything-and-compare pass detection. Deps are scanned
//! in the paper's FD-then-MVD order, so the fixpoint reached is the same
//! one, not merely an equivalent one.
//!
//! Steps themselves run allocation-free on the hot path: anchoring uses
//! the precomputed masks of [`PreparedDep`], the lattice ops write into
//! a reused scratch set (`pdiff_into`/`compl_into`) or build the
//! replacement block directly, the `X_new`/dirty-set updates are the
//! fused single-pass word kernels `union_with_changed`/`union_andnot`,
//! and the partition is a plain `Vec` of inline bitsets instead of a
//! `BTreeSet` that must be cloned to detect change.
//!
//! ## The firing trail
//!
//! [`run`] also reports the steps that *fired* — changed `X_new` or the
//! partition — in firing order ([`WorklistRun::trail`]), and the distinct
//! dependencies among them ([`WorklistRun::fired`]). Both rest on the
//! same fact: deleting no-op steps from a run leaves its trajectory
//! untouched.
//!
//! * The trail alone, replayed from the initial state, retraces the run.
//!   [`mod@crate::certify`] replays it to emit one derivation per state
//!   change (Lemma 6.1's induction runs over exactly these steps).
//! * `fired` is the footprint index behind the incremental
//!   [`crate::Reasoner`]: a cached basis stays valid under `Σ ∖ {d}`
//!   whenever `d` never fired while it was computed, and stays valid
//!   under `Σ ∪ {d}` whenever `d`'s step is a no-op at the cached
//!   fixpoint ([`step_would_change`]): the cached state is then a
//!   fixpoint of the larger Σ too, and any fixpoint of the step
//!   operators is *the* dependency basis (Theorem 6.3), which has a
//!   canonical representation.

use nalist_algebra::{Algebra, AtomSet};
use nalist_deps::{CompiledDep, DepKind, PreparedDep};
use nalist_guard::Budget;
use nalist_obs::{Counter, Hist, Recorder};

use crate::closure::{check_downward_closed, ClosureError, DependencyBasis, StepTrace, Trace};
use crate::packed::PackedBasis;

/// The output of one worklist run: `X⁺` and the blocks `X^M` — all that
/// Proposition 4.10 needs, so no `DepB(X)` list is built — plus the
/// firing trail: the steps that changed the engine state, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorklistRun {
    /// `X⁺`, the attribute-set closure.
    pub closure: AtomSet,
    /// The final blocks `X^M`, sorted.
    pub blocks: Vec<AtomSet>,
    /// Indices into `sigma` of the steps that fired, in firing order.
    /// Each firing grows `X_new` or refines the partition, so there are
    /// at most `|N| + |MaxB(N)|` of them. Replaying them alone from the
    /// initial state retraces the run, since every other step was a
    /// no-op; certification does exactly that.
    pub trail: Vec<usize>,
    /// The distinct indices of `trail`, ascending.
    pub fired: Vec<usize>,
    /// Dependency steps pulled off the worklist — the unit of work
    /// Theorem 6.4's bound counts, and what one fuel unit is charged for.
    pub steps: u64,
}

/// Runs Algorithm 5.1 on the change-driven worklist engine: `X⁺`, the
/// blocks and the firing trail (see [`WorklistRun`]).
///
/// One fuel unit is charged per dependency step pulled off the worklist
/// (the unit of work Theorem 6.4's `O(|N|⁴·|Σ|)` bound counts), and the
/// deadline is sampled along the way. A successful return is always the
/// exact fixpoint — a truncated run surfaces as
/// [`ClosureError::Resource`], never as a partial answer. The
/// downward-closed precondition on `X` is checked, not assumed
/// ([`ClosureError::NotDownwardClosed`]).
///
/// With an enabled recorder the run is wrapped in a
/// `membership::worklist` span (enter payload: `|Σ|`, exit payload:
/// dependencies fired) and bumps the `deps_fired` / `worklist_steps`
/// counters and the `fired_per_closure` histogram; with a disabled one
/// not even the payloads are computed.
pub fn run(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
    rec: &dyn Recorder,
) -> Result<WorklistRun, ClosureError> {
    if !rec.enabled() {
        return fixpoint(alg, sigma, x, budget);
    }
    let token = rec.enter(nalist_obs::site::WORKLIST, sigma.len() as u64);
    let result = fixpoint(alg, sigma, x, budget);
    let fired = result.as_ref().map_or(0, |r| r.fired.len() as u64);
    if let Ok(run) = &result {
        rec.add(Counter::DepsFired, fired);
        rec.add(Counter::WorklistSteps, run.steps);
        rec.observe(Hist::FiredPerClosure, fired);
    }
    rec.exit(token, fired);
    result
}

fn fixpoint(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<WorklistRun, ClosureError> {
    let mut engine = Engine::start(alg, x, budget)?;
    let (order, prepared) = schedule(alg, sigma);
    let k = prepared.len();
    let mut dirty = vec![true; k];
    let mut trail = Vec::new();
    let mut n_dirty = k;
    let mut steps = 0u64;
    while n_dirty > 0 {
        for j in 0..k {
            if !dirty[j] {
                continue;
            }
            budget.charge(1)?;
            steps += 1;
            dirty[j] = false;
            n_dirty -= 1;
            if engine.step(&prepared[j]) {
                trail.push(order[j]);
                // wake every dependency whose LHS meets the dirty set
                for (jj, other) in prepared.iter().enumerate() {
                    if !dirty[jj] && engine.delta.intersects(&other.lhs) {
                        dirty[jj] = true;
                        n_dirty += 1;
                    }
                }
            }
        }
    }

    let mut fired = trail.clone();
    fired.sort_unstable();
    fired.dedup();
    let (closure, blocks) = engine.finish();
    Ok(WorklistRun {
        closure,
        blocks,
        trail,
        fired,
        steps,
    })
}

/// Computes `X⁺` and `DepB(X)` on the paper's own schedule and records
/// every step: each pass runs every dependency of Σ in FD-then-MVD
/// order, and the run stops after a pass in which no step changed
/// anything. The [`Trace`] therefore holds the steps [`run`] skips — the
/// no-op steps and the final idle pass — and regenerates Example 5.1 and
/// Figures 3–4 of the paper. Both schedules drive the same step from the
/// same initial state, so by Theorem 6.3 they reach the same fixpoint.
///
/// Checks the same preconditions and fail point as [`run`] and charges
/// one fuel unit per step; a truncated run surfaces as
/// [`ClosureError::Resource`], never as a partial trace.
pub fn closure_and_basis_traced(
    alg: &Algebra,
    sigma: &[CompiledDep],
    x: &AtomSet,
    budget: &Budget,
) -> Result<(DependencyBasis, Trace), ClosureError> {
    let mut engine = Engine::start(alg, x, budget)?;
    let (order, prepared) = schedule(alg, sigma);
    let mut trace = Trace {
        init_x: engine.x_new.clone(),
        init_db: engine.sorted_blocks(),
        order,
        passes: Vec::new(),
    };
    loop {
        let mut pass = Vec::with_capacity(prepared.len());
        for (dep_index, dep) in prepared.iter().enumerate() {
            budget.charge(1)?;
            let changed = engine.step(dep);
            pass.push(StepTrace {
                dep_index,
                ubar: engine.ubar.clone(),
                vtilde: engine.vtilde.clone(),
                changed,
                x_after: engine.x_new.clone(),
                db_after: engine.sorted_blocks(),
            });
        }
        let idle = pass.iter().all(|step| !step.changed);
        trace.passes.push(pass);
        if idle {
            break;
        }
    }
    let (closure, blocks) = engine.finish();
    Ok((DependencyBasis::derive(alg, closure, blocks), trace))
}

/// Σ in the paper's processing order, FDs first, then MVDs: the `k`-th
/// dependency processed is `sigma[order[k]]`, prepared as `prepared[k]`.
fn schedule(alg: &Algebra, sigma: &[CompiledDep]) -> (Vec<usize>, Vec<PreparedDep>) {
    let order: Vec<usize> = (0..sigma.len())
        .filter(|&i| sigma[i].kind == DepKind::Fd)
        .chain((0..sigma.len()).filter(|&i| sigma[i].kind == DepKind::Mvd))
        .collect();
    let prepared = order.iter().map(|&i| sigma[i].prepare(alg)).collect();
    (order, prepared)
}

/// Would processing `dep` change the fixpoint state recorded in `basis`?
///
/// Loads the packed `X⁺` and blocks into an engine and runs `dep`'s one
/// step on them. At a fixpoint of `Σ` it is `false` for every `d ∈ Σ`
/// by definition; for a *new* dependency it decides whether a cached
/// basis survives `Σ ∪ {dep}` — `false` means the cached state is a
/// fixpoint of the larger Σ as well, hence still the (canonical)
/// dependency basis.
pub fn step_would_change(alg: &Algebra, dep: &PreparedDep, basis: &PackedBasis) -> bool {
    let set = |w: &[u64]| {
        AtomSet::from_words(alg.atom_count(), w).expect("a packed basis holds checked sets")
    };
    let blocks = basis.blocks().map(set).collect();
    Engine::new(alg, set(basis.closure()), blocks).step(dep)
}

/// The state of one run of Algorithm 5.1, `X_new` and `DB_new`, and the
/// step that refines it.
struct Engine<'a> {
    alg: &'a Algebra,
    x_new: AtomSet,
    /// `DB_new`, unsorted while refining: the blocks' maximal atoms are
    /// disjoint, so no two blocks are equal and no dedup structure is
    /// needed.
    blocks: Vec<AtomSet>,
    // scratch sets, reused across steps so the hot path never allocates
    // (block replacements are built owned: they live on in `blocks`)
    ubar: AtomSet,
    vtilde: AtomSet,
    scratch: AtomSet,
    /// Atoms whose state changed in the last step: new `X_new` members
    /// plus the pre-change contents of every replaced block.
    delta: AtomSet,
}

impl<'a> Engine<'a> {
    fn new(alg: &'a Algebra, x_new: AtomSet, blocks: Vec<AtomSet>) -> Self {
        let n = alg.atom_count();
        Engine {
            alg,
            x_new,
            blocks,
            ubar: AtomSet::empty(n),
            vtilde: AtomSet::empty(n),
            scratch: AtomSet::empty(n),
            delta: AtomSet::empty(n),
        }
    }

    /// Checks Algorithm 5.1's preconditions on `X` and the
    /// `membership::closure` fail point, then sets up the initial state
    /// `X_new := X`, `DB_new := MaxB(X^CC) ∪ {X^C}`.
    fn start(alg: &'a Algebra, x: &AtomSet, budget: &Budget) -> Result<Self, ClosureError> {
        check_downward_closed(alg, x)?;
        budget.failpoint("membership::closure")?;
        let mut blocks: Vec<AtomSet> = alg
            .maximal_atoms_of(x)
            .iter()
            .map(|m| alg.atom(m).below.clone())
            .collect();
        // X^C can coincide with a MaxB(X^CC) singleton only on
        // degenerate inputs
        let xc = alg.compl(x);
        if !xc.is_empty() && !blocks.contains(&xc) {
            blocks.push(xc);
        }
        Ok(Engine::new(alg, x.clone(), blocks))
    }

    /// The blocks in sorted order, the order every output lists them in.
    fn sorted_blocks(&self) -> Vec<AtomSet> {
        let mut blocks = self.blocks.clone();
        blocks.sort_unstable();
        blocks
    }

    /// `X_new` and the sorted blocks.
    fn finish(mut self) -> (AtomSet, Vec<AtomSet>) {
        self.blocks.sort_unstable();
        (self.x_new, self.blocks)
    }

    /// Appends a new block; a debug assertion checks it is distinct from
    /// every existing one.
    fn push(&mut self, block: AtomSet) {
        debug_assert!(
            !self.blocks.contains(&block),
            "duplicate block pushed: {block:?}"
        );
        self.blocks.push(block);
    }

    /// Runs one dependency step; returns whether it changed anything
    /// (with the change's atom footprint left in `self.delta`).
    fn step(&mut self, dep: &PreparedDep) -> bool {
        // Ū := ⊔{W ∈ DB | W anchors an un-determined LHS atom}
        self.ubar.clear();
        for w in &self.blocks {
            if dep.anchors(&self.x_new, w) {
                self.ubar.union_with(w);
            }
        }
        // Ṽ := V ∸ Ū
        self.alg.pdiff_into(&dep.rhs, &self.ubar, &mut self.vtilde);
        if self.vtilde.is_empty() {
            return false;
        }
        self.delta.clear();
        match dep.kind {
            DepKind::Fd => self.fd_step(),
            DepKind::Mvd => self.mvd_step(),
        }
    }

    /// `X_new ⊔= Ṽ`; every block is reduced by `Ṽ` and the maximal atoms
    /// of `Ṽ` become singleton blocks.
    fn fd_step(&mut self) -> bool {
        // fused kernels: delta ⊔= Ṽ ⊓ ¬X_new, then X_new ⊔= Ṽ with the
        // grew-flag — no temp set, no separate subset probe
        self.delta.union_andnot(&self.vtilde, &self.x_new);
        let mut changed = self.x_new.union_with_changed(&self.vtilde);
        // vt_max: maximal atoms of Ṽ — the singleton blocks this FD creates
        let vt_max = self.alg.maximal_atoms_of(&self.vtilde);
        // singletons b(m)^↓ that already exist and survive unchanged
        let mut present = AtomSet::empty(self.alg.atom_count());
        let mut i = 0;
        while i < self.blocks.len() {
            let w = &self.blocks[i];
            let wmax = self.alg.maximal_atoms_of(w);
            if !wmax.intersects(&vt_max) {
                // reduction removes no maximal atom: (W ∸ Ṽ)^CC = W
                i += 1;
                continue;
            }
            if wmax.is_subset(&self.vtilde) && wmax.count() == 1 {
                // W is already the singleton b(m)^↓ for some m ∈ MaxB(Ṽ):
                // the paper's step removes and re-adds it — a net no-op
                debug_assert_eq!(
                    *w,
                    self.alg.atom(wmax.iter().next().expect("count == 1")).below
                );
                present.union_with(&wmax);
                i += 1;
                continue;
            }
            // genuine reduction: W ↦ (W ∸ Ṽ)^CC, dropped if empty
            changed = true;
            self.delta.union_with(w);
            self.alg.pdiff_into(w, &self.vtilde, &mut self.scratch);
            let reduced = self.alg.cc(&self.scratch);
            if reduced.is_empty() {
                self.blocks.swap_remove(i);
                // the swapped-in block is processed at the same index
            } else {
                self.blocks[i] = reduced;
                i += 1;
            }
        }
        for m in vt_max.iter() {
            if !present.contains(m) {
                changed = true;
                let singleton = self.alg.atom(m).below.clone();
                self.delta.union_with(&singleton);
                self.push(singleton);
            }
        }
        changed
    }

    /// Mixed meet rule `X_new ⊔= Ṽ ⊓ Ṽ^C`; every block is split along
    /// `Ṽ`.
    fn mvd_step(&mut self) -> bool {
        // mixed meet Ṽ ⊓ Ṽ^C, then the fused delta/X_new kernels
        self.alg.compl_into(&self.vtilde, &mut self.scratch);
        self.scratch.intersect_with(&self.vtilde);
        self.delta.union_andnot(&self.scratch, &self.x_new);
        let mut changed = self.x_new.union_with_changed(&self.scratch);
        let n0 = self.blocks.len();
        for i in 0..n0 {
            let w = &self.blocks[i];
            let wmax = self.alg.maximal_atoms_of(w);
            // split only blocks straddling Ṽ: (Ṽ ⊓ W)^CC ∉ {λ, W}
            if !wmax.intersects(&self.vtilde) || wmax.is_subset(&self.vtilde) {
                continue;
            }
            changed = true;
            self.delta.union_with(w);
            self.scratch.copy_from(w);
            self.scratch.intersect_with(&self.vtilde);
            let inter = self.alg.cc(&self.scratch); // (Ṽ ⊓ W)^CC
            self.alg.pdiff_into(w, &self.vtilde, &mut self.scratch);
            let rest = self.alg.cc(&self.scratch); // (W ∸ Ṽ)^CC
            self.blocks[i] = inter;
            self.push(rest);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::closure_and_basis;
    use nalist_deps::Dependency;
    use nalist_types::parser::{parse_attr, parse_subattr_of};

    fn run_for(attr: &str, deps: &[&str], x: &str) -> (Algebra, Vec<CompiledDep>, WorklistRun) {
        let n = parse_attr(attr).unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = deps
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let set = alg.from_attr(&parse_subattr_of(&n, x).unwrap()).unwrap();
        let run = run(&alg, &sigma, &set, &Budget::unlimited(), nalist_obs::noop()).unwrap();
        (alg, sigma, run)
    }

    #[test]
    fn fired_reports_exactly_the_contributing_dependencies() {
        // From X = L(A): A → B fires; C → D never can (C stays
        // unanchored inside the block {C, D}, so Ṽ = ∅ every time)
        let (_, _, run) = run_for("L(A, B, C, D)", &["L(A) -> L(B)", "L(C) -> L(D)"], "L(A)");
        assert_eq!(run.fired, vec![0]);
        // with an empty Σ nothing fires
        let (_, _, none) = run_for("L(A, B, C)", &[], "L(A)");
        assert!(none.fired.is_empty());
    }

    #[test]
    fn fired_indices_refer_to_sigma_order_not_worklist_order() {
        // Σ lists the MVD before the FD; the worklist processes FDs
        // first, but `fired` and `trail` must still index into Σ as
        // given — the trail in firing order, `fired` ascending.
        let (_, _, run) = run_for("L(A, B, C, D)", &["L(A) ->> L(B)", "L(A) -> L(C)"], "L(A)");
        assert_eq!(run.trail, vec![1, 0]);
        assert_eq!(run.fired, vec![0, 1]);
    }

    #[test]
    fn run_rejects_non_downward_closed_x_with_typed_error() {
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let alg = Algebra::new(&n);
        // {G} without its list ancestors C, F (atom ids 0=B,1=C,2=E,3=F,4=G)
        let bad = AtomSet::from_indices(5, [4]);
        let err = run(&alg, &[], &bad, &Budget::unlimited(), nalist_obs::noop()).unwrap_err();
        assert_eq!(err, ClosureError::NotDownwardClosed { atom: 4 });
    }

    #[test]
    fn observed_run_matches_governed_and_counts_work() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = ["L(A) -> L(B)", "L(B) ->> L(C)"]
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        let plain = run(&alg, &sigma, &x, &Budget::unlimited(), nalist_obs::noop()).unwrap();
        let rec = nalist_obs::MetricsRecorder::new();
        let observed = run(&alg, &sigma, &x, &Budget::unlimited(), &rec).unwrap();
        assert_eq!(observed, plain);
        assert_eq!(rec.counter(Counter::DepsFired), plain.fired.len() as u64);
        assert_eq!(rec.counter(Counter::WorklistSteps), plain.steps);
        assert!(plain.steps >= sigma.len() as u64);
    }

    #[test]
    fn no_dependency_would_change_its_own_fixpoint() {
        let cases: &[(&str, &[&str], &[&str])] = &[
            (
                "L(A, B, C, D)",
                &["L(A) -> L(B)", "L(B) ->> L(C)", "L(C, D) -> L(A)"],
                &["λ", "L(A)", "L(B)", "L(C, D)", "L(A, B, C, D)"],
            ),
            (
                "A'(B, C[D(E, F[G])])",
                &[
                    "A'(B) ->> A'(C[D(E)])",
                    "A'(C[λ]) -> A'(B)",
                    "A'(C[D(F[λ])]) ->> A'(B, C[D(E)])",
                ],
                &["λ", "A'(B)", "A'(C[λ])"],
            ),
        ];
        for (attr, deps, xs) in cases {
            for x in *xs {
                let (alg, sigma, run) = run_for(attr, deps, x);
                let packed = PackedBasis::pack(&run.closure, &run.blocks, std::iter::empty());
                for d in &sigma {
                    assert!(
                        !step_would_change(&alg, &d.prepare(&alg), &packed),
                        "{} at fixpoint of X = {x} on {attr}",
                        d.render(&alg)
                    );
                }
            }
        }
    }

    #[test]
    fn step_would_change_predicts_recompute_divergence() {
        // check both polarities of the predicate against an actual
        // recompute with the dependency appended
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let alg = Algebra::new(&n);
        let sigma: Vec<CompiledDep> = ["L(A) -> L(B)"]
            .iter()
            .map(|s| Dependency::parse(&n, s).unwrap().compile(&alg).unwrap())
            .collect();
        let x = alg
            .from_attr(&parse_subattr_of(&n, "L(A)").unwrap())
            .unwrap();
        let before = closure_and_basis(&alg, &sigma, &x);
        let packed = PackedBasis::pack(&before.closure, &before.blocks, std::iter::empty());
        for (dep, expect_change) in [
            ("L(B) -> L(C)", true),  // B ∈ X⁺, C outside: fires
            ("L(C) -> L(D)", false), // C unanchored inside one block: no-op
            ("L(A) -> L(B)", false), // already in Σ: no-op at fixpoint
        ] {
            let d = Dependency::parse(&n, dep).unwrap().compile(&alg).unwrap();
            let predicted = step_would_change(&alg, &d.prepare(&alg), &packed);
            assert_eq!(predicted, expect_change, "prediction for {dep}");
            let mut bigger = sigma.clone();
            bigger.push(d);
            let after = closure_and_basis(&alg, &bigger, &x);
            if !predicted {
                assert_eq!(after, before, "no-op prediction must mean bit-identical");
            } else {
                assert_ne!(after, before, "{dep} was predicted to change the basis");
            }
        }
    }
}
