//! End-to-end attack-injection harness over the functional schemes.
//!
//! For every scheme × attack pair this module drives a full functional
//! inference ([`SecureRunner`]) over the scheme's memory, lets a seeded
//! [`AttackKind`] tamper with the untrusted store at a deterministic
//! injection point, and classifies what happened:
//!
//! * **Detected** — a verified read failed (what §III/§IV-C promise for
//!   the tree-less and tree-based schemes on every integrity/replay
//!   attack).
//! * **Corrupted** — the run completed but its output differs from an
//!   unattacked reference: the attack silently changed the computation
//!   (what encryption-only and unprotected memory admit).
//! * **Ineffective** — the run completed with the reference output: the
//!   injection did not land (a harness bug, not a scheme property — the
//!   expectations below never contain it).
//! * **NotApplicable** — the scheme has no surface for this attack (MAC
//!   substitution against a memory without MACs).
//!
//! Everything is seeded from *what is attacked* (model, scheme, attack
//! labels — [`SplitMix64::seed_from_labels`]), never from wall clock or
//! worker identity, so the full matrix is byte-identical across runs and
//! thread counts.
//!
//! The unattacked reference is one unsecure inference, memoized for the
//! process per model and seeds, and built only when a verdict compares
//! against it (see [`run_cell_on`]): cells that end `Detected` never pay
//! for it.

use crate::secure_runner::{RunError, SecureRunner};
use crate::Scheme;
use std::sync::{Arc, Mutex, OnceLock};
use tnpu_crypto::Key128;
use tnpu_memprot::adversary::{AttackKind, AttackPoint};
use tnpu_memprot::functional::{build_functional, IntegrityError, MismatchCause, UnsecureMemory};
use tnpu_models::{LayerKind, Model, TensorSource};
use tnpu_npu::alloc::{ModelLayout, TensorInfo};
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// The lifecycle state of the victim context when the tamper lands.
///
/// The original matrix attacks a context that is *live* on the NPU. A
/// multi-tenant pool (see [`crate::serving`]) exposes two more surfaces,
/// and the paper's detection claims must hold on all of them:
///
/// * [`Surface::Preempted`] — the victim is suspended at a layer boundary
///   ([`SecureRunner::suspend`]) when the attack lands and resumed
///   afterwards. Suspension must not open a window: the version table
///   travels with the context, so the next verified read after resume
///   still sees the tamper.
/// * [`Surface::CoResident`] — an innocent second tenant (same model,
///   own keys, own memory) shares the pool while the victim is attacked.
///   The victim's cell must classify exactly as when alone, *and* the
///   neighbor's own inference must finish with the untampered reference
///   output — attacking one tenant never corrupts another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// Victim live on the NPU (the original matrix).
    Resident,
    /// Victim suspended when the tamper lands, resumed after.
    Preempted,
    /// Victim attacked while an innocent tenant shares the pool.
    CoResident,
}

impl Surface {
    /// Every surface, in presentation order.
    pub const ALL: [Surface; 3] = [Surface::Resident, Surface::Preempted, Surface::CoResident];

    /// Stable label used in tables and seed derivation.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Surface::Resident => "resident",
            Surface::Preempted => "preempted",
            Surface::CoResident => "co-resident",
        }
    }
}

impl std::fmt::Display for Surface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one injected attack did to one protected inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A verified read rejected the tampered state.
    Detected,
    /// The run finished with an output that differs from the unattacked
    /// reference — silent corruption.
    Corrupted,
    /// The run finished with the reference output (the injection did not
    /// land — never expected).
    Ineffective,
    /// The scheme exposes no surface for this attack.
    NotApplicable,
}

impl Outcome {
    /// Fixed-width table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::Corrupted => "corrupted",
            Outcome::Ineffective => "ineffective",
            Outcome::NotApplicable => "n/a",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the scheme × attack matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Scheme under attack.
    pub scheme: Scheme,
    /// Attack injected.
    pub attack: AttackKind,
    /// What actually happened.
    pub outcome: Outcome,
    /// What the paper's claims predict.
    pub expected: Outcome,
    /// When detection came from a per-block MAC mismatch, which of the
    /// MAC's bindings the scheme diagnosed as inconsistent (content,
    /// address, or version). `None` for undetected cells and for
    /// detections that fired elsewhere (the counter tree).
    pub cause: Option<MismatchCause>,
}

impl CellResult {
    /// Whether the observed outcome matches the paper's claim.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.outcome == self.expected
    }
}

/// The paper's claim for one cell (§III threat model, §IV-C detection,
/// §II-B encryption-only gap): versioned-MAC and tree schemes detect every
/// attack; encryption-only and unprotected memory silently corrupt, except
/// where the attack has no surface at all.
#[must_use]
pub fn expected_outcome(scheme: Scheme, attack: AttackKind) -> Outcome {
    match scheme {
        Scheme::Treeless | Scheme::TreeBased => Outcome::Detected,
        Scheme::EncryptOnly | Scheme::Unsecure => match attack {
            AttackKind::MacSubstitution => Outcome::NotApplicable,
            _ => Outcome::Corrupted,
        },
    }
}

/// Which MAC binding each detected cell is expected to report broken.
///
/// * The tree-less scheme diagnoses every detection at the MAC: replayed
///   state verifies under a *nearby version* (the replay window the
///   versions close), spliced ciphertext verifies at its *donor address*,
///   and everything else — flips, rolled-back metadata, substituted MACs,
///   foreign-context blocks — is indistinguishable from corrupted
///   *content*.
/// * The tree-based scheme catches replay, rollback, and foreign splices
///   in the counter tree before the MAC is ever consulted (`None`); only
///   data-side tampers reach MAC diagnosis.
/// * Unprotected and encryption-only memory have no MACs: always `None`.
#[must_use]
pub fn expected_cause(scheme: Scheme, attack: AttackKind) -> Option<MismatchCause> {
    match scheme {
        Scheme::Unsecure | Scheme::EncryptOnly => None,
        Scheme::Treeless => Some(match attack {
            AttackKind::Replay => MismatchCause::Version,
            AttackKind::BlockSplice => MismatchCause::Address,
            _ => MismatchCause::Content,
        }),
        Scheme::TreeBased => match attack {
            AttackKind::Replay | AttackKind::VersionRollback | AttackKind::CrossContextSplice => {
                None
            }
            AttackKind::BlockSplice => Some(MismatchCause::Address),
            _ => Some(MismatchCause::Content),
        },
    }
}

/// Where the attacked tensor gets consumed — the step whose verified read
/// must catch the tamper.
#[derive(Debug, Clone, Copy)]
enum Consumer {
    /// Verified on the `mvin` of this layer.
    Layer(usize),
    /// Verified when the CPU reads the final output back.
    Final,
}

/// Layers whose output actually reaches the final output. Embedding
/// layers read only gathered table rows, so their declared inputs carry no
/// data into the run — liveness does not propagate through them. A dead
/// layer's tensors are written but never read; attacking one could never
/// change the output, so victims come from live layers only.
fn live_layers(model: &Model) -> Vec<bool> {
    let mut live = vec![false; model.layers.len()];
    let mut stack = vec![model.layers.len() - 1];
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        if matches!(model.layers[i].kind, LayerKind::Embedding { .. }) {
            continue;
        }
        for src in &model.layers[i].inputs {
            if let TensorSource::Layer(j) = src {
                stack.push(*j);
            }
        }
    }
    live
}

/// Every (consumer, victim tensor) pair the attack may target. The replay
/// family needs the victim *rewritten* between capture and injection —
/// the rewrite is what opens the replay window — so it is restricted to
/// tensors the second pass rewrites (the input and layer outputs), while
/// tamper-style attacks may also hit the static weights. Embedding tables
/// are excluded: only gathered rows are read, so a tampered block might
/// legitimately never be touched.
fn candidates(
    model: &Model,
    layout: &ModelLayout,
    attack: AttackKind,
) -> Vec<(Consumer, TensorInfo)> {
    let live = live_layers(model);
    let mut out = Vec::new();
    for (j, layer) in model.layers.iter().enumerate() {
        if !live[j] || matches!(layer.kind, LayerKind::Embedding { .. }) {
            continue;
        }
        for src in &layer.inputs {
            out.push((Consumer::Layer(j), layout.source(*src)));
        }
        if !attack.needs_capture() {
            if let Some(w) = layout.weights[j] {
                out.push((Consumer::Layer(j), w));
            }
        }
    }
    out.push((
        Consumer::Final,
        *layout.outputs.last().expect("models have layers"),
    ));
    out
}

/// A written block other than the victim, to serve as splice/MAC donor.
/// The input and weight tensors are always resident, so scanning them from
/// a seeded offset always terminates.
fn pick_donor(model: &Model, layout: &ModelLayout, victim: Addr, rng: &mut SplitMix64) -> Addr {
    let mut tensors = vec![layout.input];
    for (li, w) in layout.weights.iter().enumerate() {
        if let Some(w) = w {
            if model.layers[li].weights_shared_with.is_none() {
                tensors.push(*w);
            }
        }
    }
    for t in tensors {
        let blocks = t.bytes.div_ceil(BLOCK_SIZE as u64).max(1);
        let start = rng.next_below(blocks);
        for k in 0..blocks {
            let b = (start + k) % blocks;
            let addr = t.addr.offset(b * BLOCK_SIZE as u64);
            if addr != victim {
                return addr;
            }
        }
    }
    panic!("no written block distinct from the victim exists");
}

/// A memoized reference: filled by the first cell whose verdict reads it,
/// then shared by every later cell of the same model and seeds.
type ReferenceSlot = Arc<OnceLock<Arc<[u8]>>>;

/// Process-wide memo of [`reference_output`], one slot per model value and
/// seed pair. The reference is a pure function of that key, and every cell
/// of a model's matrix asks for the same one. The key is the whole
/// [`Model`], not its name, so two models that share a name get their own
/// references. Slots are never evicted: a process attacks a handful of
/// models, and a slot holds one output tensor. Purely a compute cache:
/// every verdict is the same either way.
static REFERENCES: Mutex<Vec<(Model, u64, u64, ReferenceSlot)>> = Mutex::new(Vec::new());

/// The unattacked second-pass output — the differential oracle. Computed
/// on unprotected memory: the layer arithmetic folds *plaintext* (see
/// [`crate::secure_runner`]), so the clean output is scheme-independent
/// (asserted by the tests below).
///
/// One unsecure pass gives it: weights from `s1`, then
/// `next_inference(s2)`, a run, and the read-back. A clean pass 1 cannot
/// change what pass 2 computes. Each layer reads the input (rewritten from
/// `s2`), the weights (written once from `s1`) and outputs of earlier
/// layers that pass 2 has already rewritten; embedding rows are drawn from
/// `s2`; and versions do not enter the plaintext. The tests check this
/// against the two-pass run for every registry model.
///
/// Built at most once per model and seeds in a process (see
/// [`REFERENCES`]), by the first caller; concurrent callers wait for it.
fn reference_output(model: &Model, s1: u64, s2: u64) -> Arc<[u8]> {
    let slot = {
        let mut memo = REFERENCES.lock().expect("reference memo");
        match memo
            .iter()
            .find(|(m, a, b, _)| (*a, *b) == (s1, s2) && m == model)
        {
            Some((.., slot)) => Arc::clone(slot),
            None => {
                let slot = ReferenceSlot::default();
                memo.push((model.clone(), s1, s2, Arc::clone(&slot)));
                slot
            }
        }
    };
    Arc::clone(slot.get_or_init(|| {
        let mut r = SecureRunner::with_memory(model, UnsecureMemory::new(), s1);
        r.next_inference(s2).expect("input version bumps");
        r.run().expect("unprotected pass cannot fail");
        r.read_output()
            .expect("unprotected read cannot fail")
            .into()
    }))
}

/// Cause a detected integrity failure reports, if it was a MAC mismatch.
fn mismatch_cause(e: IntegrityError) -> Option<MismatchCause> {
    match e {
        IntegrityError::MacMismatch { cause, .. } => Some(cause),
        _ => None,
    }
}

/// Drive the remaining layers and the final read-back. Returns the output
/// of a run that completed, or, on detection, which MAC binding the scheme
/// diagnosed as broken (if detection came from a MAC at all).
fn finish<M: tnpu_memprot::functional::FunctionalMemory>(
    runner: &mut SecureRunner<M>,
) -> Result<Vec<u8>, Option<MismatchCause>> {
    while !runner.is_finished() {
        match runner.step() {
            Ok(_) => {}
            Err(RunError::Integrity(e)) => return Err(mismatch_cause(e)),
            Err(e) => panic!("attack produced a non-integrity failure: {e}"),
        }
    }
    match runner.read_output() {
        Ok(out) => Ok(out),
        Err(RunError::Integrity(e)) => Err(mismatch_cause(e)),
        Err(e) => panic!("attack produced a non-integrity failure: {e}"),
    }
}

/// Run one scheme × attack cell against a resident context: a clean first
/// inference, an attack observation, then a second inference with the
/// attack injected right before the victim's consumer runs.
#[must_use]
pub fn run_cell(model: &Model, scheme: Scheme, attack: AttackKind) -> CellResult {
    run_cell_on(model, scheme, attack, Surface::Resident)
}

/// Run one scheme × attack cell against the given context [`Surface`].
///
/// The [`Surface::Resident`] path is byte-identical to the original
/// [`run_cell`] (same seed labels, same victim picks); the other surfaces
/// derive their own injection points but share the expectation tables —
/// the paper's claims do not weaken off the happy path.
///
/// The unattacked reference output, one unsecure pass memoized per model
/// and seeds, is read only by a verdict that compares against it: a victim
/// run that completed (ineffective or corrupted) and the co-resident
/// neighbor's check. A detected or not-applicable cell without a neighbor
/// never builds it. It is fetched only after the victim, the foreign
/// memory and the neighbor are dropped, so the memory it is built on is
/// never alive beside another.
#[must_use]
pub fn run_cell_on(
    model: &Model,
    scheme: Scheme,
    attack: AttackKind,
    surface: Surface,
) -> CellResult {
    let expected = expected_outcome(scheme, attack);
    let s1 = SplitMix64::seed_from_labels(&["attacks", &model.name, "pass1"]);
    let s2 = SplitMix64::seed_from_labels(&["attacks", &model.name, "pass2"]);

    let layout = ModelLayout::allocate(model, Addr(0));
    let data_blocks = layout.total_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
    let mem = build_functional(scheme, Key128::derive(b"attacks-victim"), data_blocks);
    let mut runner = SecureRunner::with_memory(model, mem, s1);
    runner.run().expect("clean pass 1 must verify");

    // The innocent co-resident tenant: same model, its own keys and
    // memory. It finishes its first pass before the victim is attacked
    // and its second pass after — both must stay clean.
    let neighbor = (surface == Surface::CoResident).then(|| {
        let mem = build_functional(scheme, Key128::derive(b"attacks-neighbor"), data_blocks);
        let mut n = SecureRunner::with_memory(model, mem, s1);
        n.run().expect("neighbor pass 1 must verify");
        n
    });

    // Resident cells keep the original seed labels so the frozen matrix
    // stays byte-identical; the new surfaces draw their own points.
    let seed = match surface {
        Surface::Resident => {
            SplitMix64::seed_from_labels(&["attacks", &model.name, scheme.label(), attack.label()])
        }
        _ => SplitMix64::seed_from_labels(&[
            "attacks",
            &model.name,
            scheme.label(),
            attack.label(),
            surface.label(),
        ]),
    };
    let mut rng = SplitMix64::new(seed);
    let cands = candidates(model, &layout, attack);
    let (consumer, tensor) = cands[rng.next_below(cands.len() as u64) as usize];
    let blocks = tensor.bytes.div_ceil(BLOCK_SIZE as u64).max(1);
    let victim_block = rng.next_below(blocks);
    let victim = tensor.addr.offset(victim_block * BLOCK_SIZE as u64);
    // Layer ingestion folds whole blocks; only the final read-back
    // truncates to the tensor's real length, so bit-flips against the
    // last partially-used block must stay in the bytes the CPU reads.
    let live_bytes = match consumer {
        Consumer::Layer(_) => BLOCK_SIZE,
        Consumer::Final => usize::try_from(tensor.bytes - victim_block * BLOCK_SIZE as u64)
            .expect("block tail fits usize")
            .min(BLOCK_SIZE),
    };
    let donor = pick_donor(model, &layout, victim, &mut rng);

    let captured = attack.observe(runner.memory(), victim);

    runner.next_inference(s2).expect("input version bumps");
    let inject_after = match consumer {
        Consumer::Layer(j) => j,
        Consumer::Final => model.layers.len(),
    };
    for _ in 0..inject_after {
        runner.step().expect("pre-injection layers are untampered");
    }

    let version = runner
        .version_table()
        .version(tensor.id, 0)
        .expect("victim tensor is registered");
    let mut foreign = (attack == AttackKind::CrossContextSplice)
        .then(|| build_functional(scheme, Key128::derive(b"attacks-foreign"), data_blocks));
    // On the preempted surface the tamper lands while the context is
    // suspended at this layer boundary: snapshot, inject, resume. Resume
    // itself must succeed — the snapshot is epoch-fresh and the version
    // table travels with the context — so detection is deferred to the
    // next verified read, exactly as for a resident context.
    let snapshot =
        (surface == Surface::Preempted).then(|| runner.suspend().expect("boundary suspend"));
    let changed = {
        let mut point = AttackPoint {
            victim,
            donor,
            version,
            live_bytes,
            foreign: foreign.as_deref_mut().map(|f| f as _),
            rng: &mut rng,
        };
        attack.inject(runner.memory_mut(), &mut point, captured.as_ref())
    };
    if let Some(snapshot) = &snapshot {
        runner
            .resume(snapshot)
            .expect("resuming over tampered memory succeeds; the next read detects");
    }
    let finished = changed.then(|| finish(&mut runner));
    drop((runner, foreign));
    // Tenant isolation: whatever happened to the victim, the co-resident
    // tenant's own inference is untouched.
    let neighbor_output = neighbor.map(|mut n| {
        n.next_inference(s2).expect("neighbor input bumps");
        n.run().expect("neighbor pass 2 must verify");
        n.read_output().expect("neighbor output must verify")
    });
    if let Some(out) = neighbor_output {
        assert_eq!(
            *out,
            *reference_output(model, s1, s2),
            "attacking one tenant corrupted a co-resident tenant ({scheme} × {attack})"
        );
    }
    let (outcome, cause) = match finished {
        None => (Outcome::NotApplicable, None),
        Some(Err(cause)) => (Outcome::Detected, cause),
        Some(Ok(out)) if *out == *reference_output(model, s1, s2) => (Outcome::Ineffective, None),
        Some(Ok(_)) => (Outcome::Corrupted, None),
    };
    CellResult {
        scheme,
        attack,
        outcome,
        expected,
        cause,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_models::builder::ModelBuilder;
    use tnpu_models::registry::{self, DYNAMIC_MODEL_NAMES, MODEL_NAMES};

    /// The full scheme × attack matrix for one model on one context
    /// surface, in presentation order.
    fn run_matrix(model: &Model, surface: Surface) -> Vec<CellResult> {
        Scheme::ALL
            .into_iter()
            .flat_map(|scheme| {
                AttackKind::ALL.map(|attack| run_cell_on(model, scheme, attack, surface))
            })
            .collect()
    }

    /// The two-pass reference the one-pass [`reference_output`] replaced:
    /// a clean pass 1 on `s1`, then pass 2 on `s2`. The oracle for it.
    fn two_pass_reference(model: &Model, s1: u64, s2: u64) -> Vec<u8> {
        let mut r = SecureRunner::with_memory(model, UnsecureMemory::new(), s1);
        r.run().expect("unprotected pass 1 cannot fail");
        r.next_inference(s2).expect("input version bumps");
        r.run().expect("unprotected pass 2 cannot fail");
        r.read_output().expect("unprotected read cannot fail")
    }

    /// Whether the reference memo holds a slot for `model`.
    fn memoized(model: &Model) -> bool {
        let memo = REFERENCES.lock().expect("reference memo");
        memo.iter().any(|(m, ..)| m == model)
    }

    fn tiny() -> Model {
        ModelBuilder::new("tiny", "TinyNet", (4, 8, 8))
            .conv("c1", 8, 3, 1, 1)
            .pool("p1", 2, 2)
            .fc("fc", 16)
            .build()
    }

    fn tiny_embed() -> Model {
        ModelBuilder::new("tiny-embed", "TinyEmbed", (1, 1, 8))
            .embedding("emb", 64, 16, 4)
            .fc("fc", 8)
            .build()
    }

    #[test]
    fn full_matrix_matches_paper_claims_both_directions() {
        // Every cell must land exactly where §III/§IV-C predict: detection
        // on the versioned schemes, silent corruption (not detection!) on
        // encryption-only and unprotected memory.
        for cell in run_matrix(&tiny(), Surface::Resident) {
            assert_eq!(
                cell.outcome, cell.expected,
                "{} × {}: got {}, paper claims {}",
                cell.scheme, cell.attack, cell.outcome, cell.expected
            );
        }
    }

    #[test]
    fn embedding_models_follow_the_same_matrix() {
        for cell in run_matrix(&tiny_embed(), Surface::Resident) {
            assert_eq!(
                cell.outcome, cell.expected,
                "{} × {} on embedding model",
                cell.scheme, cell.attack
            );
        }
    }

    #[test]
    fn matrix_is_deterministic() {
        assert_eq!(
            run_matrix(&tiny(), Surface::Resident),
            run_matrix(&tiny(), Surface::Resident)
        );
    }

    #[test]
    fn preempted_and_co_resident_surfaces_match_the_same_claims() {
        // Suspending the victim when the tamper lands, or adding an
        // innocent co-resident tenant, must not weaken (or change) a
        // single cell of the matrix — and the co-resident run also
        // asserts the neighbor's output stays clean.
        let model = tiny();
        for surface in [Surface::Preempted, Surface::CoResident] {
            for cell in run_matrix(&model, surface) {
                assert_eq!(
                    cell.outcome, cell.expected,
                    "{} × {} on {surface}: got {}, paper claims {}",
                    cell.scheme, cell.attack, cell.outcome, cell.expected
                );
                assert_eq!(
                    cell.cause,
                    expected_cause(cell.scheme, cell.attack),
                    "{} × {} on {surface}: diagnosed {:?}",
                    cell.scheme,
                    cell.attack,
                    cell.cause
                );
            }
        }
    }

    #[test]
    fn resident_surface_is_the_original_cell() {
        // `run_cell` must stay byte-for-byte the resident path — the
        // frozen bench matrix depends on it.
        let model = tiny();
        for scheme in Scheme::ALL {
            for attack in AttackKind::ALL {
                assert_eq!(
                    run_cell(&model, scheme, attack),
                    run_cell_on(&model, scheme, attack, Surface::Resident),
                );
            }
        }
    }

    #[test]
    fn extended_surfaces_are_deterministic() {
        let model = tiny();
        for surface in Surface::ALL {
            assert_eq!(
                run_matrix(&model, surface),
                run_matrix(&model, surface),
                "{surface}"
            );
        }
    }

    #[test]
    fn detected_cells_diagnose_the_expected_cause() {
        // The cause discriminant is part of the detection contract: the
        // tree-less scheme must tell replay (version binding) apart from
        // relocation (address binding) apart from corruption (content),
        // and the tree must intercept counter-side attacks before MAC
        // diagnosis.
        for cell in run_matrix(&tiny(), Surface::Resident) {
            assert_eq!(
                cell.cause,
                expected_cause(cell.scheme, cell.attack),
                "{} × {}: diagnosed {:?}",
                cell.scheme,
                cell.attack,
                cell.cause
            );
        }
    }

    #[test]
    fn undetected_cells_never_carry_a_cause() {
        for scheme in [Scheme::Unsecure, Scheme::EncryptOnly] {
            for attack in AttackKind::ALL {
                assert_eq!(expected_cause(scheme, attack), None, "{scheme} × {attack}");
            }
        }
    }

    #[test]
    fn clean_output_is_scheme_independent() {
        // The differential oracle's premise: without an attack, every
        // scheme computes the same plaintext output.
        let model = tiny();
        let layout = ModelLayout::allocate(&model, Addr(0));
        let data_blocks = layout.total_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
        let outputs: Vec<Vec<u8>> = Scheme::ALL
            .iter()
            .map(|&s| {
                let mem = build_functional(s, Key128::derive(b"clean"), data_blocks);
                let mut r = SecureRunner::with_memory(&model, mem, 5);
                r.run().expect("clean run verifies");
                r.read_output().expect("clean output verifies")
            })
            .collect();
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "schemes disagree on the clean output"
        );
    }

    #[test]
    fn one_pass_reference_equals_the_two_pass_reference_for_every_registry_model() {
        for name in MODEL_NAMES.iter().chain(&DYNAMIC_MODEL_NAMES) {
            let model = registry::model(name).expect("registered model");
            let s1 = SplitMix64::seed_from_labels(&["attacks", name, "pass1"]);
            let s2 = SplitMix64::seed_from_labels(&["attacks", name, "pass2"]);
            assert_eq!(
                *reference_output(&model, s1, s2),
                *two_pass_reference(&model, s1, s2),
                "{name}"
            );
        }
    }

    #[test]
    fn models_that_share_a_name_get_their_own_reference() {
        // Same name, so the same seeds; different layers, so different
        // outputs. A memo keyed by name would hand `b` the reference of
        // `a`, and `b`'s co-resident neighbor check would panic.
        let a = ModelBuilder::new("twin", "TwinA", (4, 8, 8))
            .conv("c1", 8, 3, 1, 1)
            .fc("fc", 16)
            .build();
        let b = ModelBuilder::new("twin", "TwinB", (4, 8, 8))
            .conv("c1", 8, 3, 1, 1)
            .fc("fc", 24)
            .build();
        let s1 = SplitMix64::seed_from_labels(&["attacks", "twin", "pass1"]);
        let s2 = SplitMix64::seed_from_labels(&["attacks", "twin", "pass2"]);
        let (ra, rb) = (reference_output(&a, s1, s2), reference_output(&b, s1, s2));
        assert_eq!(*ra, *two_pass_reference(&a, s1, s2));
        assert_eq!(*rb, *two_pass_reference(&b, s1, s2));
        assert_ne!(ra, rb);
        assert!(
            Arc::ptr_eq(&ra, &reference_output(&a, s1, s2)),
            "built once"
        );
        for model in [&a, &b] {
            for cell in run_matrix(model, Surface::CoResident) {
                assert!(cell.matches(), "{} × {}", cell.scheme, cell.attack);
            }
        }
    }

    #[test]
    fn detecting_schemes_never_build_the_reference() {
        // Every tree-less and counter-tree cell ends `Detected`, which no
        // reference can change, so none of them may build one.
        let model = ModelBuilder::new("detect-only", "DetectOnly", (4, 8, 8))
            .conv("c1", 8, 3, 1, 1)
            .fc("fc", 12)
            .build();
        for scheme in [Scheme::Treeless, Scheme::TreeBased] {
            for surface in [Surface::Resident, Surface::Preempted] {
                for attack in AttackKind::ALL {
                    let cell = run_cell_on(&model, scheme, attack, surface);
                    assert_eq!(cell.outcome, Outcome::Detected, "{scheme} × {attack}");
                }
            }
        }
        assert!(!memoized(&model));
        let _ = run_cell(&model, Scheme::Unsecure, AttackKind::BitFlip);
        assert!(memoized(&model), "a completed run reads the reference");
    }

    #[test]
    fn expectations_cover_every_cell_without_ineffective() {
        for scheme in Scheme::ALL {
            for attack in AttackKind::ALL {
                let e = expected_outcome(scheme, attack);
                assert_ne!(e, Outcome::Ineffective, "{scheme} × {attack}");
            }
        }
    }

    #[test]
    fn dead_layers_are_never_victims() {
        // A model with a dead branch (nothing consumes `dead`): its output
        // must not appear among victim candidates.
        let model = ModelBuilder::new("deadend", "DeadEnd", (4, 8, 8))
            .conv("c1", 8, 3, 1, 1)
            .fc("dead", 8)
            .from_layer(0)
            .fc("out", 16)
            .build();
        let layout = ModelLayout::allocate(&model, Addr(0));
        let live = live_layers(&model);
        assert_eq!(live, vec![true, false, true]);
        for attack in AttackKind::ALL {
            let dead_out = layout.outputs[1];
            for (_, t) in candidates(&model, &layout, attack) {
                assert_ne!(t.id, dead_out.id, "dead output offered as victim");
            }
        }
    }
}
