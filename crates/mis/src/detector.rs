//! Incremental stabilization detector.
//!
//! The paper's stability predicate is 1-hop local: `v ∈ I_t` iff `v` sits
//! at its claiming level and every neighbor sits at its `ℓmax`, and
//! `v ∈ S_t` iff `v` or a neighbor is in `I_t` (§1). [`StabilityTracker`]
//! keeps `|I_t|`, the unstable count `|V \ S_t|` and the number of
//! independence violations up to date across rounds instead of re-deriving
//! them with the O(n + m) scans of [`crate::recovery`] every round:
//!
//! - A node's *class* is two bits, "at the claiming level" and "at `ℓmax`"
//!   (both set for `ℓmax = 0`). A departed node counts as "at `ℓmax`" only:
//!   it never claims and never blocks a neighbor, exactly as in
//!   [`crate::recovery::claimed_mis`].
//! - Each observation diffs every node's class against the stored one in a
//!   single streaming O(n) pass. It needs nothing from the engine, so it
//!   works under every [`beeping::EngineMode`].
//! - Only the changed nodes' surroundings are repaired. A class change can
//!   move `I_t` membership of the node and its claiming neighbors, which
//!   are re-evaluated; a node leaving `I_t` can move `S_t` membership of
//!   its closed neighborhood, which is re-evaluated too. The per-node state
//!   is one byte of class, `I_t` and `S_t` bits, plus two bounded queues.
//! - When [`Simulator::topology_version`] differs from the version last
//!   seen (churn, motion, restore), the tracker rebuilds from scratch, so
//!   no run loop has to remember to invalidate it. An observation whose
//!   repair would queue more than a sixteenth of the nodes recounts from
//!   the classes instead.
//!
//! Debug builds assert every observation against the full-scan oracle
//! ([`crate::recovery::claimed_mis`] and
//! [`crate::recovery::independence_violations`]); `unstable == 0` is then
//! exactly [`crate::recovery::stabilized_active`].

use beeping::Simulator;
use graphs::Graph;

use crate::levels::Level;
use crate::recovery::{claimed_mis, independence_violations};
use crate::runner::SelfStabilizingMis;

/// Class bit: the node is active and at its claiming level.
const CLAIM: u8 = 1;
/// Class bit: the node is at its `ℓmax`, or departed (never blocks).
const AT_MAX: u8 = 2;
/// The node participates (fixed between rebuilds).
const ACTIVE: u8 = 4;
/// The node is in `I_t`.
const IN_MIS: u8 = 8;
/// The node is in `S_t`: in `I_t` or next to an `I_t` node.
const STABLE: u8 = 16;
/// The node waits in the `I_t` queue.
const QUEUED: u8 = 32;
/// The node waits in the `S_t` queue.
const RECHECK: u8 = 64;
const CLASS: u8 = CLAIM | AT_MAX;

/// One observation of the stability observables, restricted to the active
/// subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stability {
    /// `|I_t|`: active nodes stable in the MIS.
    pub in_mis: usize,
    /// `|S_t ∩ active|`: active nodes in `I_t` or next to an `I_t` node.
    pub stable: usize,
    /// Active nodes outside `S_t`; zero exactly when `S_t` covers every
    /// active node.
    pub unstable: usize,
    /// Live independence violations: edges whose endpoints are both active
    /// and both at their claiming level.
    pub violations: usize,
}

impl Stability {
    /// `S_t = V` on the active subgraph (vacuously `true` when no node is
    /// active) — [`crate::recovery::stabilized_active`].
    pub fn is_stabilized(&self) -> bool {
        self.unstable == 0
    }
}

/// Incrementally maintained stability observables of one simulator; see
/// the module docs.
///
/// A tracker follows a single simulator: feed every observation from the
/// same [`Simulator`], and use a fresh tracker for another one.
///
/// # Example
///
/// ```
/// use beeping::Simulator;
/// use graphs::generators::classic;
/// use mis::detector::StabilityTracker;
/// use mis::{Algorithm1, LmaxPolicy};
///
/// let g = classic::path(3);
/// let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 4));
/// let mut sim = Simulator::new(&g, algo.clone(), vec![4, -4, 4], 1);
/// let mut tracker = StabilityTracker::new();
/// let s = tracker.observe(&algo, &sim);
/// assert!(s.is_stabilized());
/// assert_eq!((s.in_mis, s.stable), (1, 3));
/// sim.corrupt_state(0, -4); // a second claimer next to the MIS node
/// let s = tracker.observe(&algo, &sim);
/// assert!(!s.is_stabilized());
/// assert_eq!((s.in_mis, s.violations), (0, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StabilityTracker {
    /// The simulator topology version the per-node data was built for.
    version: Option<u64>,
    /// Class, participation, `I_t`, `S_t` and queue bits per node.
    flags: Vec<u8>,
    /// Nodes whose `I_t` membership may have changed this observation.
    members: Vec<usize>,
    /// Nodes whose `S_t` membership may have changed this observation.
    recheck: Vec<usize>,
    active: usize,
    in_mis: usize,
    unstable: usize,
    violations: usize,
}

impl StabilityTracker {
    /// An empty tracker; the first observation builds it.
    pub fn new() -> StabilityTracker {
        StabilityTracker::default()
    }

    /// The observables of `sim`'s current configuration under `algo`'s
    /// stability semantics, active-aware and on the live topology. Costs
    /// one O(n) pass plus the neighborhoods of the nodes whose class
    /// changed since the previous observation, or O(n + m) after a
    /// topology change.
    pub fn observe<A: SelfStabilizingMis>(
        &mut self,
        algo: &A,
        sim: &Simulator<'_, A>,
    ) -> Stability {
        let version = sim.topology_version();
        if self.version != Some(version) || self.flags.len() != sim.graph().len() {
            self.rebuild(algo, sim);
            self.version = Some(version);
        } else {
            self.update(algo, sim);
        }
        let stability = Stability {
            in_mis: self.in_mis,
            stable: self.active - self.unstable,
            unstable: self.unstable,
            violations: self.violations,
        };
        if cfg!(debug_assertions) {
            debug_check_oracle(algo, sim, &stability);
        }
        stability
    }

    /// Recomputes every class from the simulator, then every count.
    fn rebuild<A: SelfStabilizingMis>(&mut self, algo: &A, sim: &Simulator<'_, A>) {
        let lmax = algo.policy().lmax_values();
        self.flags.clear();
        self.flags.resize(sim.graph().len(), 0);
        for (((f, &level), &lmax), &active) in
            self.flags.iter_mut().zip(sim.states()).zip(lmax).zip(sim.active())
        {
            // Branch-free, so the pass vectorizes; a departed node is
            // `AT_MAX` only.
            let a = u8::from(active);
            *f = (a * (ACTIVE | class_of(algo, level, lmax))) | ((1 - a) * AT_MAX);
        }
        self.active = sim.active_count();
        self.recount(sim.graph());
    }

    /// Recomputes `I_t`, `S_t` and the three totals from the stored
    /// classes, whose derived bits must be clear. One pass that visits only
    /// the adjacency of claiming nodes.
    fn recount(&mut self, graph: &Graph) {
        self.members.clear();
        self.recheck.clear();
        let mut claim_ends = 0usize;
        let mut in_mis = 0usize;
        self.unstable = self.active;
        for v in 0..self.flags.len() {
            if self.flags[v] & CLAIM == 0 {
                continue;
            }
            let mut all_max = true;
            for &u in graph.neighbors(v) {
                let fu = self.flags[u as usize];
                claim_ends += usize::from(fu & CLAIM);
                all_max &= fu & AT_MAX != 0;
            }
            if all_max {
                in_mis += 1;
                self.flags[v] |= IN_MIS;
                self.set_stable(v);
                for &u in graph.neighbors(v) {
                    self.set_stable(u as usize);
                }
            }
        }
        // Every violating edge was counted from both endpoints.
        self.violations = claim_ends / 2;
        self.in_mis = in_mis;
    }

    /// Diffs every class against the stored one and repairs around the
    /// changed nodes, or recounts when the repair would grow too large.
    fn update<A: SelfStabilizingMis>(&mut self, algo: &A, sim: &Simulator<'_, A>) {
        let graph = sim.graph();
        let lmax = algo.policy().lmax_values();
        let cap = self.flags.len() / 16 + 16;
        let mut overflow = false;
        for (v, (&level, &lmax)) in sim.states().iter().zip(lmax).enumerate() {
            let old = self.flags[v];
            if old & ACTIVE == 0 {
                continue; // departed: the class is pinned until a rebuild
            }
            let flipped = (old ^ class_of(algo, level, lmax)) & CLASS;
            if flipped == 0 {
                continue;
            }
            self.flags[v] = old ^ flipped;
            if !overflow {
                self.repair_class_change(graph, v, flipped);
                overflow = self.members.len() > cap;
            }
        }
        if overflow || !self.settle(graph, cap) {
            for f in &mut self.flags {
                *f &= CLASS | ACTIVE;
            }
            self.recount(graph);
        }
    }

    /// Applies one node's class flip to the violation total and queues the
    /// nodes whose `I_t` membership it may change: the node itself when
    /// its claim flips, its claiming neighbors when its `ℓmax` bit flips.
    /// Nodes before `v` already carry their new class and nodes after it
    /// their old one, so every edge's violation is counted exactly once.
    fn repair_class_change(&mut self, graph: &Graph, v: usize, flipped: u8) {
        if flipped & CLAIM != 0 {
            let claiming =
                graph.neighbors(v).iter().filter(|&&u| self.flags[u as usize] & CLAIM != 0).count();
            if self.flags[v] & CLAIM != 0 {
                self.violations += claiming;
            } else {
                self.violations -= claiming;
            }
            self.enqueue_member(v);
        }
        if flipped & AT_MAX != 0 {
            for &u in graph.neighbors(v) {
                if self.flags[u as usize] & CLAIM != 0 {
                    self.enqueue_member(u as usize);
                }
            }
        }
    }

    fn enqueue_member(&mut self, v: usize) {
        if self.flags[v] & QUEUED == 0 {
            self.flags[v] |= QUEUED;
            self.members.push(v);
        }
    }

    fn enqueue_recheck(&mut self, v: usize) {
        if self.flags[v] & RECHECK == 0 {
            self.flags[v] |= RECHECK;
            self.recheck.push(v);
        }
    }

    /// Re-evaluates `I_t` membership of the queued nodes against the final
    /// classes, then `S_t` membership around every node that left `I_t`.
    /// A node joining `I_t` puts its closed neighborhood into `S_t`
    /// directly. Returns `false`, leaving the state for a recount, if the
    /// `S_t` queue outgrows `cap`.
    fn settle(&mut self, graph: &Graph, cap: usize) -> bool {
        for i in 0..self.members.len() {
            let w = self.members[i];
            let f = self.flags[w] & !QUEUED;
            self.flags[w] = f;
            let now_in = f & CLAIM != 0
                && graph.neighbors(w).iter().all(|&u| self.flags[u as usize] & AT_MAX != 0);
            if now_in == (f & IN_MIS != 0) {
                continue;
            }
            self.flags[w] = f ^ IN_MIS;
            if now_in {
                self.in_mis += 1;
                self.set_stable(w);
                for &u in graph.neighbors(w) {
                    self.set_stable(u as usize);
                }
            } else {
                self.in_mis -= 1;
                self.enqueue_recheck(w);
                for &u in graph.neighbors(w) {
                    self.enqueue_recheck(u as usize);
                }
                if self.recheck.len() > cap {
                    return false;
                }
            }
        }
        self.members.clear();
        for i in 0..self.recheck.len() {
            let x = self.recheck[i];
            let f = self.flags[x] & !RECHECK;
            let stable = f & IN_MIS != 0
                || graph.neighbors(x).iter().any(|&u| self.flags[u as usize] & IN_MIS != 0);
            self.flags[x] = if stable { f | STABLE } else { f & !STABLE };
            if f & ACTIVE != 0 && stable != (f & STABLE != 0) {
                if stable {
                    self.unstable -= 1;
                } else {
                    self.unstable += 1;
                }
            }
        }
        self.recheck.clear();
        true
    }

    /// Puts `v` into `S_t`.
    fn set_stable(&mut self, v: usize) {
        let f = self.flags[v];
        self.flags[v] = f | STABLE;
        self.unstable -= usize::from(f & (ACTIVE | STABLE) == ACTIVE);
    }
}

/// The class bits of an active node at `level`.
fn class_of<A: SelfStabilizingMis>(algo: &A, level: Level, lmax: Level) -> u8 {
    (u8::from(level == algo.claiming_level(lmax)) * CLAIM) | (u8::from(level == lmax) * AT_MAX)
}

/// Asserts `got` against the full-scan oracle.
fn debug_check_oracle<A: SelfStabilizingMis>(algo: &A, sim: &Simulator<'_, A>, got: &Stability) {
    let (graph, levels, active) = (sim.graph(), sim.states(), sim.active());
    let in_mis = claimed_mis(algo, graph, levels, active);
    let stable = graph
        .nodes()
        .filter(|&v| {
            active[v] && (in_mis[v] || graph.neighbors(v).iter().any(|&u| in_mis[u as usize]))
        })
        .count();
    let want = Stability {
        in_mis: in_mis.iter().filter(|&&m| m).count(),
        stable,
        unstable: sim.active_count() - stable,
        violations: independence_violations(algo, graph, levels, active),
    };
    assert_eq!(
        *got,
        want,
        "stability tracker diverged from the full scan at round {}",
        sim.round()
    );
}
