//! Oracle tests of the incremental stabilization detector
//! (`mis::detector::StabilityTracker`).
//!
//! After every round and every event, the tracker's stabilized flag,
//! violation count, `|I_t|` and `|S_t ∩ active|` must equal the full-scan
//! oracle built from `mis::recovery::{claimed_mis, stabilized_active,
//! independence_violations}` — under every engine, and through faults,
//! churn, Byzantine plans and motion.

use beeping::byzantine::{ByzantineBehavior, ByzantinePlan, Resurrect};
use beeping::churn::{ChurnAction, ChurnPlan};
use beeping::dynamic::{DynamicTopology, MotionSpec};
use beeping::faults::{FaultPlan, FaultTarget};
use beeping::{BeepSignal, BeepingProtocol, Channels, EngineMode, Simulator};
use graphs::generators::classic;
use graphs::generators::geometric::radius_for_expected_degree;
use graphs::motion::MotionModel;
use graphs::{Graph, GraphBuilder};
use mis::detector::StabilityTracker;
use mis::levels::{state_space_bounds, Level};
use mis::recovery::{claimed_mis, independence_violations, stabilized_active};
use mis::resumable::{ResumableConfig, ResumableRun, RunStatus};
use mis::runner::{RunConfig, SelfStabilizingMis};
use mis::{Algorithm1, Algorithm2, LmaxPolicy};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::RngCore;

const ENGINES: [EngineMode; 4] = [
    EngineMode::Scalar,
    EngineMode::Scatter,
    EngineMode::Frontier,
    EngineMode::ParScatter { threads: 2 },
];

/// `(stabilized, violations, |I_t|, |S_t ∩ active|)` by full scan.
fn oracle<A: SelfStabilizingMis>(algo: &A, sim: &Simulator<'_, A>) -> (bool, usize, usize, usize) {
    let (g, levels, active) = (sim.graph(), sim.states(), sim.active());
    let mis = claimed_mis(algo, g, levels, active);
    let stable = g
        .nodes()
        .filter(|&v| active[v] && (mis[v] || g.neighbors(v).iter().any(|&u| mis[u as usize])))
        .count();
    (
        stabilized_active(algo, g, levels, active),
        independence_violations(algo, g, levels, active),
        mis.iter().filter(|&&m| m).count(),
        stable,
    )
}

/// Observes `sim` through `tracker` against the oracle.
fn check<A: SelfStabilizingMis>(
    tracker: &mut StabilityTracker,
    algo: &A,
    sim: &Simulator<'_, A>,
    context: &str,
) -> Result<(), TestCaseError> {
    let s = tracker.observe(algo, sim);
    let want = oracle(algo, sim);
    prop_assert_eq!(
        (s.is_stabilized(), s.violations, s.in_mis, s.stable),
        want,
        "{} at round {}",
        context,
        sim.round()
    );
    prop_assert_eq!(s.stable + s.unstable, sim.active_count());
    Ok(())
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..50).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        })
    })
}

/// One per-round event: `(kind, a, b, raw level)`; see [`apply`].
type Op = (u8, usize, usize, i64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..12, 0usize..64, 0usize..64, -40i64..40), 10..60)
}

/// Applies one event to the simulator. Kinds 0–4 step without an event, so
/// the detector also sees long runs of plain rounds.
fn apply<A: SelfStabilizingMis>(algo: &A, sim: &mut Simulator<'_, A>, op: Op) {
    let n = sim.graph().len();
    let (kind, a, b, raw) = (op.0, op.1 % n, op.2 % n, op.3);
    let level = |v: usize| algo.clamp_raw(raw, algo.policy().lmax(v));
    match kind {
        5 => sim.corrupt_state(a, level(a)),
        6 => sim.corrupt_state(a, algo.claiming_level(algo.policy().lmax(a))),
        7 => {
            sim.node_leave(a).unwrap();
        }
        8 => {
            let neighbors: Vec<usize> = [b, (a + 1) % n].into_iter().filter(|&u| u != a).collect();
            sim.node_join(a, &neighbors, level(a)).unwrap();
        }
        9 if a != b => {
            sim.insert_edge(a, b).unwrap();
        }
        10 if a != b => {
            sim.remove_edge(a, b).unwrap();
        }
        11 => sim.corrupt_all(|v, s| {
            if (v + a) % 3 == 0 {
                *s = level(v);
            }
        }),
        _ => {}
    }
}

fn drive<A: SelfStabilizingMis>(
    g: &Graph,
    algo: &A,
    init: &[i64],
    seed: u64,
    ops: &[Op],
    byzantine: Option<ByzantinePlan<Level>>,
) -> Result<(), TestCaseError> {
    for engine in ENGINES {
        let levels: Vec<Level> =
            g.nodes().map(|v| algo.clamp_raw(init[v], algo.policy().lmax(v))).collect();
        let mut sim = Simulator::new(g, algo.clone(), levels, seed).with_engine(engine);
        if let Some(plan) = &byzantine {
            sim = sim.with_byzantine(plan.clone());
        }
        let mut tracker = StabilityTracker::new();
        let context = format!("{engine:?}");
        check(&mut tracker, algo, &sim, &context)?;
        for &op in ops {
            apply(algo, &mut sim, op);
            check(&mut tracker, algo, &sim, &context)?;
            sim.step();
            check(&mut tracker, algo, &sim, &context)?;
        }
    }
    Ok(())
}

fn byzantine_plan(n: usize, pick: u64) -> ByzantinePlan<Level> {
    let node = pick as usize % n;
    let behavior = match pick % 4 {
        0 => ByzantineBehavior::StuckBeep,
        1 => ByzantineBehavior::StuckSilent,
        2 => ByzantineBehavior::Babbler(0.4),
        _ => ByzantineBehavior::CrashRestart {
            period: 3,
            resurrect: Resurrect::new(|_, round, _| if round % 2 == 0 { 0 } else { 2 }),
        },
    };
    ByzantinePlan::new().with_behavior(node, behavior)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Algorithm 1 under every engine, through faults and churn, with an
    /// optional Byzantine node; `ℓmax` from degree knowledge, so isolated
    /// and low-degree nodes exercise small state spaces.
    #[test]
    fn tracker_matches_full_scan_alg1(
        g in arb_graph(),
        seed in 0u64..1000,
        init in proptest::collection::vec(-40i64..40, 20),
        ops in arb_ops(),
        byz in 0u64..8,
    ) {
        let policy = if seed % 2 == 0 {
            LmaxPolicy::own_degree(&g)
        } else {
            LmaxPolicy::global_delta(&g)
        };
        let algo = Algorithm1::new(&g, policy);
        let plan = (byz < 4).then(|| byzantine_plan(g.len(), byz + seed));
        drive(&g, &algo, &init, seed, &ops, plan)?;
    }

    /// The same for Algorithm 2 (claiming level 0), including the smallest
    /// fixed `ℓmax` so nodes hit the claiming level and `ℓmax` often.
    #[test]
    fn tracker_matches_full_scan_alg2(
        g in arb_graph(),
        seed in 0u64..1000,
        init in proptest::collection::vec(-40i64..40, 20),
        ops in arb_ops(),
        byz in 0u64..8,
    ) {
        let policy = if seed % 2 == 0 {
            LmaxPolicy::two_hop_degree(&g)
        } else {
            LmaxPolicy::fixed(g.len(), 2)
        };
        let algo = Algorithm2::new(&g, policy);
        let plan = (byz < 4).then(|| byzantine_plan(g.len(), byz + seed));
        drive(&g, &algo, &init, seed, &ops, plan)?;
    }

    /// A moving deployment changes the topology every round, so the
    /// tracker rebuilds on almost every observation; node churn composes
    /// with it.
    #[test]
    fn tracker_matches_full_scan_under_motion(
        n in 8usize..40,
        seed in 0u64..1000,
        leave in 0usize..40,
        engine in 0usize..4,
    ) {
        let spec = MotionSpec::new(
            seed,
            radius_for_expected_degree(n, 4.0),
            MotionModel::RandomWaypoint { speed: 0.05, pause: 1 },
        );
        let g = spec.initial_graph(n);
        let algo = Algorithm1::new(&g, LmaxPolicy::own_degree(&g));
        let mut dt = DynamicTopology::new(n, &spec, seed).unwrap();
        let levels = mis::runner::initial_levels(&algo, &RunConfig::new(seed));
        let mut sim = Simulator::new_owned(g, algo.clone(), levels, seed)
            .with_engine(ENGINES[engine]);
        let mut tracker = StabilityTracker::new();
        let leaver = leave % n;
        for round in 0..60u64 {
            if round == 20 {
                sim.node_leave(leaver).unwrap();
            }
            if round == 40 {
                let neighbors = dt.join_neighbors(leaver, sim.active());
                sim.node_join(leaver, &neighbors, 0).unwrap();
            }
            dt.advance(&mut sim);
            check(&mut tracker, &algo, &sim, "motion")?;
            sim.step();
            check(&mut tracker, &algo, &sim, "motion")?;
        }
    }
}

/// Observes `levels` on `g` from scratch and after one no-op re-observation.
fn observe_fresh<A: SelfStabilizingMis>(g: &Graph, algo: &A, levels: Vec<Level>) -> mis::Stability {
    let sim = Simulator::new(g, algo.clone(), levels, 1);
    let mut tracker = StabilityTracker::new();
    let first = tracker.observe(algo, &sim);
    assert_eq!(tracker.observe(algo, &sim), first);
    first
}

/// Algorithm 1 with the claiming level moved up to `ℓmax`: a node at `ℓmax`
/// both claims and never blocks, which is the class Algorithm 1 gives a
/// node with `ℓmax = 0` (no `LmaxPolicy` can express `ℓmax < 2`).
#[derive(Clone)]
struct ClaimAtMax(Algorithm1);

impl BeepingProtocol for ClaimAtMax {
    type State = Level;
    fn channels(&self) -> Channels {
        self.0.channels()
    }
    fn transmit(&self, node: usize, state: &Level, rng: &mut dyn RngCore) -> BeepSignal {
        self.0.transmit(node, state, rng)
    }
    fn receive(
        &self,
        node: usize,
        state: &mut Level,
        sent: BeepSignal,
        heard: BeepSignal,
        rng: &mut dyn RngCore,
    ) {
        self.0.receive(node, state, sent, heard, rng)
    }
}

impl SelfStabilizingMis for ClaimAtMax {
    fn policy(&self) -> &LmaxPolicy {
        self.0.policy()
    }
    fn stabilized(&self, graph: &Graph, levels: &[Level]) -> bool {
        stabilized_active(self, graph, levels, &vec![true; graph.len()])
    }
    fn mis_of(&self, graph: &Graph, levels: &[Level]) -> Vec<bool> {
        claimed_mis(self, graph, levels, &vec![true; graph.len()])
    }
    fn clamp_raw(&self, raw: i64, lmax: Level) -> Level {
        self.0.clamp_raw(raw, lmax)
    }
    fn claiming_level(&self, lmax: Level) -> Level {
        lmax
    }
    fn has_negative_levels(&self) -> bool {
        true
    }
}

#[test]
fn claiming_at_lmax_claims_and_never_blocks() {
    // Every node at ℓmax is in I_t (its neighbors all sit at ℓmax), and
    // every edge is a violation.
    let g = classic::path(3);
    let algo = ClaimAtMax(Algorithm1::new(&g, LmaxPolicy::fixed(3, 3)));
    let s = observe_fresh(&g, &algo, vec![3, 3, 3]);
    assert_eq!((s.in_mis, s.stable, s.violations), (3, 3, 2));
    assert!(s.is_stabilized());
    // Leaving ℓmax flips both class bits at once.
    let mut sim = Simulator::new(&g, algo.clone(), vec![3, 3, 3], 9);
    let mut tracker = StabilityTracker::new();
    tracker.observe(&algo, &sim);
    sim.corrupt_state(1, 1);
    let s = tracker.observe(&algo, &sim);
    assert_eq!((s.in_mis, s.stable, s.violations), (0, 0, 0));
    for _ in 0..30 {
        sim.step();
        let s = tracker.observe(&algo, &sim);
        assert_eq!((s.is_stabilized(), s.violations, s.in_mis, s.stable), oracle(&algo, &sim));
    }
}

#[test]
fn isolated_node_is_stable_only_when_claiming() {
    let g = Graph::empty(1);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(1, 3));
    assert!(observe_fresh(&g, &algo, vec![-3]).is_stabilized());
    let s = observe_fresh(&g, &algo, vec![3]);
    assert!(!s.is_stabilized());
    assert_eq!((s.in_mis, s.unstable), (0, 1));
}

#[test]
fn all_inactive_network_is_vacuously_stable() {
    let g = classic::cycle(4);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(4, 2));
    let mut sim = Simulator::new(&g, algo.clone(), vec![1, 1, 1, 1], 3);
    let mut tracker = StabilityTracker::new();
    assert!(!tracker.observe(&algo, &sim).is_stabilized());
    for v in 0..4 {
        sim.node_leave(v).unwrap();
    }
    let s = tracker.observe(&algo, &sim);
    assert!(s.is_stabilized());
    assert_eq!((s.in_mis, s.stable, s.unstable, s.violations), (0, 0, 0, 0));
}

#[test]
fn departure_of_an_mis_member_exposes_its_neighbors() {
    let g = classic::path(3);
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(3, 4));
    let mut sim = Simulator::new(&g, algo.clone(), vec![4, -4, 4], 5);
    let mut tracker = StabilityTracker::new();
    let s = tracker.observe(&algo, &sim);
    assert!(s.is_stabilized());
    assert_eq!((s.in_mis, s.stable), (1, 3));
    sim.node_leave(1).unwrap();
    let s = tracker.observe(&algo, &sim);
    assert!(!s.is_stabilized());
    assert_eq!((s.in_mis, s.stable, s.unstable), (0, 0, 2));
}

#[test]
fn join_at_the_claiming_level_enters_the_mis() {
    let g = classic::path(3);
    let algo = Algorithm2::new(&g, LmaxPolicy::fixed(3, 4));
    let mut sim = Simulator::new(&g, algo.clone(), vec![4, 4, 4], 5);
    let mut tracker = StabilityTracker::new();
    sim.node_leave(1).unwrap();
    let s = tracker.observe(&algo, &sim);
    assert_eq!((s.in_mis, s.unstable), (0, 2));
    sim.node_join(1, &[0, 2], 0).unwrap();
    let s = tracker.observe(&algo, &sim);
    assert!(s.is_stabilized());
    assert_eq!((s.in_mis, s.stable), (1, 3));
}

#[test]
fn restore_rewinds_the_tracker() {
    // Rewinding to an earlier checkpoint changes levels and topology in one
    // go; the restore bumps the topology version, so the tracker rebuilds.
    let g = classic::cycle(12);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let levels = mis::runner::initial_levels(&algo, &RunConfig::new(7));
    let mut sim = Simulator::new(&g, algo.clone(), levels, 7);
    let mut tracker = StabilityTracker::new();
    let cp = sim.checkpoint();
    let before = tracker.observe(&algo, &sim);
    sim.insert_edge(0, 6).unwrap();
    for _ in 0..200 {
        sim.step();
    }
    tracker.observe(&algo, &sim);
    sim.restore(&cp).unwrap();
    assert_eq!(tracker.observe(&algo, &sim), before);
}

#[test]
fn checkpoint_resume_tick_matches_the_straight_run() {
    // A resumed run starts with a fresh tracker on the checkpointed
    // (churned) topology; its stop decisions must match the straight run.
    let g = graphs::generators::random::gnp(40, 0.1, 3);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let config = || {
        ResumableConfig::new(3)
            .with_faults(FaultPlan::new().with_fault(30, FaultTarget::RandomFraction(0.3)))
            .with_churn(
                ChurnPlan::new()
                    .with_event(20, ChurnAction::NodeLeave(4))
                    .with_event(45, ChurnAction::NodeJoin(4, vec![0, 9])),
            )
    };
    let mut straight = ResumableRun::new(&g, &algo, config()).unwrap();
    assert_eq!(straight.run_to_completion(), RunStatus::Stabilized);
    let reference = straight.outcome().unwrap();
    for kill_at in [0u64, 1, 20, 21, 30, 46, reference.rounds_run] {
        let mut first = ResumableRun::new(&g, &algo, config()).unwrap();
        while first.round() < kill_at && first.tick() == RunStatus::Running {}
        let cp = first.checkpoint();
        let mut second = ResumableRun::resume(&algo, config(), &cp).unwrap();
        assert_eq!(second.run_to_completion(), RunStatus::Stabilized, "kill at {kill_at}");
        let resumed = second.outcome().unwrap();
        assert_eq!(resumed.rounds_run, reference.rounds_run, "kill at {kill_at}");
        assert_eq!(resumed.levels, reference.levels, "kill at {kill_at}");
        assert_eq!(resumed.mis, reference.mis, "kill at {kill_at}");
    }
}

#[test]
fn state_space_corners_are_classified_like_the_oracle() {
    // Every level of a small state space, on a star, for both algorithms.
    let g = classic::star(4);
    let alg1 = Algorithm1::new(&g, LmaxPolicy::fixed(4, 2));
    let alg2 = Algorithm2::new(&g, LmaxPolicy::fixed(4, 2));
    let (low1, high) = state_space_bounds(2, true);
    let (low2, _) = state_space_bounds(2, false);
    for hub in low1..=high {
        for leaf in low1..=high {
            let levels: Vec<Level> =
                [hub, leaf, 2, 2].iter().map(|&l| Level::try_from(l).unwrap()).collect();
            let sim = Simulator::new(&g, alg1.clone(), levels.clone(), 0);
            let s = StabilityTracker::new().observe(&alg1, &sim);
            assert_eq!((s.is_stabilized(), s.violations, s.in_mis, s.stable), oracle(&alg1, &sim));
            if hub >= low2 && leaf >= low2 {
                let sim = Simulator::new(&g, alg2.clone(), levels, 0);
                let s = StabilityTracker::new().observe(&alg2, &sim);
                assert_eq!(
                    (s.is_stabilized(), s.violations, s.in_mis, s.stable),
                    oracle(&alg2, &sim)
                );
            }
        }
    }
}

#[test]
fn mass_corruption_falls_back_to_a_recount() {
    // Corrupting most nodes at once changes far more classes than the
    // repair queue takes, so the observation recounts from the classes;
    // the plain rounds after it go back to local repair.
    let g = graphs::generators::random::gnp(400, 0.02, 5);
    let algo = Algorithm1::new(&g, LmaxPolicy::global_delta(&g));
    let levels = mis::runner::initial_levels(&algo, &RunConfig::new(5));
    let mut sim = Simulator::new(&g, algo.clone(), levels, 5);
    let mut tracker = StabilityTracker::new();
    let mut stabilized = false;
    for round in 0..3000 {
        if round % 500 == 499 {
            let lmax = algo.policy().lmax(0);
            sim.corrupt_all(|v, s| *s = if v % 2 == 0 { -lmax } else { 1 });
        }
        sim.step();
        let s = tracker.observe(&algo, &sim);
        assert_eq!((s.is_stabilized(), s.violations, s.in_mis, s.stable), oracle(&algo, &sim));
        stabilized |= s.is_stabilized();
    }
    assert!(stabilized, "the run should stabilize between corruptions");
}

#[test]
fn many_mis_departures_fall_back_to_a_recount() {
    // Ten stable stars whose hubs all stop claiming at once: few class
    // changes, but every hub's closed neighborhood needs an S_t recheck,
    // which overflows that queue and takes the recount path.
    let mut b = GraphBuilder::new(60);
    for hub in (0..60).step_by(6) {
        for leaf in hub + 1..hub + 6 {
            b.add_edge(hub, leaf).unwrap();
        }
    }
    let g = b.build();
    let algo = Algorithm1::new(&g, LmaxPolicy::fixed(60, 4));
    let levels: Vec<Level> = g.nodes().map(|v| if v % 6 == 0 { -4 } else { 4 }).collect();
    let mut sim = Simulator::new(&g, algo.clone(), levels, 2);
    let mut tracker = StabilityTracker::new();
    assert!(tracker.observe(&algo, &sim).is_stabilized());
    for hub in (0..60).step_by(6) {
        sim.corrupt_state(hub, 1);
    }
    let s = tracker.observe(&algo, &sim);
    assert_eq!((s.in_mis, s.stable, s.unstable), (0, 0, 60));
    assert_eq!((s.is_stabilized(), s.violations, s.in_mis, s.stable), oracle(&algo, &sim));
}
