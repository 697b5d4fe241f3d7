//! Round execution of a [`BeepingProtocol`] over a graph.

use std::borrow::Cow;

use graphs::{Graph, NodeId};
use rand::Rng;
use rand_pcg::Pcg64Mcg;

use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
use crate::channel::{ChannelFault, ChannelState, JammerKind};
use crate::churn::ChurnError;
#[cfg(debug_assertions)]
use crate::protocol::SettledRound;
use crate::protocol::{BeepSignal, BeepingProtocol};
use crate::rng;
use crate::trace::RoundReport;
use telemetry::Telemetry;

pub use crate::protocol::Channels as SimulatorChannels;

/// Purpose tag of the channel-noise RNG stream (see [`rng::aux_rng`]); kept
/// disjoint from every node stream and from the fault/init streams used by
/// downstream crates.
const CHANNEL_RNG_PURPOSE: u64 = 0xC4A7_7E57;

/// Purpose tag of the Byzantine-behavior RNG stream (babbler coins and
/// crash-restart boot states); disjoint from every other stream so a plan
/// of purely deterministic behaviors — or an empty plan — never perturbs
/// the rest of the execution.
const BYZ_RNG_PURPOSE: u64 = 0xB42A_17E5;

/// Listening capability of a transmitting node.
///
/// The paper's model is **full duplex** ("beeping model with collision
/// detection"): a beeping node still hears its neighbors. The weaker
/// half-duplex variant from the broader beeping literature — where
/// transmitting drowns out reception — is provided for model ablations:
/// Algorithm 1's lone-beep detection fundamentally requires full duplex,
/// and experiment `ABL-HD` demonstrates the failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplexMode {
    /// A beeping node hears its neighbors (the paper's model).
    #[default]
    Full,
    /// A beeping node hears nothing that round.
    Half,
}

/// Selects the delivery kernel used by [`Simulator::step`].
///
/// Both engines execute the *same model* and are bit-identical per seed:
/// they call `transmit`/`receive` in the same order, draw from the same RNG
/// streams in the same order, and produce identical `sent`/`heard` vectors
/// and [`RoundReport`]s. The differential test suite
/// (`tests/engine_differential.rs`) pins this equivalence across graph
/// families, channel counts, duplex modes and composed fault plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Reference kernel: every listener gathers over all its neighbors —
    /// O(m) work per round regardless of activity.
    Scalar,
    /// Fast kernel: the round's beepers *scatter* their signals into
    /// per-channel word-packed "heard" bitsets — O(Σ deg(beeper)) work,
    /// which near stabilization (where only the MIS nodes beep) is far
    /// below O(m). Falls back to the scalar gather whenever per-edge beep
    /// loss is in effect this round, because loss draws one coin per
    /// (listener, beeping neighbor) pair in listener order and that order
    /// must be preserved exactly.
    #[default]
    Scatter,
    /// Event-driven kernel: only the *frontier* — nodes whose state or
    /// incident signals changed — executes each round; the settled
    /// complement is skipped under the draws-when-settled contract
    /// ([`crate::protocol::SettledRound`]), with its pinned signals reused
    /// from persistent word-packed bitsets and its RNG streams ticked
    /// lazily by jump-ahead. Post-stabilization and localized fault/churn
    /// rounds cost O(Σ deg(frontier)) instead of O(n + m); a frontier
    /// denser than [`frontier_fallback_threshold`] falls back to one full
    /// scatter sweep that also rebuilds the settled set. On an unreliable
    /// channel or under a Byzantine plan the engine runs the phased
    /// scatter path (channel noise draws per-listener coins that skipping
    /// cannot reproduce). Bit-identical to the other engines per seed.
    Frontier,
    /// Parallel scatter kernel: the node range is partitioned into
    /// word-aligned, work-balanced worker ranges (`graphs::ShardPlan`) and
    /// `threads` scoped worker threads run the round in two phases —
    /// transmit + scatter into *thread-local* per-channel word accumulators,
    /// then a fixed-shard-order OR-merge into the shared bitsets fused with
    /// gather + receive. Per-node RNG streams are independent and the
    /// per-channel OR is commutative, so same-seed runs are bit-identical
    /// to every other engine at any thread count. Falls back to the phased
    /// scatter path whenever the channel is unreliable or a Byzantine plan
    /// is installed: those draw from *shared* noise/adversary streams in
    /// strict node order, which parallel execution cannot preserve.
    ParScatter {
        /// Worker-thread count; clamped to at least 1, and to the number
        /// of word-aligned shards the graph actually yields.
        threads: usize,
    },
}

/// Deterministic work counters accumulated by every engine; see
/// [`Simulator::work`].
///
/// These count *model work*, not wall clock: for a fixed `(graph, protocol,
/// seed, engine, fault plan)` they are bit-reproducible across machines and
/// runs, which makes them the right substrate for performance-regression
/// tests — a kernel that does asymptotically more work is caught even on a
/// noisy shared box where timing is meaningless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Protocol executions: one per node that ran a live round — every
    /// active node on the full-sweep engines, only the executed
    /// (dirty ∪ woken) set on the event-driven frontier engine.
    pub node_execs: u64,
    /// Adjacency entries traversed by the delivery kernel: `deg(listener)`
    /// per gathering listener on the scalar engine, `deg(beeper)` per
    /// beeping channel on the scatter-family engines.
    pub edge_visits: u64,
}

/// Builds the word-packed all-active participation bitset for `n` nodes:
/// bits `0..n` set, tail bits of the final word clear.
fn full_active_bits(n: usize) -> Vec<u64> {
    let words = n.div_ceil(64);
    let mut bits = vec![u64::MAX; words];
    if !n.is_multiple_of(64) {
        if let Some(last) = bits.last_mut() {
            *last = (1u64 << (n % 64)) - 1;
        }
    }
    bits
}

/// Frontier density at which [`EngineMode::Frontier`] abandons the sparse
/// round and runs one full scatter sweep instead: a frontier *strictly
/// larger* than this falls back. Sized so the sparse path's per-node
/// bookkeeping can never lose to the flat sweep by more than a small
/// constant factor.
pub fn frontier_fallback_threshold(n: usize) -> usize {
    (n / 8).max(16)
}

/// A synchronous-round simulator of the full-duplex beeping model.
///
/// Each call to [`Simulator::step`] executes one round:
///
/// 1. every node draws its transmission from
///    [`BeepingProtocol::transmit`] using its private random stream;
/// 2. the network delivers, to each node, the OR over its *neighbors'*
///    transmissions per channel (collision-detection semantics: "≥ 1 beep",
///    nothing more);
/// 3. every node updates its state via [`BeepingProtocol::receive`].
///
/// The simulator is deterministic for a fixed `(graph, protocol, initial
/// states, master seed, channel model, churn schedule)`.
///
/// # Unreliable-network extensions
///
/// Three adversary axes beyond the paper's model compose with everything
/// else:
///
/// - an unreliable channel ([`Simulator::with_channel`]): beep loss,
///   spurious beeps, burst-noise windows and jammer nodes, applied between
///   the OR-aggregation and `receive`. Channel randomness comes from a
///   dedicated stream, so a [`ChannelFault::reliable`] configuration
///   reproduces noise-free executions bit-for-bit;
/// - topology churn ([`Simulator::insert_edge`], [`Simulator::remove_edge`],
///   [`Simulator::node_leave`], [`Simulator::node_join`]): the graph view is
///   copy-on-write, so the borrowed input graph is cloned on the first
///   mutation and untouched otherwise. A departed node stays allocated but
///   *inactive* — silent, deaf, state frozen — until it rejoins;
/// - Byzantine nodes ([`Simulator::with_byzantine`]): per-node permanent
///   behavior overrides — stuck/babbling radios, channel-2 liars and
///   crash-restart reboots — applied after the jammer overrides in the
///   transmit phase (a Byzantine radio wins over a jammed one). Behavior
///   randomness lives on its own stream; an empty plan draws nothing and
///   reproduces the honest execution bit-for-bit.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Simulator<'g, P: BeepingProtocol> {
    graph: Cow<'g, Graph>,
    protocol: P,
    states: Vec<P::State>,
    rngs: Vec<Pcg64Mcg>,
    round: u64,
    sent: Vec<BeepSignal>,
    heard: Vec<BeepSignal>,
    duplex: DuplexMode,
    channel: ChannelFault,
    channel_state: ChannelState,
    channel_rng: Pcg64Mcg,
    byzantine: ByzantinePlan<P::State>,
    /// Dense per-node lookup derived from `byzantine` (last assignment per
    /// node wins), rebuilt by [`Simulator::set_byzantine`].
    byz: Vec<Option<ByzantineBehavior<P::State>>>,
    byz_rng: Pcg64Mcg,
    active: Vec<bool>,
    /// Word-packed mirror of `active` plus the count of departed nodes,
    /// maintained in lockstep by churn and restore. Makes the fast paths'
    /// all-active check O(1) instead of an O(n) scan, and gives the
    /// parallel kernel a compact shared participation bitset.
    active_bits: Vec<u64>,
    inactive: usize,
    engine: EngineMode,
    /// Scatter-kernel scratch: word-packed per-listener "heard" and
    /// per-beeper "sent" bitsets, one per channel, rebuilt every round
    /// (never part of a checkpoint).
    scatter_heard1: Vec<u64>,
    scatter_heard2: Vec<u64>,
    scatter_sent1: Vec<u64>,
    scatter_sent2: Vec<u64>,
    hook: InvariantHook<P::State>,
    /// Frontier-kernel bookkeeping (dirty set, settled flags, lazy RNG
    /// accounting, persistent signal bitsets and running report totals).
    /// Purely derived from the execution: never part of a checkpoint —
    /// [`Simulator::restore`] resets it and the next frontier round
    /// rebuilds it with a full sweep.
    frontier: FrontierState,
    /// Parallel-kernel bookkeeping (worker ranges and thread-local word
    /// accumulators), lazily built on the first [`EngineMode::ParScatter`]
    /// fast round and rebuilt when the topology or thread count changes.
    /// Purely derived scratch: never part of a checkpoint.
    par: Option<crate::par::ParPlan>,
    /// Deterministic work counters (protocol executions and adjacency
    /// visits); see [`Simulator::work`]. Pure accounting — never consulted
    /// for control flow, identical for a fixed execution regardless of
    /// telemetry, hooks or wall clock.
    work: WorkCounters,
    /// Bumped by every edge or participation mutation and by
    /// [`Simulator::restore`]; see [`Simulator::topology_version`].
    topology_version: u64,
    /// Observational only: phase timers and engine counters. Never consulted
    /// for control flow and never draws randomness, so a disabled handle
    /// (the default) and an enabled one produce bit-identical executions —
    /// pinned by the telemetry proptests in `tests/engine_differential.rs`.
    telemetry: Telemetry,
}

/// Bookkeeping of the frontier kernel; see [`EngineMode::Frontier`].
///
/// Invariants while `synced` holds (all of them re-established by a full
/// sweep, and conservatively repairable — executing a settled node is
/// harmless because its round is a draw-free fixpoint per the
/// draws-when-settled contract):
///
/// - every node is either *settled* (skipped; `sent[v]` pinned, RNG ticked
///   `rate[v]` outputs per round when materialized) or queued in `dirty`
///   for live execution next round;
/// - `rngs[v]` reflects all draws through round `last_exec[v]`; for
///   non-settled nodes `last_exec[v]` is the current round;
/// - `sent1`/`sent2` are word-packed per-channel views of the `sent`
///   vector, and the six `total_*` fields equal the
///   [`RoundReport::from_signals`] counters over the current
///   `sent`/`heard` vectors.
#[derive(Debug, Default)]
struct FrontierState {
    /// Bookkeeping valid? `false` forces a full rebuild sweep.
    synced: bool,
    /// Nodes queued for live execution next round (no duplicates; guarded
    /// by `queued`).
    dirty: Vec<NodeId>,
    /// `queued[v]` ⇔ `v ∈ dirty`.
    queued: Vec<bool>,
    /// Settled nodes — skipped under the draws-when-settled contract.
    settled: Vec<bool>,
    /// Generator outputs a settled node's skipped round consumes.
    rate: Vec<u64>,
    /// Round through which `rngs[v]` is materialized.
    last_exec: Vec<u64>,
    /// Persistent word-packed per-channel transmissions (bit `v` set ⇔
    /// `sent[v]` beeps on the channel); patched in place as signals change.
    sent1: Vec<u64>,
    sent2: Vec<u64>,
    /// Running `RoundReport` counters over the persistent signal vectors.
    total_beeps1: usize,
    total_beeps2: usize,
    total_hearers1: usize,
    total_hearers2: usize,
    total_lone1: usize,
    total_lone2: usize,
    /// Scratch lists reused across sparse rounds.
    exec: Vec<NodeId>,
    changed: Vec<NodeId>,
    listeners: Vec<NodeId>,
    listener_mark: Vec<bool>,
    wake: Vec<NodeId>,
}

impl FrontierState {
    /// Sizes the bookkeeping for an `n`-node network (idempotent).
    fn ensure_init(&mut self, n: usize) {
        if self.queued.len() == n {
            return;
        }
        let words = n.div_ceil(64);
        self.synced = false;
        self.dirty = Vec::new();
        self.queued = vec![false; n];
        self.settled = vec![false; n];
        self.rate = vec![0; n];
        self.last_exec = vec![0; n];
        self.sent1 = vec![0; words];
        self.sent2 = vec![0; words];
        self.listener_mark = vec![false; n];
    }

    /// Queues `v` for live execution next round (deduplicated).
    fn push_dirty(&mut self, v: NodeId) {
        if !self.queued[v] {
            self.queued[v] = true;
            self.dirty.push(v);
        }
    }

    /// Materializes `v`'s generator through `target`: ticks the skipped
    /// rounds' draws in bulk via jump-ahead.
    fn materialize(&mut self, rng: &mut Pcg64Mcg, v: NodeId, target: u64) {
        let from = self.last_exec[v];
        if from < target {
            if self.rate[v] > 0 {
                rng::advance_steps(rng, u128::from(target - from) * u128::from(self.rate[v]));
            }
            self.last_exec[v] = target;
        }
    }

    /// The running totals as a report for round `round`.
    fn report(&self, round: u64) -> RoundReport {
        RoundReport {
            round,
            beeps_channel1: self.total_beeps1,
            beeps_channel2: self.total_beeps2,
            hearers_channel1: self.total_hearers1,
            hearers_channel2: self.total_hearers2,
            lone_beepers: self.total_lone1,
            lone_beepers_channel2: self.total_lone2,
        }
    }
}

/// Debug-build enforcement of the draws-when-settled contract at the
/// moment a node settles: replays `transmit` on a probe generator and
/// checks the pinned signal, the declared draw count (against the
/// jump-ahead the engine will use) and that `receive` on the settled
/// `(sent, heard)` pair is a draw-free state fixpoint.
#[cfg(debug_assertions)]
fn debug_check_settled_contract<P: BeepingProtocol>(
    protocol: &P,
    v: NodeId,
    state: &P::State,
    rng: &Pcg64Mcg,
    sr: SettledRound,
    heard: BeepSignal,
) {
    let mut probe = rng.clone();
    let signal = protocol.transmit(v, state, &mut probe);
    assert_eq!(signal, sr.signal, "settled_round pinned the wrong signal for node {v}");
    let mut jumped = rng.clone();
    rng::advance_steps(&mut jumped, u128::from(sr.draws));
    assert_eq!(
        probe, jumped,
        "settled_round declared {} draws but transmit consumed differently (node {v})",
        sr.draws
    );
    let mut replayed = state.clone();
    let before = probe.clone();
    protocol.receive(v, &mut replayed, signal, heard, &mut probe);
    assert_eq!(probe, before, "settled receive drew randomness (node {v})");
    assert_eq!(
        format!("{replayed:?}"),
        format!("{state:?}"),
        "settled receive changed state (node {v})"
    );
}

/// Signature of a per-round observer: graph, 1-based round, states.
type HookFn<S> = dyn FnMut(&Graph, u64, &[S]);

/// The per-round observer slot of a [`Simulator`]; wraps the boxed closure
/// so the simulator can keep deriving [`Debug`].
struct InvariantHook<S>(Option<Box<HookFn<S>>>);

impl<S> std::fmt::Debug for InvariantHook<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "InvariantHook(installed)"
        } else {
            "InvariantHook(none)"
        })
    }
}

impl<'g, P: BeepingProtocol> Simulator<'g, P> {
    /// Creates a simulator over `graph` running `protocol` from
    /// `initial_states`, with all node randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_states.len() != graph.len()`.
    pub fn new(
        graph: &'g Graph,
        protocol: P,
        initial_states: Vec<P::State>,
        seed: u64,
    ) -> Simulator<'g, P> {
        Simulator::from_graph(Cow::Borrowed(graph), protocol, initial_states, seed)
    }

    /// Like [`Simulator::new`] but takes ownership of the graph, producing
    /// a `'static` simulator that can be stored, moved across threads or
    /// rebuilt from a durable snapshot without tying it to a borrowed
    /// topology. Behavior is otherwise identical — the owned graph is the
    /// initial copy-on-write state, exactly as if churn had already forced
    /// a private copy.
    ///
    /// # Panics
    ///
    /// Panics if `initial_states.len() != graph.len()`.
    pub fn new_owned(
        graph: Graph,
        protocol: P,
        initial_states: Vec<P::State>,
        seed: u64,
    ) -> Simulator<'static, P> {
        Simulator::from_graph(Cow::Owned(graph), protocol, initial_states, seed)
    }

    /// The one constructor behind [`Simulator::new`] and
    /// [`Simulator::new_owned`].
    fn from_graph(
        graph: Cow<'g, Graph>,
        protocol: P,
        initial_states: Vec<P::State>,
        seed: u64,
    ) -> Simulator<'g, P> {
        assert_eq!(initial_states.len(), graph.len(), "one initial state per node is required");
        let n = graph.len();
        Simulator {
            graph,
            protocol,
            states: initial_states,
            rngs: rng::node_rngs(seed, n),
            round: 0,
            sent: vec![BeepSignal::silent(); n],
            heard: vec![BeepSignal::silent(); n],
            duplex: DuplexMode::Full,
            channel: ChannelFault::reliable(),
            channel_state: ChannelState::default(),
            channel_rng: rng::aux_rng(seed, CHANNEL_RNG_PURPOSE),
            byzantine: ByzantinePlan::new(),
            byz: vec![None; n],
            byz_rng: rng::aux_rng(seed, BYZ_RNG_PURPOSE),
            active: vec![true; n],
            active_bits: full_active_bits(n),
            inactive: 0,
            engine: EngineMode::default(),
            scatter_heard1: Vec::new(),
            scatter_heard2: Vec::new(),
            scatter_sent1: Vec::new(),
            scatter_sent2: Vec::new(),
            hook: InvariantHook(None),
            frontier: FrontierState::default(),
            par: None,
            work: WorkCounters::default(),
            topology_version: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (builder style); see
    /// [`Simulator::set_telemetry`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Simulator<'g, P> {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a telemetry handle, replacing any previous one. The
    /// simulator records per-phase wall-clock timers (transmit / delivery /
    /// receive on the phased path, one fused span on the no-fault fast
    /// path) and per-engine round counters into it. Like the invariant
    /// hook, telemetry observes only: it draws no randomness and never
    /// alters a round's result, so attaching a handle never changes an
    /// execution. Round *events* are emitted by the runner layer
    /// (`mis::runner`), which knows the protocol-level observables.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Selects the delivery kernel (builder style); the default is
    /// [`EngineMode::Scatter`]. Both kernels are bit-identical per seed —
    /// [`EngineMode::Scalar`] is kept as the executable reference.
    pub fn with_engine(mut self, engine: EngineMode) -> Simulator<'g, P> {
        self.engine = engine;
        self
    }

    /// Switches the delivery kernel mid-run. Safe at any round boundary:
    /// the kernels share all RNG streams and state layouts. Leaving (or
    /// re-entering) the frontier kernel materializes any lazily-accounted
    /// RNG positions and discards the frontier bookkeeping — the next
    /// frontier round rebuilds it with one full sweep.
    pub fn set_engine(&mut self, engine: EngineMode) {
        self.frontier_desync();
        self.engine = engine;
    }

    /// The active delivery kernel.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Installs a per-round invariant hook (builder style); see
    /// [`Simulator::set_invariant_hook`].
    pub fn with_invariant_hook<F>(mut self, hook: F) -> Simulator<'g, P>
    where
        F: FnMut(&Graph, u64, &[P::State]) + 'static,
    {
        self.set_invariant_hook(hook);
        self
    }

    /// Installs a per-round invariant hook, replacing any previous one. The
    /// hook runs at the end of every [`Simulator::step`] with the current
    /// (possibly churned) topology, the 1-based round just executed and the
    /// post-update states; it is expected to panic on a violated invariant.
    /// Runners install a checker here in debug builds (e.g.
    /// `mis::invariant::InvariantChecker`); the hook draws no randomness
    /// and observes state only, so installing one never changes an
    /// execution.
    pub fn set_invariant_hook<F>(&mut self, hook: F)
    where
        F: FnMut(&Graph, u64, &[P::State]) + 'static,
    {
        self.hook = InvariantHook(Some(Box::new(hook)));
    }

    /// Removes the invariant hook, if any.
    pub fn clear_invariant_hook(&mut self) {
        self.hook = InvariantHook(None);
    }

    /// Switches to the given duplex mode (builder style); the default is
    /// [`DuplexMode::Full`], the paper's model.
    pub fn with_duplex(mut self, duplex: DuplexMode) -> Simulator<'g, P> {
        self.duplex = duplex;
        self
    }

    /// Installs an unreliable-channel model (builder style); the default is
    /// [`ChannelFault::reliable`], the paper's perfect channel.
    ///
    /// # Panics
    ///
    /// Panics if a declared jammer node is out of range.
    pub fn with_channel(mut self, channel: ChannelFault) -> Simulator<'g, P> {
        self.set_channel(channel);
        self
    }

    /// Replaces the channel model mid-run (e.g. to start or stop a noise
    /// regime at an adversary-chosen round). The burst-window position is
    /// reset to the good state.
    ///
    /// # Panics
    ///
    /// Panics if a declared jammer node is out of range.
    pub fn set_channel(&mut self, channel: ChannelFault) {
        let n = self.graph.len();
        for &(v, _) in channel.jammers() {
            assert!(v < n, "jammer node {v} out of range for n={n}");
        }
        // Noise regimes (and their jammer windows) are global events for
        // the frontier kernel: every listener's observation may change, so
        // the settled set is discarded wholesale rather than seeded.
        self.frontier_desync();
        self.channel = channel;
        self.channel_state = ChannelState::default();
    }

    /// Installs a Byzantine plan (builder style); the default is the empty
    /// plan, the honest network.
    ///
    /// # Panics
    ///
    /// Panics if [`ByzantinePlan::validate`] rejects the plan for this
    /// network and protocol.
    pub fn with_byzantine(mut self, plan: ByzantinePlan<P::State>) -> Simulator<'g, P> {
        self.set_byzantine(plan);
        self
    }

    /// Replaces the Byzantine plan mid-run (e.g. to break a node at an
    /// adversary-chosen round). The Byzantine RNG stream keeps its position:
    /// swapping plans never rewinds randomness.
    ///
    /// # Panics
    ///
    /// Panics if [`ByzantinePlan::validate`] rejects the plan for this
    /// network and protocol.
    pub fn set_byzantine(&mut self, plan: ByzantinePlan<P::State>) {
        let n = self.graph.len();
        if let Err(e) = plan.validate(n, self.protocol.channels()) {
            panic!("invalid byzantine plan: {e}");
        }
        // A Byzantine plan swap (including a crash-restart schedule being
        // installed or cleared) reroutes the shared Byzantine stream, which
        // the frontier kernel cannot account per node — discard and rebuild.
        self.frontier_desync();
        let mut byz: Vec<Option<ByzantineBehavior<P::State>>> = vec![None; n];
        for (v, behavior) in plan.overrides() {
            byz[*v] = Some(behavior.clone());
        }
        self.byz = byz;
        self.byzantine = plan;
    }

    /// The installed Byzantine plan.
    pub fn byzantine(&self) -> &ByzantinePlan<P::State> {
        &self.byzantine
    }

    /// The active duplex mode.
    pub fn duplex(&self) -> DuplexMode {
        self.duplex
    }

    /// The installed channel model.
    pub fn channel(&self) -> &ChannelFault {
        &self.channel
    }

    /// The channel model's per-execution state (the burst-window position).
    pub fn channel_state(&self) -> &ChannelState {
        &self.channel_state
    }

    /// The graph being simulated (the current, possibly churned, topology).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The protocol (the ROM).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// A counter that changes whenever the topology or the participation
    /// bitmap may have changed: [`Simulator::insert_edge`],
    /// [`Simulator::remove_edge`] and [`Simulator::apply_edge_diff`] bump it
    /// when an edge actually flips, [`Simulator::node_leave`],
    /// [`Simulator::node_join`] and [`Simulator::restore`] always. Rounds and
    /// state corruptions leave it alone. Observers that cache per-node
    /// neighborhood data (such as `mis::detector::StabilityTracker`) rebuild
    /// when it differs from the value they last saw.
    pub fn topology_version(&self) -> u64 {
        self.topology_version
    }

    /// Current node states (the RAM), indexed by node id.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The state of a single node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn state(&self, node: NodeId) -> &P::State {
        &self.states[node]
    }

    /// Overwrites the state of `node` — the transient-fault ("RAM
    /// corruption") entry point. The protocol logic (ROM) is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn corrupt_state(&mut self, node: NodeId, state: P::State) {
        // Frontier seeding: a corrupted node's next transmission may
        // change, so it re-executes live; its neighbors are woken lazily
        // if and when its signal actually changes.
        self.frontier_unsettle(node);
        self.states[node] = state;
    }

    /// Applies `f` to every node state — bulk fault injection or
    /// adversarial re-initialization mid-run.
    pub fn corrupt_all<F: FnMut(NodeId, &mut P::State)>(&mut self, mut f: F) {
        self.frontier_desync();
        for (v, s) in self.states.iter_mut().enumerate() {
            f(v, s);
        }
    }

    /// Topology churn: inserts the undirected edge `{u, v}` (copy-on-write;
    /// the borrowed input graph is never modified). Returns `true` if the
    /// edge was new.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if an endpoint is `>= n`,
    /// [`ChurnError::SelfEdge`] if `u == v`; the topology is unchanged on
    /// error.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, ChurnError> {
        self.check_churn_edge(u, v)?;
        match self.graph.to_mut().insert_edge(u, v) {
            Ok(inserted) => {
                if inserted {
                    // Frontier seeding: only the endpoints' observations
                    // can change — their next round runs live.
                    self.frontier_unsettle(u);
                    self.frontier_unsettle(v);
                    self.par = None; // degrees changed: replan worker ranges
                    self.topology_version += 1;
                }
                Ok(inserted)
            }
            // Both graph-level failure modes are pre-checked above; map
            // defensively rather than unwrap so a future GraphError variant
            // cannot reintroduce a panic path.
            Err(_) => Err(ChurnError::SelfEdge(u)),
        }
    }

    /// Topology churn: removes the undirected edge `{u, v}`; returns `true`
    /// if it was present.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if an endpoint is `>= n`; the
    /// topology is unchanged on error.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, ChurnError> {
        self.check_churn_edge(u, v)?;
        let removed = self.graph.to_mut().remove_edge(u, v);
        if removed {
            self.frontier_unsettle(u);
            self.frontier_unsettle(v);
            self.par = None; // degrees changed: replan worker ranges
            self.topology_version += 1;
        }
        Ok(removed)
    }

    /// Topology churn, batched: removes `removed` then inserts `added` in a
    /// single `O(n + m + k log k)` CSR rebuild instead of `k` per-edge
    /// `O(n + m)` splices — the entry point for motion-driven topology
    /// diffs ([`crate::dynamic`]), where dozens of edges flip per round.
    /// Returns `(inserted, removed)` — edges whose membership actually
    /// changed; already-present insertions and absent removals are skipped,
    /// matching [`Simulator::insert_edge`] / [`Simulator::remove_edge`].
    ///
    /// Edge updates never touch participation or signal state: `active`,
    /// `sent` and `heard` are exactly as before the call, for every node —
    /// only `node_leave`/`node_join` may change who beeps.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] / [`ChurnError::SelfEdge`] if any
    /// pair in either list is invalid; the topology is unchanged on error.
    pub fn apply_edge_diff(
        &mut self,
        added: &[(NodeId, NodeId)],
        removed: &[(NodeId, NodeId)],
    ) -> Result<(usize, usize), ChurnError> {
        for &(u, v) in added.iter().chain(removed) {
            self.check_churn_edge(u, v)?;
        }
        match self.graph.to_mut().apply_edge_diff(added, removed) {
            Ok(counts) => {
                // Frontier seeding for motion diffs: every listed endpoint
                // re-executes next round (conservative for already-present
                // insertions/absent removals — re-executing a settled node
                // is a draw-free no-op per the contract).
                for &(u, v) in added.iter().chain(removed) {
                    self.frontier_unsettle(u);
                    self.frontier_unsettle(v);
                }
                self.par = None; // degrees changed: replan worker ranges
                if counts != (0, 0) {
                    self.topology_version += 1;
                }
                Ok(counts)
            }
            // Both graph-level failure modes are pre-checked above; map
            // defensively rather than unwrap so a future GraphError variant
            // cannot reintroduce a panic path.
            Err(_) => Err(ChurnError::SelfEdge(added.first().map_or(0, |&(u, _)| u))),
        }
    }

    fn check_churn_edge(&self, u: NodeId, v: NodeId) -> Result<(), ChurnError> {
        let n = self.graph.len();
        for node in [u, v] {
            if node >= n {
                return Err(ChurnError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Err(ChurnError::SelfEdge(u));
        }
        Ok(())
    }

    /// Topology churn: node `v` departs. All its incident edges are removed
    /// and the node becomes inactive — silent, deaf and frozen — until
    /// [`Simulator::node_join`] brings it back. Returns the number of edges
    /// removed. Idempotent for an already-departed node.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if `v >= n`; the execution is
    /// unchanged on error.
    pub fn node_leave(&mut self, v: NodeId) -> Result<usize, ChurnError> {
        let n = self.graph.len();
        if v >= n {
            return Err(ChurnError::NodeOutOfRange { node: v, n });
        }
        // Frontier seeding: the departing node's signal goes silent, so its
        // (pre-isolation) neighbors' observations may change next round;
        // the signal clearing below is routed through the accounting
        // helpers to keep the persistent bitsets and report totals exact.
        if self.frontier_live() {
            let neighbors: Vec<NodeId> =
                self.graph.neighbors(v).iter().map(|&u| u as NodeId).collect();
            for u in neighbors {
                self.frontier_unsettle(u);
            }
            self.frontier_unsettle(v);
            self.frontier_set_sent(v, BeepSignal::silent());
            self.frontier_set_heard(v, BeepSignal::silent());
        }
        let removed = self.graph.to_mut().isolate_node(v);
        self.topology_version += 1;
        if self.active[v] {
            self.active[v] = false;
            self.active_bits[v >> 6] &= !(1u64 << (v & 63));
            self.inactive += 1;
        }
        self.par = None; // worker ranges are degree-balanced: replan
                         // A departed node must not keep advertising its last round: clear
                         // its transmission and observation so `last_sent()`/`last_heard()`
                         // and observer hooks never read a beep from a node that no longer
                         // exists.
        self.sent[v] = BeepSignal::silent();
        self.heard[v] = BeepSignal::silent();
        Ok(removed)
    }

    /// Topology churn: node `v` (re)joins with edges to `neighbors` and the
    /// given state (a joining node boots with *arbitrary* RAM — pass
    /// whatever the adversary chooses). Edges already present are kept.
    ///
    /// # Errors
    ///
    /// [`ChurnError::NodeOutOfRange`] if `v` or a neighbor is `>= n`,
    /// [`ChurnError::SelfEdge`] if `neighbors` contains `v`. Validation
    /// happens before any mutation, so a failed join leaves the execution
    /// unchanged.
    pub fn node_join(
        &mut self,
        v: NodeId,
        neighbors: &[NodeId],
        state: P::State,
    ) -> Result<(), ChurnError> {
        let n = self.graph.len();
        if v >= n {
            return Err(ChurnError::NodeOutOfRange { node: v, n });
        }
        for &u in neighbors {
            if u >= n {
                return Err(ChurnError::NodeOutOfRange { node: u, n });
            }
            if u == v {
                return Err(ChurnError::SelfEdge(v));
            }
        }
        // Frontier seeding: the joiner and every attachment point
        // re-execute next round (their observations may change); signal
        // clearing goes through the accounting helpers as in `node_leave`.
        if self.frontier_live() {
            self.frontier_unsettle(v);
            for &u in neighbors {
                self.frontier_unsettle(u);
            }
            self.frontier_set_sent(v, BeepSignal::silent());
            self.frontier_set_heard(v, BeepSignal::silent());
        }
        let graph = self.graph.to_mut();
        for &u in neighbors {
            // Endpoints are validated above; `insert_edge` only reports
            // conditions that validation already excluded.
            let _ = graph.insert_edge(v, u);
        }
        self.topology_version += 1;
        if !self.active[v] {
            self.active[v] = true;
            self.active_bits[v >> 6] |= 1u64 << (v & 63);
            self.inactive -= 1;
        }
        self.par = None; // worker ranges are degree-balanced: replan
        self.states[v] = state;
        // Mirror of `node_leave`'s signal clearing: a joining node boots
        // fresh and has neither transmitted nor heard anything yet, so the
        // signals left over from before its departure must not leak into
        // `last_sent()`/`last_heard()` or observer hooks.
        self.sent[v] = BeepSignal::silent();
        self.heard[v] = BeepSignal::silent();
        Ok(())
    }

    /// `true` if `v` currently participates (has not departed via
    /// [`Simulator::node_leave`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v]
    }

    /// The participation bitmap, indexed by node id.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Number of currently participating nodes (O(1): the simulator keeps
    /// a departed-node count alongside the bitmap).
    pub fn active_count(&self) -> usize {
        self.active.len() - self.inactive
    }

    /// The deterministic work counters accumulated so far; see
    /// [`WorkCounters`]. Reset with [`Simulator::reset_work`].
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// Zeroes the work counters (e.g. after a warm-up phase, so a
    /// measurement window can be accounted in isolation).
    pub fn reset_work(&mut self) {
        self.work = WorkCounters::default();
    }

    /// The transmissions of the most recent round (all silent before the
    /// first [`Simulator::step`]).
    pub fn last_sent(&self) -> &[BeepSignal] {
        &self.sent
    }

    /// The observations of the most recent round.
    pub fn last_heard(&self) -> &[BeepSignal] {
        &self.heard
    }

    /// Executes one synchronous round and reports aggregate beep activity.
    ///
    /// With the default reliable channel and all nodes active, this is
    /// exactly the paper's round: transmit, OR over neighbors, receive.
    /// Otherwise the unreliable-channel model is applied between the
    /// OR-aggregation and `receive`: jammers override transmissions,
    /// per-edge beep loss thins the OR, and spurious beeps are merged into
    /// each listener's observation. Departed (inactive) nodes neither
    /// transmit, hear, nor update state, and consume no node randomness.
    ///
    /// # Panics
    ///
    /// Panics (in debug and release) if the protocol transmits on a channel
    /// it did not declare via [`BeepingProtocol::channels`] — that would be
    /// a model violation, not a recoverable condition.
    pub fn step(&mut self) -> RoundReport {
        let n = self.graph.len();
        let channels = self.protocol.channels();
        // No-fault fast paths: with a perfectly reliable channel and no
        // Byzantine plan, every noise/jammer/Byzantine branch is dead code
        // and no channel or Byzantine randomness is ever drawn, so the
        // fused scatter round — and the frontier kernel, which skips only
        // rounds certified draw-equivalent — are bit-identical to the
        // phased path below.
        let fault_free = self.channel.is_reliable() && self.byzantine.is_empty();
        if self.engine == EngineMode::Scatter && fault_free {
            return self.fast_round(n, channels);
        }
        if let EngineMode::ParScatter { threads } = self.engine {
            if fault_free {
                return self.par_round(n, channels, threads);
            }
            // Channel noise and Byzantine behavior draw from shared streams
            // in strict node order — parallel execution cannot preserve
            // that, so faulted rounds run the phased path below (exactly
            // the scatter engine's behavior, including its own drop_p
            // fallback to the scalar gather).
        }
        if self.engine == EngineMode::Frontier {
            if fault_free {
                return self.frontier_round(n, channels);
            }
            // Channel noise draws per-listener coins the frontier kernel
            // cannot skip: materialize the lazy RNG accounting and run the
            // phased scatter path until the network is fault-free again.
            self.frontier_desync();
        }
        // Phase 0: advance the burst-noise window (no-op without bursts).
        let transmit_span = self.telemetry.time("sim.phase.transmit");
        self.channel.advance_window(&mut self.channel_state, &mut self.channel_rng);
        let drop_p = self.channel.effective_drop(&self.channel_state);
        let spurious_p = self.channel.spurious_p;
        // Phase 0b: crash-restart reboots. An affected node's RAM is
        // overwritten by the adversary's resurrection closure before this
        // round's transmissions, in ascending node order (deterministic
        // draws from the Byzantine stream).
        if !self.byzantine.is_empty() {
            let executing_round = self.round + 1;
            for v in 0..n {
                if !self.active[v] {
                    continue;
                }
                if let Some(ByzantineBehavior::CrashRestart { period, resurrect }) = &self.byz[v] {
                    if executing_round.is_multiple_of(*period) {
                        self.states[v] = resurrect.call(v, executing_round, &mut self.byz_rng);
                    }
                }
            }
        }
        // Phase 1: transmissions. Jammers override the protocol's decision —
        // the radio is Byzantine, the RAM is not — and Byzantine behavior
        // overrides override jammers in turn.
        for v in 0..n {
            let mut signal = if self.active[v] {
                let s = self.protocol.transmit(v, &self.states[v], &mut self.rngs[v]);
                assert!(
                    s.allowed_by(channels),
                    "protocol beeped on an undeclared channel (node {v}, signal {s})"
                );
                s
            } else {
                BeepSignal::silent()
            };
            if self.active[v] {
                match self.channel.jammer(v) {
                    Some(JammerKind::AlwaysBeep) => signal = channels.full_signal(),
                    Some(JammerKind::AlwaysSilent) => signal = BeepSignal::silent(),
                    None => {}
                }
                match &self.byz[v] {
                    Some(ByzantineBehavior::StuckBeep) => signal = channels.full_signal(),
                    Some(ByzantineBehavior::StuckSilent) => signal = BeepSignal::silent(),
                    Some(ByzantineBehavior::Babbler(p)) => {
                        signal = if *p > 0.0 && self.byz_rng.gen_bool(*p) {
                            channels.full_signal()
                        } else {
                            BeepSignal::silent()
                        };
                    }
                    Some(ByzantineBehavior::Channel2Liar) => {
                        signal.merge(BeepSignal::channel2());
                    }
                    Some(ByzantineBehavior::CrashRestart { .. }) | None => {}
                }
            }
            self.sent[v] = signal;
        }
        self.work.node_execs += (n - self.inactive) as u64;
        drop(transmit_span);
        // Phase 2: delivery — OR over neighbors, per channel. A node does
        // not hear itself: beeps are sent to neighbors only (paper §1).
        // Under half duplex, a transmitting node additionally hears nothing.
        // The unreliable channel thins the OR (per-directed-edge loss) and
        // may add spurious positives; a reliable channel draws no randomness
        // here, keeping noise-free executions bit-identical to the paper's
        // model.
        // The frontier and parallel engines have no phased kernel of their
        // own: on this path they *are* the scatter engine (same delivery,
        // same counters).
        let (deliver_name, rounds_counter) = match self.engine {
            EngineMode::Scalar => ("sim.phase.deliver.scalar", "sim.rounds.scalar"),
            EngineMode::Scatter | EngineMode::Frontier | EngineMode::ParScatter { .. } => {
                ("sim.phase.deliver.scatter", "sim.rounds.scatter")
            }
        };
        let deliver_span = self.telemetry.time(deliver_name);
        match self.engine {
            EngineMode::Scalar => self.deliver_scalar(n, channels, drop_p, spurious_p),
            EngineMode::Scatter | EngineMode::Frontier | EngineMode::ParScatter { .. } => {
                self.deliver_scatter(n, channels, drop_p, spurious_p)
            }
        }
        drop(deliver_span);
        // Phase 3: state updates (departed nodes are frozen).
        let receive_span = self.telemetry.time("sim.phase.receive");
        for v in 0..n {
            if self.active[v] {
                self.protocol.receive(
                    v,
                    &mut self.states[v],
                    self.sent[v],
                    self.heard[v],
                    &mut self.rngs[v],
                );
            }
        }
        drop(receive_span);
        self.telemetry.counter_add(rounds_counter, 1);
        self.round += 1;
        if let Some(hook) = self.hook.0.as_mut() {
            hook(&self.graph, self.round, &self.states);
        }
        RoundReport::from_signals(self.round, &self.sent, &self.heard)
    }

    /// Reference delivery: every hearing-capable listener gathers the OR
    /// over its neighbors' transmissions, drawing one loss coin per active
    /// beeping neighbor when `drop_p > 0` and spurious coins afterwards.
    /// The RNG draw order of this loop is the contract both engines honor.
    fn deliver_scalar(
        &mut self,
        n: usize,
        channels: SimulatorChannels,
        drop_p: f64,
        spurious_p: f64,
    ) {
        for v in 0..n {
            let mut heard = BeepSignal::silent();
            if self.active[v] && (self.duplex == DuplexMode::Full || self.sent[v].is_silent()) {
                self.work.edge_visits += self.graph.degree(v) as u64;
                for &u in self.graph.neighbors(v) {
                    let u = u as usize;
                    if !self.active[u] {
                        continue;
                    }
                    let sig = self.sent[u];
                    if sig.is_silent() {
                        continue;
                    }
                    if drop_p > 0.0 && self.channel_rng.gen_bool(drop_p) {
                        continue; // the beep is lost on this directed edge
                    }
                    heard.merge(sig);
                }
                if spurious_p > 0.0 {
                    let c1 = self.channel_rng.gen_bool(spurious_p);
                    let c2 =
                        channels == SimulatorChannels::Two && self.channel_rng.gen_bool(spurious_p);
                    heard.merge(BeepSignal::new(c1, c2));
                }
            }
            self.heard[v] = heard;
        }
    }

    /// Scatter delivery: the round's beepers push their signals into
    /// per-channel word-packed bitsets — O(Σ deg(beeper)) instead of the
    /// scalar gather's O(m) — then each listener reads its own bit.
    ///
    /// Bit-identity with [`Simulator::deliver_scalar`]: with `drop_p == 0`
    /// the gather loop draws no randomness, so reordering the OR is
    /// invisible; the spurious coins are drawn in the same per-listener
    /// ascending order. With `drop_p > 0` the scalar loop's draw order
    /// (one coin per (listener, beeping neighbor) pair) cannot be preserved
    /// by a scatter, so this round falls back to the scalar gather.
    fn deliver_scatter(
        &mut self,
        n: usize,
        channels: SimulatorChannels,
        drop_p: f64,
        spurious_p: f64,
    ) {
        if drop_p > 0.0 {
            return self.deliver_scalar(n, channels, drop_p, spurious_p);
        }
        self.scatter_signals(n);
        let two = channels == SimulatorChannels::Two;
        for v in 0..n {
            let mut heard = BeepSignal::silent();
            if self.active[v] && (self.duplex == DuplexMode::Full || self.sent[v].is_silent()) {
                heard = self.gather_bit(v, two);
                if spurious_p > 0.0 {
                    let c1 = self.channel_rng.gen_bool(spurious_p);
                    let c2 = two && self.channel_rng.gen_bool(spurious_p);
                    heard.merge(BeepSignal::new(c1, c2));
                }
            }
            self.heard[v] = heard;
        }
    }

    /// Clears the scatter bitsets and pushes every beeper's signal to its
    /// neighbors. Inactive nodes are already silent in `sent`, so they
    /// never scatter; inactive/deaf listeners are masked at gather time.
    fn scatter_signals(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.scatter_heard1.clear();
        self.scatter_heard1.resize(words, 0);
        self.scatter_heard2.clear();
        self.scatter_heard2.resize(words, 0);
        for u in 0..n {
            let sig = self.sent[u];
            if sig.is_silent() {
                continue;
            }
            if sig.on_channel1() {
                self.work.edge_visits += self.graph.degree(u) as u64;
                for &w in self.graph.neighbors(u) {
                    self.scatter_heard1[(w >> 6) as usize] |= 1u64 << (w & 63);
                }
            }
            if sig.on_channel2() {
                self.work.edge_visits += self.graph.degree(u) as u64;
                for &w in self.graph.neighbors(u) {
                    self.scatter_heard2[(w >> 6) as usize] |= 1u64 << (w & 63);
                }
            }
        }
    }

    /// Reads listener `v`'s per-channel bits out of the scatter bitsets.
    fn gather_bit(&self, v: usize, two: bool) -> BeepSignal {
        let word = v >> 6;
        let bit = 1u64 << (v & 63);
        let c1 = self.scatter_heard1[word] & bit != 0;
        let c2 = two && self.scatter_heard2[word] & bit != 0;
        BeepSignal::new(c1, c2)
    }

    /// Fused no-fault round: transmit + scatter + gather + receive in two
    /// passes, with the [`RoundReport`] accumulated inline instead of a
    /// separate [`RoundReport::from_signals`] sweep. Only reachable when
    /// the channel is reliable and the Byzantine plan is empty, so every
    /// skipped branch (burst windows, reboots, jammers, loss, spurious) is
    /// provably dead and no channel/Byzantine randomness is ever drawn —
    /// making this bit-identical to the phased path under either engine.
    fn fast_round(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        let fused_span = self.telemetry.time("sim.phase.fused");
        let two = channels == SimulatorChannels::Two;
        let words = n.div_ceil(64);
        self.scatter_heard1.clear();
        self.scatter_heard1.resize(words, 0);
        self.scatter_heard2.clear();
        self.scatter_heard2.resize(words, 0);
        self.scatter_sent1.clear();
        self.scatter_sent1.resize(words, 0);
        self.scatter_sent2.clear();
        self.scatter_sent2.resize(words, 0);
        let mut report = RoundReport { round: self.round + 1, ..RoundReport::default() };
        // Split borrows with fixed-length slices: the Cow deref happens once
        // instead of per neighbors() call, and every per-node index below is
        // provably in bounds, so the hot loops carry no bounds checks.
        let graph: &Graph = &self.graph;
        let protocol = &self.protocol;
        let states = &mut self.states[..n];
        let rngs = &mut self.rngs[..n];
        let sent = &mut self.sent[..n];
        let heard = &mut self.heard[..n];
        let active = &self.active[..n];
        let heard1 = &mut self.scatter_heard1[..words];
        let heard2 = &mut self.scatter_heard2[..words];
        let sent1 = &mut self.scatter_sent1[..words];
        let sent2 = &mut self.scatter_sent2[..words];
        let full = self.duplex == DuplexMode::Full;
        // With every node active and full duplex — the steady state of an
        // unfaulted network — the per-node activity/deafness checks are
        // vacuous and every report counter is a set cardinality: beepers are
        // popcount(sent_c), hearers popcount(heard_c), lone beepers
        // popcount(sent_c & !heard_c). Track `sent` as bitsets too and the
        // whole report falls out of a word sweep, leaving pass 2 with just
        // the gather and the state update.
        let all_active = self.inactive == 0;
        let mut edge_visits = 0u64;
        if all_active && full {
            // Pass 1: transmissions, fused with the beeper scatter.
            for v in 0..n {
                let signal = protocol.transmit(v, &states[v], &mut rngs[v]);
                assert!(
                    signal.allowed_by(channels),
                    "protocol beeped on an undeclared channel (node {v}, signal {signal})"
                );
                sent[v] = signal;
                if signal.is_silent() {
                    continue;
                }
                let word = v >> 6;
                let bit = 1u64 << (v & 63);
                if signal.on_channel1() {
                    sent1[word] |= bit;
                    edge_visits += graph.degree(v) as u64;
                    for &w in graph.neighbors(v) {
                        heard1[(w >> 6) as usize] |= 1u64 << (w & 63);
                    }
                }
                if signal.on_channel2() {
                    sent2[word] |= bit;
                    edge_visits += graph.degree(v) as u64;
                    for &w in graph.neighbors(v) {
                        heard2[(w >> 6) as usize] |= 1u64 << (w & 63);
                    }
                }
            }
            // Report counters as word-wise popcounts. Bits at index >= n are
            // never set (every scattered index is a node id), so no masking
            // of the final word is needed.
            for w in 0..words {
                report.beeps_channel1 += sent1[w].count_ones() as usize;
                report.hearers_channel1 += heard1[w].count_ones() as usize;
                report.lone_beepers += (sent1[w] & !heard1[w]).count_ones() as usize;
            }
            if two {
                for w in 0..words {
                    report.beeps_channel2 += sent2[w].count_ones() as usize;
                    report.hearers_channel2 += heard2[w].count_ones() as usize;
                    report.lone_beepers_channel2 += (sent2[w] & !heard2[w]).count_ones() as usize;
                }
            }
            // Pass 2: gather + state update.
            for v in 0..n {
                let word = v >> 6;
                let bit = 1u64 << (v & 63);
                let h = BeepSignal::new(heard1[word] & bit != 0, two && heard2[word] & bit != 0);
                heard[v] = h;
                protocol.receive(v, &mut states[v], sent[v], h, &mut rngs[v]);
            }
        } else {
            // General no-fault round: inactive nodes and half duplex mask
            // transmissions/hearing per node, so counters stay inline.
            // Pass 1: transmissions, fused with the beeper scatter.
            for v in 0..n {
                let signal = if active[v] {
                    let s = protocol.transmit(v, &states[v], &mut rngs[v]);
                    assert!(
                        s.allowed_by(channels),
                        "protocol beeped on an undeclared channel (node {v}, signal {s})"
                    );
                    s
                } else {
                    BeepSignal::silent()
                };
                sent[v] = signal;
                if signal.is_silent() {
                    continue;
                }
                if signal.on_channel1() {
                    report.beeps_channel1 += 1;
                    edge_visits += graph.degree(v) as u64;
                    for &w in graph.neighbors(v) {
                        heard1[(w >> 6) as usize] |= 1u64 << (w & 63);
                    }
                }
                if signal.on_channel2() {
                    report.beeps_channel2 += 1;
                    edge_visits += graph.degree(v) as u64;
                    for &w in graph.neighbors(v) {
                        heard2[(w >> 6) as usize] |= 1u64 << (w & 63);
                    }
                }
            }
            // Pass 2: gather + state update, fused with report accumulation.
            for v in 0..n {
                let s = sent[v];
                let is_active = active[v];
                let h = if is_active && (full || s.is_silent()) {
                    let word = v >> 6;
                    let bit = 1u64 << (v & 63);
                    BeepSignal::new(heard1[word] & bit != 0, two && heard2[word] & bit != 0)
                } else {
                    BeepSignal::silent()
                };
                heard[v] = h;
                report.hearers_channel1 += h.on_channel1() as usize;
                report.hearers_channel2 += h.on_channel2() as usize;
                report.lone_beepers += (s.on_channel1() && !h.on_channel1()) as usize;
                report.lone_beepers_channel2 += (s.on_channel2() && !h.on_channel2()) as usize;
                if is_active {
                    protocol.receive(v, &mut states[v], s, h, &mut rngs[v]);
                }
            }
        }
        self.work.node_execs += (n - self.inactive) as u64;
        self.work.edge_visits += edge_visits;
        // Bookkeeping tail in the exact order of the phased path — span
        // closed, counter bumped, round advanced, hook run — so telemetry
        // totals and hook observations line up between the two paths even
        // when a hook panics mid-round (the round is counted on both paths
        // before the hook fires); pinned by `tests/fast_path_accounting.rs`.
        drop(fused_span);
        self.telemetry.counter_add("sim.rounds.fused", 1);
        self.round += 1;
        if let Some(hook) = self.hook.0.as_mut() {
            hook(graph, self.round, states);
        }
        report
    }

    /// Fused no-fault parallel round; see [`EngineMode::ParScatter`] and
    /// the [`crate::par`] module docs. Only reachable when the channel is
    /// reliable and the Byzantine plan is empty, exactly like
    /// [`Simulator::fast_round`] — no channel/Byzantine randomness exists
    /// to be drawn, and per-node streams are independent, so the result is
    /// bit-identical to every sequential engine at any thread count.
    fn par_round(&mut self, n: usize, channels: SimulatorChannels, threads: usize) -> RoundReport {
        let par_span = self.telemetry.time("sim.phase.par");
        let plan = match &mut self.par {
            Some(plan) if plan.matches(&self.graph, threads) => plan,
            slot => slot.insert(crate::par::ParPlan::build(&self.graph, threads)),
        };
        let graph: &Graph = &self.graph;
        let full = self.duplex == DuplexMode::Full;
        let (report, work) = crate::par::run_round(
            plan,
            graph,
            &self.protocol,
            channels,
            full,
            self.round + 1,
            &self.active[..n],
            &self.active_bits,
            &mut self.states[..n],
            &mut self.rngs[..n],
            &mut self.sent[..n],
            &mut self.heard[..n],
            &mut self.scatter_heard1,
            &mut self.scatter_heard2,
        );
        self.work.node_execs += work.node_execs;
        self.work.edge_visits += work.edge_visits;
        // Bookkeeping tail in the exact order of the other engines — span
        // closed, counter bumped, round advanced, hook run (on the calling
        // thread: worker threads never see the hook or telemetry).
        drop(par_span);
        self.telemetry.counter_add("sim.rounds.par", 1);
        self.round += 1;
        if let Some(hook) = self.hook.0.as_mut() {
            hook(&self.graph, self.round, &self.states);
        }
        report
    }

    /// `true` while the frontier bookkeeping is authoritative: the
    /// frontier engine is selected and a full sweep has established the
    /// [`FrontierState`] invariants.
    fn frontier_live(&self) -> bool {
        self.engine == EngineMode::Frontier && self.frontier.synced
    }

    /// Event→dirty-set hook: queues `v` for live execution next round,
    /// materializing its lazily accounted RNG position first. No-op unless
    /// the bookkeeping is live (other engines, or before the first sweep).
    fn frontier_unsettle(&mut self, v: NodeId) {
        if !self.frontier_live() {
            return;
        }
        if self.frontier.settled[v] {
            self.frontier.materialize(&mut self.rngs[v], v, self.round);
            self.frontier.settled[v] = false;
        }
        self.frontier.push_dirty(v);
    }

    /// Materializes every lazily accounted RNG position and discards the
    /// frontier bookkeeping — the exit into any regime the kernel cannot
    /// track per node (noise/Byzantine plans, engine switches, bulk
    /// corruption). The next frontier round rebuilds with a full sweep.
    fn frontier_desync(&mut self) {
        if !self.frontier.synced {
            return;
        }
        for v in 0..self.graph.len() {
            if self.frontier.settled[v] {
                self.frontier.materialize(&mut self.rngs[v], v, self.round);
            }
        }
        self.frontier_reset();
    }

    /// Forgets the frontier bookkeeping *without* materializing — only
    /// correct when the RNG positions are being replaced wholesale (a
    /// restore), where ticking the outgoing streams would corrupt the
    /// incoming ones.
    fn frontier_reset(&mut self) {
        let fr = &mut self.frontier;
        fr.synced = false;
        fr.dirty.clear();
        for q in &mut fr.queued {
            *q = false;
        }
        for s in &mut fr.settled {
            *s = false;
        }
    }

    /// Rewrites `sent[v]` keeping the persistent bitsets and running report
    /// totals exact. Call only while the bookkeeping is live.
    fn frontier_set_sent(&mut self, v: NodeId, s: BeepSignal) {
        let old = self.sent[v];
        if old == s {
            return;
        }
        let h = self.heard[v];
        let fr = &mut self.frontier;
        let word = v >> 6;
        let bit = 1u64 << (v & 63);
        if s.on_channel1() != old.on_channel1() {
            if s.on_channel1() {
                fr.sent1[word] |= bit;
                fr.total_beeps1 += 1;
            } else {
                fr.sent1[word] &= !bit;
                fr.total_beeps1 -= 1;
            }
        }
        if s.on_channel2() != old.on_channel2() {
            if s.on_channel2() {
                fr.sent2[word] |= bit;
                fr.total_beeps2 += 1;
            } else {
                fr.sent2[word] &= !bit;
                fr.total_beeps2 -= 1;
            }
        }
        fr.total_lone1 -= (old.on_channel1() && !h.on_channel1()) as usize;
        fr.total_lone1 += (s.on_channel1() && !h.on_channel1()) as usize;
        fr.total_lone2 -= (old.on_channel2() && !h.on_channel2()) as usize;
        fr.total_lone2 += (s.on_channel2() && !h.on_channel2()) as usize;
        self.sent[v] = s;
    }

    /// Rewrites `heard[v]` keeping the running report totals exact. Call
    /// only while the bookkeeping is live.
    fn frontier_set_heard(&mut self, v: NodeId, h: BeepSignal) {
        let old = self.heard[v];
        if old == h {
            return;
        }
        let s = self.sent[v];
        let fr = &mut self.frontier;
        fr.total_hearers1 -= old.on_channel1() as usize;
        fr.total_hearers1 += h.on_channel1() as usize;
        fr.total_hearers2 -= old.on_channel2() as usize;
        fr.total_hearers2 += h.on_channel2() as usize;
        fr.total_lone1 -= (s.on_channel1() && !old.on_channel1()) as usize;
        fr.total_lone1 += (s.on_channel1() && !h.on_channel1()) as usize;
        fr.total_lone2 -= (s.on_channel2() && !old.on_channel2()) as usize;
        fr.total_lone2 += (s.on_channel2() && !h.on_channel2()) as usize;
        self.heard[v] = h;
    }

    /// Reads listener `u`'s observation from the persistent sent bitsets —
    /// the word-packed signal reuse over the settled complement. Inactive
    /// neighbors never have a bit set (their `sent` is silent), so no
    /// activity mask is needed here.
    fn frontier_gather(&self, u: NodeId, two: bool) -> BeepSignal {
        let fr = &self.frontier;
        let mut c1 = false;
        let mut c2 = false;
        for &w in self.graph.neighbors(u) {
            let word = (w >> 6) as usize;
            let bit = 1u64 << (w & 63);
            c1 |= fr.sent1[word] & bit != 0;
            c2 |= two && fr.sent2[word] & bit != 0;
            if c1 && (c2 || !two) {
                break;
            }
        }
        BeepSignal::new(c1, c2)
    }

    /// One fault-free frontier round: sparse while the dirty set stays at
    /// or under [`frontier_fallback_threshold`], otherwise (or while
    /// unsynced) one full rebuild sweep.
    fn frontier_round(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        self.frontier.ensure_init(n);
        if !self.frontier.synced || self.frontier.dirty.len() > frontier_fallback_threshold(n) {
            self.frontier_full_sweep(n, channels)
        } else {
            self.frontier_sparse_round(n, channels)
        }
    }

    /// Full frontier sweep: executes every node like the fused kernel,
    /// then re-derives the settled set, the persistent signal bitsets and
    /// the running report totals. Entered while unsynced and whenever the
    /// frontier outgrows the density threshold.
    fn frontier_full_sweep(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        let span = self.telemetry.time("sim.phase.frontier");
        let executing = self.round + 1;
        let two = channels == SimulatorChannels::Two;
        let words = n.div_ceil(64);
        // Materialize every lazily accounted stream through the previous
        // round so the live transmissions below start at the right
        // positions, then forget the old settled set.
        if self.frontier.synced {
            for v in 0..n {
                if self.frontier.settled[v] {
                    self.frontier.materialize(&mut self.rngs[v], v, executing - 1);
                    self.frontier.settled[v] = false;
                }
            }
        }
        self.frontier.dirty.clear();
        for q in &mut self.frontier.queued {
            *q = false;
        }
        // Per-round heard accumulation reuses the scatter scratch; the
        // persistent sent bitsets are rebuilt from scratch.
        self.scatter_heard1.clear();
        self.scatter_heard1.resize(words, 0);
        self.scatter_heard2.clear();
        self.scatter_heard2.resize(words, 0);
        let mut report = RoundReport { round: executing, ..RoundReport::default() };
        let graph: &Graph = &self.graph;
        let protocol = &self.protocol;
        let states = &mut self.states[..n];
        let rngs = &mut self.rngs[..n];
        let sent = &mut self.sent[..n];
        let heard = &mut self.heard[..n];
        let active = &self.active[..n];
        let heard1 = &mut self.scatter_heard1[..words];
        let heard2 = &mut self.scatter_heard2[..words];
        let fr = &mut self.frontier;
        fr.sent1.clear();
        fr.sent1.resize(words, 0);
        fr.sent2.clear();
        fr.sent2.resize(words, 0);
        let full = self.duplex == DuplexMode::Full;
        let mut edge_visits = 0u64;
        // Pass 1: live transmissions, fused with the heard scatter and the
        // persistent sent-bitset rebuild.
        for v in 0..n {
            let signal = if active[v] {
                let s = protocol.transmit(v, &states[v], &mut rngs[v]);
                assert!(
                    s.allowed_by(channels),
                    "protocol beeped on an undeclared channel (node {v}, signal {s})"
                );
                s
            } else {
                BeepSignal::silent()
            };
            sent[v] = signal;
            if signal.is_silent() {
                continue;
            }
            let word = v >> 6;
            let bit = 1u64 << (v & 63);
            if signal.on_channel1() {
                report.beeps_channel1 += 1;
                edge_visits += graph.degree(v) as u64;
                for &w in graph.neighbors(v) {
                    heard1[(w >> 6) as usize] |= 1u64 << (w & 63);
                }
                fr.sent1[word] |= bit;
            }
            if signal.on_channel2() {
                report.beeps_channel2 += 1;
                edge_visits += graph.degree(v) as u64;
                for &w in graph.neighbors(v) {
                    heard2[(w >> 6) as usize] |= 1u64 << (w & 63);
                }
                fr.sent2[word] |= bit;
            }
        }
        // Pass 2: gather + state update + settle evaluation.
        for v in 0..n {
            let s = sent[v];
            let is_active = active[v];
            let h = if is_active && (full || s.is_silent()) {
                let word = v >> 6;
                let bit = 1u64 << (v & 63);
                BeepSignal::new(heard1[word] & bit != 0, two && heard2[word] & bit != 0)
            } else {
                BeepSignal::silent()
            };
            heard[v] = h;
            report.hearers_channel1 += h.on_channel1() as usize;
            report.hearers_channel2 += h.on_channel2() as usize;
            report.lone_beepers += (s.on_channel1() && !h.on_channel1()) as usize;
            report.lone_beepers_channel2 += (s.on_channel2() && !h.on_channel2()) as usize;
            fr.last_exec[v] = executing;
            if is_active {
                protocol.receive(v, &mut states[v], s, h, &mut rngs[v]);
                match protocol.settled_round(v, &states[v], h) {
                    Some(sr) if sr.signal == s => {
                        #[cfg(debug_assertions)]
                        debug_check_settled_contract(protocol, v, &states[v], &rngs[v], sr, h);
                        fr.settled[v] = true;
                        fr.rate[v] = sr.draws;
                    }
                    _ => {
                        fr.settled[v] = false;
                        fr.push_dirty(v);
                    }
                }
            } else {
                // A departed node is frozen and draw-free: settled at rate
                // 0, so skipped rounds never advance its stream.
                fr.settled[v] = true;
                fr.rate[v] = 0;
            }
        }
        fr.total_beeps1 = report.beeps_channel1;
        fr.total_beeps2 = report.beeps_channel2;
        fr.total_hearers1 = report.hearers_channel1;
        fr.total_hearers2 = report.hearers_channel2;
        fr.total_lone1 = report.lone_beepers;
        fr.total_lone2 = report.lone_beepers_channel2;
        fr.synced = true;
        self.work.node_execs += (n - self.inactive) as u64;
        self.work.edge_visits += edge_visits;
        // Bookkeeping tail in phased-path order: span, counters, round, hook.
        drop(span);
        self.telemetry.counter_add("sim.rounds.frontier", 1);
        self.telemetry.counter_add("sim.rounds.frontier.fallback", 1);
        self.round = executing;
        if let Some(hook) = self.hook.0.as_mut() {
            hook(graph, self.round, states);
        }
        report
    }

    /// Sparse frontier round — O(Σ deg(dirty ∪ N(changed))) work:
    ///
    /// 1. the dirty set transmits live (changed signals are patched into
    ///    the persistent bitsets);
    /// 2. observations are recomputed only across the changed signals'
    ///    neighborhoods plus the dirty set itself (whose duplex masking or
    ///    adjacency may have changed);
    /// 3. settled listeners whose observation changed are *woken* — their
    ///    skipped transmissions are ticked via jump-ahead, then they run a
    ///    live `receive` on the new observation;
    /// 4. everything that executed is re-evaluated for settling and feeds
    ///    the next round's dirty set.
    fn frontier_sparse_round(&mut self, n: usize, channels: SimulatorChannels) -> RoundReport {
        let _ = n;
        let span = self.telemetry.time("sim.phase.frontier");
        let executing = self.round + 1;
        let two = channels == SimulatorChannels::Two;
        let full = self.duplex == DuplexMode::Full;
        // Swap the dirty list into the exec scratch so `push_dirty` below
        // refills a retained buffer (no per-round allocation).
        std::mem::swap(&mut self.frontier.dirty, &mut self.frontier.exec);
        self.frontier.dirty.clear();
        let mut exec = std::mem::take(&mut self.frontier.exec);
        exec.sort_unstable();
        for &v in &exec {
            self.frontier.queued[v] = false;
        }
        // Pass 1: live transmissions for the dirty set.
        let mut changed = std::mem::take(&mut self.frontier.changed);
        changed.clear();
        for &v in &exec {
            if !self.active[v] {
                // A departed node is frozen and draw-free: it settles at
                // rate 0 until `node_join` queues it again.
                self.frontier.settled[v] = true;
                self.frontier.rate[v] = 0;
                self.frontier.last_exec[v] = executing;
                continue;
            }
            debug_assert_eq!(
                self.frontier.last_exec[v],
                executing - 1,
                "dirty node {v} entered the round with an unmaterialized stream"
            );
            let s = self.protocol.transmit(v, &self.states[v], &mut self.rngs[v]);
            assert!(
                s.allowed_by(channels),
                "protocol beeped on an undeclared channel (node {v}, signal {s})"
            );
            if s != self.sent[v] {
                self.frontier_set_sent(v, s);
                changed.push(v);
            }
        }
        // Pass 2: recompute observations over dirty ∪ N(changed); wake
        // settled listeners whose observation changed.
        let mut listeners = std::mem::take(&mut self.frontier.listeners);
        listeners.clear();
        for &v in &exec {
            if self.active[v] && !self.frontier.listener_mark[v] {
                self.frontier.listener_mark[v] = true;
                listeners.push(v);
            }
        }
        for &v in &changed {
            self.work.edge_visits += self.graph.degree(v) as u64;
            for &w in self.graph.neighbors(v) {
                let w = w as NodeId;
                if self.active[w] && !self.frontier.listener_mark[w] {
                    self.frontier.listener_mark[w] = true;
                    listeners.push(w);
                }
            }
        }
        listeners.sort_unstable();
        let mut wake = std::mem::take(&mut self.frontier.wake);
        wake.clear();
        for &u in &listeners {
            self.frontier.listener_mark[u] = false;
            let h = if full || self.sent[u].is_silent() {
                self.frontier_gather(u, two)
            } else {
                BeepSignal::silent()
            };
            if h != self.heard[u] {
                let was_settled = self.frontier.settled[u];
                self.frontier_set_heard(u, h);
                if was_settled {
                    wake.push(u);
                }
            }
        }
        // Pass 3: woken nodes skipped this round's transmission, but the
        // contract fixes its signal and draw count — tick the stream
        // through this round, then run the live receive below.
        for &u in &wake {
            self.frontier.materialize(&mut self.rngs[u], u, executing);
            self.frontier.settled[u] = false;
        }
        // Pass 4: state updates + settle re-evaluation over everything
        // that executed, in ascending node order (exec and wake are each
        // sorted and disjoint — wake held only settled nodes).
        let (mut ei, mut wi) = (0, 0);
        while ei < exec.len() || wi < wake.len() {
            let take_exec = match (exec.get(ei), wake.get(wi)) {
                (Some(&a), Some(&b)) => a < b,
                (Some(_), None) => true,
                _ => false,
            };
            let v = if take_exec {
                ei += 1;
                exec[ei - 1]
            } else {
                wi += 1;
                wake[wi - 1]
            };
            if self.active[v] {
                self.frontier_finish_node(v, executing);
                self.work.node_execs += 1;
            }
        }
        // Return the scratch buffers for the next sparse round.
        exec.clear();
        self.frontier.exec = exec;
        self.frontier.changed = changed;
        self.frontier.listeners = listeners;
        self.frontier.wake = wake;
        let report = self.frontier.report(executing);
        // Bookkeeping tail in phased-path order: span, counter, round, hook.
        drop(span);
        self.telemetry.counter_add("sim.rounds.frontier", 1);
        self.round = executing;
        if let Some(hook) = self.hook.0.as_mut() {
            hook(&self.graph, self.round, &self.states);
        }
        report
    }

    /// Receive + settle re-evaluation for one live node of a sparse round.
    fn frontier_finish_node(&mut self, v: NodeId, executing: u64) {
        self.protocol.receive(
            v,
            &mut self.states[v],
            self.sent[v],
            self.heard[v],
            &mut self.rngs[v],
        );
        self.frontier.last_exec[v] = executing;
        match self.protocol.settled_round(v, &self.states[v], self.heard[v]) {
            Some(sr) if sr.signal == self.sent[v] => {
                #[cfg(debug_assertions)]
                debug_check_settled_contract(
                    &self.protocol,
                    v,
                    &self.states[v],
                    &self.rngs[v],
                    sr,
                    self.heard[v],
                );
                self.frontier.settled[v] = true;
                self.frontier.rate[v] = sr.draws;
            }
            _ => {
                self.frontier.settled[v] = false;
                self.frontier.push_dirty(v);
            }
        }
    }

    /// Runs until `stop(states) == true` or `max_rounds` total rounds have
    /// executed; returns the first round count (1-based) at which `stop`
    /// held, or `None` on budget exhaustion.
    ///
    /// `stop` is evaluated *before* the first step (round count 0) and after
    /// every step.
    pub fn run_until<F>(&mut self, max_rounds: u64, mut stop: F) -> Option<u64>
    where
        F: FnMut(&Simulator<'g, P>) -> bool,
    {
        if stop(self) {
            return Some(self.round);
        }
        while self.round < max_rounds {
            self.step();
            if stop(self) {
                return Some(self.round);
            }
        }
        None
    }

    /// Runs exactly `rounds` rounds, discarding the per-round reports.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Consumes the simulator, returning the final states.
    pub fn into_states(self) -> Vec<P::State> {
        self.states
    }

    /// Captures the complete execution state — node states, per-node RNG
    /// positions, the round counter, the (possibly churned) topology, the
    /// participation bitmap and the channel-noise and Byzantine stream
    /// positions — so the run can later be branched or replayed from this
    /// exact point via [`Simulator::restore`]. The channel and Byzantine
    /// *configurations* are not captured: a restore keeps whatever models
    /// are installed.
    ///
    /// Frontier bookkeeping is *not* captured either — it is provably
    /// reconstructible: the captured RNG positions are materialized
    /// through the current round (settled nodes' lazily-accounted draws
    /// are ticked into the snapshot copies), and a restored run's first
    /// frontier round re-derives the settled set with one full sweep,
    /// which is bit-identical because re-executing a settled node is a
    /// draw-equivalent fixpoint under the draws-when-settled contract.
    pub fn checkpoint(&self) -> Checkpoint<P::State> {
        let mut rngs = self.rngs.clone();
        if self.frontier_live() {
            let fr = &self.frontier;
            for (v, rng) in rngs.iter_mut().enumerate() {
                if fr.settled[v] && fr.last_exec[v] < self.round && fr.rate[v] > 0 {
                    rng::advance_steps(
                        rng,
                        u128::from(self.round - fr.last_exec[v]) * u128::from(fr.rate[v]),
                    );
                }
            }
        }
        Checkpoint {
            states: self.states.clone(),
            rngs,
            round: self.round,
            sent: self.sent.clone(),
            heard: self.heard.clone(),
            graph: self.graph.clone().into_owned(),
            active: self.active.clone(),
            channel_state: self.channel_state,
            channel_rng: self.channel_rng.clone(),
            byz_rng: self.byz_rng.clone(),
        }
    }

    /// Rewinds (or fast-forwards) the simulator to a previously captured
    /// [`Checkpoint`]. Continuing from a restored checkpoint under the same
    /// channel configuration reproduces the original continuation exactly,
    /// including any topology churn applied before the capture.
    ///
    /// # Errors
    ///
    /// [`RestoreError::SizeMismatch`] if the checkpoint was taken on a
    /// different-sized network, [`RestoreError::Inconsistent`] if the
    /// checkpoint's own vectors disagree with each other (a hand-built or
    /// deserialized checkpoint gone wrong). The simulator is unchanged on
    /// error.
    pub fn restore(&mut self, checkpoint: &Checkpoint<P::State>) -> Result<(), RestoreError> {
        if checkpoint.states.len() != self.graph.len() {
            return Err(RestoreError::SizeMismatch {
                checkpoint_nodes: checkpoint.states.len(),
                simulator_nodes: self.graph.len(),
            });
        }
        checkpoint.check_consistent()?;
        // The restored RNG positions are already fully materialized (see
        // `checkpoint`); the frontier bookkeeping referred to the replaced
        // execution, so discard it — never materialize against it here.
        self.frontier_reset();
        self.states = checkpoint.states.clone();
        self.rngs = checkpoint.rngs.clone();
        self.round = checkpoint.round;
        self.sent = checkpoint.sent.clone();
        self.heard = checkpoint.heard.clone();
        self.graph = Cow::Owned(checkpoint.graph.clone());
        self.active = checkpoint.active.clone();
        self.inactive = self.active.iter().filter(|&&a| !a).count();
        self.active_bits = full_active_bits(self.active.len());
        for (v, &a) in self.active.iter().enumerate() {
            if !a {
                self.active_bits[v >> 6] &= !(1u64 << (v & 63));
            }
        }
        self.par = None; // topology may differ: replan worker ranges
        self.topology_version += 1;
        self.channel_state = checkpoint.channel_state;
        self.channel_rng = checkpoint.channel_rng.clone();
        self.byz_rng = checkpoint.byz_rng.clone();
        Ok(())
    }
}

/// Why a [`Checkpoint`] could not be restored (see [`Simulator::restore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint was captured on a network of a different size.
    SizeMismatch {
        /// Node count recorded in the checkpoint.
        checkpoint_nodes: usize,
        /// Node count of the simulator being restored.
        simulator_nodes: usize,
    },
    /// The checkpoint's own vectors disagree with each other — possible
    /// only for a checkpoint assembled via [`Checkpoint::from_parts`]
    /// (e.g. deserialized from a corrupted snapshot).
    Inconsistent(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::SizeMismatch { checkpoint_nodes, simulator_nodes } => write!(
                f,
                "checkpoint belongs to a different network: \
                 {checkpoint_nodes} nodes captured, simulator has {simulator_nodes}"
            ),
            RestoreError::Inconsistent(detail) => {
                write!(f, "checkpoint is internally inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// A captured execution point of a [`Simulator`]; see
/// [`Simulator::checkpoint`].
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    states: Vec<S>,
    rngs: Vec<Pcg64Mcg>,
    round: u64,
    sent: Vec<BeepSignal>,
    heard: Vec<BeepSignal>,
    graph: Graph,
    active: Vec<bool>,
    channel_state: ChannelState,
    channel_rng: Pcg64Mcg,
    byz_rng: Pcg64Mcg,
}

impl<S> Checkpoint<S> {
    /// The round at which the checkpoint was captured.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The captured node states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The captured per-node RNG streams, indexed by node id.
    pub fn rngs(&self) -> &[Pcg64Mcg] {
        &self.rngs
    }

    /// The captured last-round transmissions.
    pub fn sent(&self) -> &[BeepSignal] {
        &self.sent
    }

    /// The captured last-round observations.
    pub fn heard(&self) -> &[BeepSignal] {
        &self.heard
    }

    /// The captured (possibly churned) topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The captured participation bitmap.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// The captured channel-noise execution state (burst-window position).
    pub fn channel_state(&self) -> ChannelState {
        self.channel_state
    }

    /// The captured channel-noise RNG stream.
    pub fn channel_rng(&self) -> &Pcg64Mcg {
        &self.channel_rng
    }

    /// The captured Byzantine-behavior RNG stream.
    pub fn byz_rng(&self) -> &Pcg64Mcg {
        &self.byz_rng
    }

    /// Assembles a checkpoint from externally held parts — the inverse of
    /// the accessor set, used by durable-snapshot codecs to rebuild a
    /// checkpoint after deserialization. The parts are validated against
    /// each other on [`Simulator::restore`], not here, so a codec can
    /// surface a typed [`RestoreError`] instead of a panic.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        states: Vec<S>,
        rngs: Vec<Pcg64Mcg>,
        round: u64,
        sent: Vec<BeepSignal>,
        heard: Vec<BeepSignal>,
        graph: Graph,
        active: Vec<bool>,
        channel_state: ChannelState,
        channel_rng: Pcg64Mcg,
        byz_rng: Pcg64Mcg,
    ) -> Checkpoint<S> {
        Checkpoint {
            states,
            rngs,
            round,
            sent,
            heard,
            graph,
            active,
            channel_state,
            channel_rng,
            byz_rng,
        }
    }

    /// Cross-checks the checkpoint's vectors against each other; every
    /// simulator-captured checkpoint passes by construction.
    fn check_consistent(&self) -> Result<(), RestoreError> {
        let n = self.states.len();
        let fields = [
            ("rngs", self.rngs.len()),
            ("sent", self.sent.len()),
            ("heard", self.heard.len()),
            ("graph", self.graph.len()),
            ("active", self.active.len()),
        ];
        for (name, len) in fields {
            if len != n {
                return Err(RestoreError::Inconsistent(format!(
                    "{name} covers {len} nodes but states covers {n}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Channels, SettledRound};
    use graphs::generators::classic;
    use rand::RngCore;

    /// Parity protocol: node beeps iff its counter is even; counter
    /// increments when it hears a beep.
    struct Parity;
    impl BeepingProtocol for Parity {
        type State = u64;
        fn channels(&self) -> Channels {
            Channels::One
        }
        fn transmit(&self, _: NodeId, state: &u64, _: &mut dyn RngCore) -> BeepSignal {
            if state.is_multiple_of(2) {
                BeepSignal::channel1()
            } else {
                BeepSignal::silent()
            }
        }
        fn receive(
            &self,
            _: NodeId,
            state: &mut u64,
            _: BeepSignal,
            heard: BeepSignal,
            _: &mut dyn RngCore,
        ) {
            if heard.on_channel1() {
                *state += 1;
            }
        }
    }

    #[test]
    fn no_self_hearing() {
        // A single isolated node beeps but must hear nothing.
        let g = Graph::empty(1);
        let mut sim = Simulator::new(&g, Parity, vec![0], 0);
        let report = sim.step();
        assert_eq!(report.beeps_channel1, 1);
        assert_eq!(report.hearers_channel1, 0);
        // The counter never advances: it never hears anything.
        sim.run(10);
        assert_eq!(*sim.state(0), 0);
    }

    #[test]
    fn half_duplex_deafens_transmitters() {
        // Both path endpoints beep in round 1; under half duplex neither
        // hears the other, so neither counter advances.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0).with_duplex(DuplexMode::Half);
        assert_eq!(sim.duplex(), DuplexMode::Half);
        sim.step();
        assert_eq!(sim.states(), &[0, 0]);
        // A silent node still hears: make node 1 silent (odd counter).
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0).with_duplex(DuplexMode::Half);
        sim.step();
        assert_eq!(sim.states(), &[0, 2]); // only the silent node heard
    }

    #[test]
    fn or_semantics_on_star() {
        // All leaves beep in round 1 (state 0 = even); the hub hears one bit.
        let g = classic::star(5);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0, 0, 0], 0);
        sim.step();
        // Hub heard (4 leaf beeps → 1 bit) and each leaf heard the hub.
        assert!(sim.last_heard().iter().all(|h| h.on_channel1()));
        assert!(sim.states().iter().all(|&s| s == 1));
    }

    #[test]
    fn deterministic_for_seed() {
        struct Coin;
        impl BeepingProtocol for Coin {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut dyn RngCore) -> BeepSignal {
                if rng.next_u32().is_multiple_of(2) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                _: BeepSignal,
                _: &mut dyn RngCore,
            ) {
                *s = s.wrapping_mul(31).wrapping_add(sent.on_channel1() as u32);
            }
        }
        let g = classic::cycle(16);
        let run = |seed| {
            let mut sim = Simulator::new(&g, Coin, vec![0; 16], seed);
            sim.run(50);
            sim.into_states()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        // Both nodes beep in round 1 (counter 0 is even), hear each other,
        // and increment to 1 — then both go silent forever.
        let stopped = sim.run_until(100, |s| s.states().iter().all(|&c| c >= 1));
        assert_eq!(stopped, Some(1));
        assert_eq!(sim.states(), &[1, 1]);
    }

    #[test]
    fn run_until_checks_initial_state() {
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![5, 5], 0);
        assert_eq!(sim.run_until(100, |s| s.states().iter().all(|&c| c == 5)), Some(0));
        assert_eq!(sim.round(), 0);
    }

    #[test]
    fn run_until_budget_exhaustion() {
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        assert_eq!(sim.run_until(5, |_| false), None);
        assert_eq!(sim.round(), 5);
    }

    #[test]
    fn checkpoint_restore_reproduces_continuation() {
        struct Coin2;
        impl BeepingProtocol for Coin2 {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut dyn RngCore) -> BeepSignal {
                if rng.next_u32().is_multiple_of(3) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                heard: BeepSignal,
                _: &mut dyn RngCore,
            ) {
                *s = s
                    .wrapping_mul(17)
                    .wrapping_add(sent.on_channel1() as u32)
                    .wrapping_add(2 * heard.on_channel1() as u32);
            }
        }
        let g = classic::cycle(12);
        let mut sim = Simulator::new(&g, Coin2, vec![0; 12], 5);
        sim.run(20);
        let cp = sim.checkpoint();
        assert_eq!(cp.round(), 20);
        sim.run(30);
        let final_a = sim.states().to_vec();
        // Rewind and replay.
        sim.restore(&cp).unwrap();
        assert_eq!(sim.round(), 20);
        assert_eq!(sim.states(), cp.states());
        sim.run(30);
        assert_eq!(sim.states(), final_a.as_slice());
    }

    #[test]
    fn corrupt_state_changes_behavior() {
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.corrupt_state(0, 1); // odd: silent
        sim.corrupt_state(1, 1);
        sim.step();
        assert_eq!(sim.states(), &[1, 1]); // nobody beeped, nothing heard
    }

    #[test]
    fn corrupt_all_applies_everywhere() {
        let g = classic::cycle(4);
        let mut sim = Simulator::new(&g, Parity, vec![0; 4], 0);
        sim.corrupt_all(|v, s| *s = v as u64);
        assert_eq!(sim.states(), &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "undeclared channel")]
    fn channel_discipline_enforced() {
        struct Cheater;
        impl BeepingProtocol for Cheater {
            type State = ();
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &(), _: &mut dyn RngCore) -> BeepSignal {
                BeepSignal::channel2()
            }
            fn receive(
                &self,
                _: NodeId,
                _: &mut (),
                _: BeepSignal,
                _: BeepSignal,
                _: &mut dyn RngCore,
            ) {
            }
        }
        let g = classic::path(2);
        Simulator::new(&g, Cheater, vec![(), ()], 0).step();
    }

    #[test]
    #[should_panic(expected = "one initial state per node")]
    fn wrong_state_count_panics() {
        let g = classic::path(3);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0);
    }

    #[test]
    fn full_drop_silences_every_delivery() {
        // With drop_p = 1 nobody ever hears a beep, so Parity counters
        // never advance even on a dense graph.
        let g = classic::complete(6);
        let mut sim = Simulator::new(&g, Parity, vec![0; 6], 3)
            .with_channel(ChannelFault::reliable().with_drop(1.0));
        sim.run(20);
        assert_eq!(sim.states(), &[0; 6]);
        // The beeps were still transmitted — only delivery failed.
        assert!(sim.last_sent().iter().all(|s| s.on_channel1()));
        assert!(sim.last_heard().iter().all(|h| h.is_silent()));
    }

    #[test]
    fn full_spurious_reaches_isolated_nodes() {
        // spurious_p = 1 makes even a totally disconnected node hear a beep
        // every round: a pure false positive.
        let g = Graph::empty(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 7)
            .with_channel(ChannelFault::reliable().with_spurious(1.0));
        sim.run(5);
        assert_eq!(sim.states(), &[5, 5]);
    }

    #[test]
    fn half_duplex_transmitters_get_no_spurious_beeps() {
        // Half duplex deafens a transmitting node to spurious beeps too:
        // noise is applied inside the hearing branch.
        let g = Graph::empty(1);
        let mut sim = Simulator::new(&g, Parity, vec![0], 7)
            .with_duplex(DuplexMode::Half)
            .with_channel(ChannelFault::reliable().with_spurious(1.0));
        sim.step(); // counter 0 → beeping → deaf
        assert_eq!(*sim.state(0), 0);
        sim.step(); // still beeping (counter still even), still deaf
        assert_eq!(*sim.state(0), 0);
    }

    #[test]
    fn always_beep_jammer_overrides_protocol_silence() {
        // Node 0 starts odd (silent under Parity) but is an AlwaysBeep
        // jammer: its neighbor hears it anyway.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![1, 1], 0)
            .with_channel(ChannelFault::reliable().with_jammer(0, JammerKind::AlwaysBeep));
        sim.step();
        assert!(sim.last_sent()[0].on_channel1());
        assert_eq!(sim.states(), &[1, 2]); // only node 1 heard a beep
    }

    #[test]
    fn always_silent_jammer_mutes_protocol_beeps() {
        // Node 0 starts even (beeping under Parity) but its radio is dead:
        // the neighbor hears nothing.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0)
            .with_channel(ChannelFault::reliable().with_jammer(0, JammerKind::AlwaysSilent));
        sim.step();
        assert!(sim.last_sent()[0].is_silent());
        assert_eq!(sim.states(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "jammer node 9 out of range")]
    fn out_of_range_jammer_rejected() {
        let g = classic::path(2);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0)
            .with_channel(ChannelFault::reliable().with_jammer(9, JammerKind::AlwaysBeep));
    }

    #[test]
    fn channel_noise_is_deterministic_for_seed() {
        let g = classic::cycle(10);
        let run = |seed| {
            let mut sim = Simulator::new(&g, Parity, vec![0; 10], seed)
                .with_channel(ChannelFault::reliable().with_drop(0.4).with_spurious(0.05));
            sim.run(60);
            sim.into_states()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn channel_noise_never_touches_node_streams() {
        // Coin's state depends only on its own transmissions, which draw
        // from the per-node streams — heavy channel noise must not perturb
        // them, because channel randomness lives on a dedicated stream.
        struct Coin;
        impl BeepingProtocol for Coin {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut dyn RngCore) -> BeepSignal {
                if rng.next_u32().is_multiple_of(2) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                _: BeepSignal,
                _: &mut dyn RngCore,
            ) {
                *s = s.wrapping_mul(31).wrapping_add(sent.on_channel1() as u32);
            }
        }
        let g = classic::cycle(8);
        let run = |channel: ChannelFault| {
            let mut sim = Simulator::new(&g, Coin, vec![0; 8], 42).with_channel(channel);
            sim.run(40);
            sim.into_states()
        };
        let clean = run(ChannelFault::reliable());
        let noisy = run(ChannelFault::reliable().with_drop(0.9).with_spurious(0.9));
        assert_eq!(clean, noisy);
    }

    #[test]
    fn churn_edges_change_delivery() {
        // Two isolated nodes never hear each other; after inserting the
        // edge they do, and after removing it they stop again.
        let g = Graph::empty(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step();
        assert_eq!(sim.states(), &[0, 0]);
        assert_eq!(sim.insert_edge(0, 1), Ok(true));
        assert_eq!(sim.insert_edge(0, 1), Ok(false)); // idempotent
        assert_eq!(sim.graph().degree(0), 1);
        sim.step();
        assert_eq!(sim.states(), &[1, 1]);
        assert_eq!(sim.remove_edge(0, 1), Ok(true));
        assert_eq!(sim.remove_edge(0, 1), Ok(false));
        sim.step();
        assert_eq!(sim.states(), &[1, 1]);
        // The borrowed input graph is untouched (copy-on-write).
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn node_leave_and_join_round_trip() {
        let g = classic::path(3); // 0 - 1 - 2
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        assert_eq!(sim.active_count(), 3);
        assert_eq!(sim.node_leave(1), Ok(2));
        assert!(!sim.is_active(1));
        assert_eq!(sim.active_count(), 2);
        assert_eq!(sim.node_leave(1), Ok(0)); // idempotent
        sim.step();
        // The departed middle node is frozen; the endpoints are isolated.
        assert_eq!(sim.states(), &[0, 0, 0]);
        assert!(sim.last_sent()[1].is_silent());
        // Rejoin with fresh (adversarial) state and both edges back.
        sim.node_join(1, &[0, 2], 0).unwrap();
        assert!(sim.is_active(1));
        assert_eq!(sim.graph().degree(1), 2);
        sim.step();
        assert_eq!(sim.states(), &[1, 1, 1]);
    }

    #[test]
    fn node_leave_clears_stale_signals() {
        // Regression: a departing node's last transmission/observation used
        // to linger in `last_sent`/`last_heard`, so observers (and the
        // checkpoint) saw a "ghost beep" from an inactive radio.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step(); // both beep and hear each other
        assert!(sim.last_sent()[1].on_channel1());
        assert!(sim.last_heard()[1].on_channel1());
        sim.node_leave(1).unwrap();
        assert!(sim.last_sent()[1].is_silent());
        assert!(sim.last_heard()[1].is_silent());
        // The survivor's signals are untouched.
        assert!(sim.last_sent()[0].on_channel1());
        // And the next round still treats the departed node as silent.
        sim.step();
        assert!(sim.last_sent()[1].is_silent());
        assert!(sim.last_heard()[0].is_silent());
    }

    #[test]
    fn node_join_clears_stale_signals() {
        // Regression (mirror of `node_leave_clears_stale_signals`): a node
        // that rejoins boots fresh, so the transmission/observation captured
        // before its departure — or, for a join without a prior leave, last
        // round's signals — must not survive the join.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step(); // both beep and hear each other
        sim.node_leave(1).unwrap();
        // Simulate signal state lingering from before the leave by joining
        // straight back: the join itself must leave the radio silent.
        sim.node_join(1, &[0], 1).unwrap();
        assert!(sim.is_active(1));
        assert!(sim.last_sent()[1].is_silent());
        assert!(sim.last_heard()[1].is_silent());
        // A join on a node that never left also resets its signals: the
        // adversary hands it arbitrary RAM, not a radio mid-transmission.
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0);
        sim.step();
        assert!(sim.last_sent()[0].on_channel1());
        sim.node_join(0, &[1], 1).unwrap();
        assert!(sim.last_sent()[0].is_silent());
        assert!(sim.last_heard()[0].is_silent());
    }

    #[test]
    fn batch_edge_diff_matches_sequential_churn() {
        let g = classic::path(4); // 0 - 1 - 2 - 3
        let mut batch = Simulator::new(&g, Parity, vec![0; 4], 0);
        let mut seq = Simulator::new(&g, Parity, vec![0; 4], 0);
        batch.step();
        seq.step();
        let counts = batch.apply_edge_diff(&[(0, 2), (1, 3)], &[(1, 2)]).unwrap();
        assert_eq!(counts, (2, 1));
        assert_eq!(seq.remove_edge(1, 2), Ok(true));
        assert_eq!(seq.insert_edge(0, 2), Ok(true));
        assert_eq!(seq.insert_edge(1, 3), Ok(true));
        assert_eq!(batch.graph(), seq.graph());
        for _ in 0..4 {
            batch.step();
            seq.step();
            assert_eq!(batch.states(), seq.states());
            assert_eq!(batch.last_sent(), seq.last_sent());
            assert_eq!(batch.last_heard(), seq.last_heard());
        }
        // The borrowed input graph is untouched (copy-on-write).
        assert_eq!(g, classic::path(4));
    }

    #[test]
    fn batch_edge_diff_never_touches_signals_or_participation() {
        // The staleness audit for the batch path: edge updates must leave
        // `active`, `sent` and `heard` exactly as they were, for every node.
        let g = classic::path(3);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        sim.step();
        sim.node_leave(2).unwrap();
        let sent: Vec<BeepSignal> = sim.last_sent().to_vec();
        let heard: Vec<BeepSignal> = sim.last_heard().to_vec();
        let active: Vec<bool> = sim.active().to_vec();
        sim.apply_edge_diff(&[(0, 2)], &[(0, 1)]).unwrap();
        assert_eq!(sim.last_sent(), &sent[..]);
        assert_eq!(sim.last_heard(), &heard[..]);
        assert_eq!(sim.active(), &active[..]);
    }

    #[test]
    fn topology_version_tracks_edge_and_participation_mutations() {
        let g = classic::path(4); // 0 - 1 - 2 - 3
        let mut sim = Simulator::new(&g, Parity, vec![0; 4], 0);
        let cp = sim.checkpoint();
        let mut seen = sim.topology_version();
        let mut bumped = |sim: &Simulator<'_, Parity>, what: &str| {
            let now = sim.topology_version();
            assert_ne!(now, seen, "{what} must bump the topology version");
            seen = now;
        };
        assert_eq!(sim.insert_edge(0, 2), Ok(true));
        bumped(&sim, "insert_edge");
        assert_eq!(sim.remove_edge(0, 2), Ok(true));
        bumped(&sim, "remove_edge");
        assert_eq!(sim.apply_edge_diff(&[(0, 3)], &[(1, 2)]), Ok((1, 1)));
        bumped(&sim, "apply_edge_diff");
        sim.node_leave(3).unwrap();
        bumped(&sim, "node_leave");
        sim.node_join(3, &[2], 1).unwrap();
        bumped(&sim, "node_join");
        sim.restore(&cp).unwrap();
        bumped(&sim, "restore");

        // Rounds, corruptions and no-op edge updates leave it alone.
        let stable = sim.topology_version();
        sim.step();
        sim.corrupt_state(1, 7);
        sim.corrupt_all(|_, s| *s += 1);
        assert_eq!(sim.insert_edge(0, 1), Ok(false));
        assert_eq!(sim.remove_edge(0, 2), Ok(false));
        assert_eq!(sim.apply_edge_diff(&[(0, 1)], &[(0, 3)]), Ok((0, 0)));
        assert_eq!(sim.topology_version(), stable);
    }

    #[test]
    fn batch_edge_diff_rejects_invalid_and_leaves_topology_unchanged() {
        let g = classic::path(3);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0, 0], 0);
        assert_eq!(
            sim.apply_edge_diff(&[(0, 3)], &[]),
            Err(ChurnError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(sim.apply_edge_diff(&[(0, 2)], &[(1, 1)]), Err(ChurnError::SelfEdge(1)));
        assert_eq!(sim.graph(), &classic::path(3));
    }

    #[test]
    fn invariant_hook_observes_every_round() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let g = classic::path(2);
        #[allow(clippy::type_complexity)]
        let seen: Rc<RefCell<Vec<(u64, Vec<u64>)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut sim = Simulator::new(&g, Parity, vec![0, 0], 0).with_invariant_hook(
            move |graph, round, states: &[u64]| {
                assert_eq!(graph.len(), 2);
                sink.borrow_mut().push((round, states.to_vec()));
            },
        );
        sim.run(3);
        // Round 1: both beep (even counters), hear each other, increment;
        // afterwards both are odd and silent forever.
        assert_eq!(*seen.borrow(), vec![(1, vec![1, 1]), (2, vec![1, 1]), (3, vec![1, 1])]);
        // The hook observes only: removing it never changes the execution.
        let mut plain = Simulator::new(&g, Parity, vec![0, 0], 0);
        plain.run(3);
        assert_eq!(plain.states(), sim.states());
    }

    #[test]
    #[should_panic(expected = "invariant violated in round 2")]
    fn invariant_hook_panics_propagate() {
        let g = classic::path(2);
        let mut sim =
            Simulator::new(&g, Parity, vec![0, 0], 0).with_invariant_hook(|_, round, _| {
                assert!(round < 2, "invariant violated in round {round}");
            });
        sim.run(5);
    }

    #[test]
    fn stuck_beep_overrides_protocol_silence() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // Node 0 starts odd (silent under Parity) but its radio is stuck on:
        // the neighbor hears it every round.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![1, 1], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckBeep));
        sim.step();
        assert!(sim.last_sent()[0].on_channel1());
        assert_eq!(sim.states(), &[1, 2]); // only node 1 heard a beep
    }

    #[test]
    fn stuck_silent_mutes_protocol_beeps() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckSilent));
        sim.step();
        assert!(sim.last_sent()[0].is_silent());
        assert_eq!(sim.states(), &[0, 1]);
    }

    #[test]
    fn byzantine_overrides_beat_jammers() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // Node 0 is both an AlwaysBeep jammer and StuckSilent Byzantine: the
        // Byzantine radio wins, so nothing is transmitted.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![0, 1], 0)
            .with_channel(ChannelFault::reliable().with_jammer(0, JammerKind::AlwaysBeep))
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckSilent));
        sim.step();
        assert!(sim.last_sent()[0].is_silent());
    }

    #[test]
    fn babbler_extremes_are_stuck_radios() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let run = |p: f64| {
            let mut sim = Simulator::new(&g, Parity, vec![1, 1], 3).with_byzantine(
                ByzantinePlan::new().with_behavior(0, ByzantineBehavior::Babbler(p)),
            );
            let mut beeps = 0;
            for _ in 0..30 {
                sim.step();
                beeps += sim.last_sent()[0].on_channel1() as u32;
            }
            beeps
        };
        assert_eq!(run(0.0), 0);
        assert_eq!(run(1.0), 30);
        let mid = run(0.5);
        assert!((5..=25).contains(&mid), "babbler(0.5) beeped {mid}/30 rounds");
    }

    #[test]
    fn babbler_is_deterministic_and_off_the_node_streams() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // Same seed → identical trajectory; and the babbler's coins come
        // from the dedicated stream, so the *other* node's transmissions
        // (driven by its private stream) are identical with and without the
        // babbler present.
        let g = classic::path(2);
        let plan = || ByzantinePlan::new().with_behavior(0, ByzantineBehavior::Babbler(0.5));
        let run = |seed: u64| {
            let mut sim = Simulator::new(&g, Parity, vec![0, 0], seed).with_byzantine(plan());
            sim.run(40);
            sim.into_states()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn crash_restart_reboots_on_schedule() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan, Resurrect};
        // Isolated node: Parity never updates its counter (hears nothing),
        // so the only state changes are the scheduled reboots to 99.
        let g = Graph::empty(1);
        let mut sim = Simulator::new(&g, Parity, vec![0], 0).with_byzantine(
            ByzantinePlan::new().with_behavior(
                0,
                ByzantineBehavior::CrashRestart {
                    period: 5,
                    resurrect: Resurrect::new(|_, round, _| 90 + round),
                },
            ),
        );
        sim.run(4);
        assert_eq!(*sim.state(0), 0); // untouched before the first reboot
        sim.step(); // round 5: reboot fires before the transmission
        assert_eq!(*sim.state(0), 95);
        sim.run(4);
        assert_eq!(*sim.state(0), 95);
        sim.step(); // round 10
        assert_eq!(*sim.state(0), 100);
    }

    #[test]
    fn empty_byzantine_plan_is_bit_identical_to_baseline() {
        use crate::byzantine::ByzantinePlan;
        struct Coin3;
        impl BeepingProtocol for Coin3 {
            type State = u32;
            fn channels(&self) -> Channels {
                Channels::One
            }
            fn transmit(&self, _: NodeId, _: &u32, rng: &mut dyn RngCore) -> BeepSignal {
                if rng.next_u32().is_multiple_of(2) {
                    BeepSignal::channel1()
                } else {
                    BeepSignal::silent()
                }
            }
            fn receive(
                &self,
                _: NodeId,
                s: &mut u32,
                sent: BeepSignal,
                heard: BeepSignal,
                _: &mut dyn RngCore,
            ) {
                *s = s
                    .wrapping_mul(31)
                    .wrapping_add(sent.on_channel1() as u32)
                    .wrapping_add(5 * heard.on_channel1() as u32);
            }
        }
        let g = classic::cycle(10);
        let mut with_plan =
            Simulator::new(&g, Coin3, vec![0; 10], 21).with_byzantine(ByzantinePlan::new());
        let mut without = Simulator::new(&g, Coin3, vec![0; 10], 21);
        for _ in 0..50 {
            with_plan.step();
            without.step();
            assert_eq!(with_plan.states(), without.states());
        }
    }

    #[test]
    fn byzantine_checkpoint_restore_replays_babbler() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::cycle(8);
        let mut sim = Simulator::new(&g, Parity, vec![0; 8], 17)
            .with_byzantine(ByzantinePlan::new().with_behavior(2, ByzantineBehavior::Babbler(0.5)));
        sim.run(15);
        let cp = sim.checkpoint();
        sim.run(25);
        let final_a = sim.states().to_vec();
        sim.restore(&cp).unwrap();
        sim.run(25);
        assert_eq!(sim.states(), final_a.as_slice());
    }

    #[test]
    fn inactive_byzantine_node_is_frozen() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        // A departed stuck-beeper neither transmits nor reboots.
        let g = classic::path(2);
        let mut sim = Simulator::new(&g, Parity, vec![1, 0], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::StuckBeep));
        sim.node_leave(0).unwrap();
        sim.step();
        assert!(sim.last_sent()[0].is_silent());
        assert_eq!(*sim.state(1), 0); // heard nothing: its neighbor departed
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_byzantine_node_rejected() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(5, ByzantineBehavior::StuckBeep));
    }

    #[test]
    #[should_panic(expected = "two-channel")]
    fn channel2_liar_rejected_on_single_channel_protocol() {
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan};
        let g = classic::path(2);
        let _ = Simulator::new(&g, Parity, vec![0, 0], 0)
            .with_byzantine(ByzantinePlan::new().with_behavior(0, ByzantineBehavior::Channel2Liar));
    }

    #[test]
    fn checkpoint_restore_covers_churn_and_noise() {
        let g = classic::cycle(6);
        let mut sim = Simulator::new(&g, Parity, vec![0; 6], 13)
            .with_channel(ChannelFault::reliable().with_drop(0.3));
        sim.run(10);
        sim.remove_edge(0, 1).unwrap();
        sim.node_leave(3).unwrap();
        sim.run(5);
        let cp = sim.checkpoint();
        sim.insert_edge(0, 1).unwrap();
        sim.run(20);
        let final_a = sim.states().to_vec();
        let round_a = sim.round();
        // Restore must bring back the churned topology, the active mask and
        // the channel-RNG position, so the replay (with the same later
        // churn) reproduces the continuation exactly.
        sim.restore(&cp).unwrap();
        assert_eq!(sim.round(), 15);
        assert_eq!(sim.graph().degree(3), 0);
        assert!(!sim.is_active(3));
        sim.insert_edge(0, 1).unwrap();
        sim.run(20);
        assert_eq!(sim.states(), final_a.as_slice());
        assert_eq!(sim.round(), round_a);
    }

    /// Claim/retreat probe with absorbing configurations and a
    /// `settled_round` certificate — the lib-test stand-in for Algorithm 1,
    /// used to exercise the frontier engine's skip path. Level 0 claims
    /// (beeps, one confirmation draw per round); hearing a beep pushes the
    /// level up toward 5; silence pulls a non-beeping node down; interior
    /// levels flip a fair coin to beep.
    struct Claimer;
    impl BeepingProtocol for Claimer {
        type State = u64;
        fn channels(&self) -> Channels {
            Channels::One
        }
        fn transmit(&self, _: NodeId, s: &u64, rng: &mut dyn RngCore) -> BeepSignal {
            if *s == 0 {
                let _ = rng.next_u64();
                BeepSignal::channel1()
            } else if *s >= 5 {
                BeepSignal::silent()
            } else if rng.next_u64().is_multiple_of(2) {
                BeepSignal::channel1()
            } else {
                BeepSignal::silent()
            }
        }
        fn receive(
            &self,
            _: NodeId,
            s: &mut u64,
            sent: BeepSignal,
            heard: BeepSignal,
            _: &mut dyn RngCore,
        ) {
            if heard.on_channel1() {
                *s = (*s + 1).min(5);
            } else if !sent.on_channel1() {
                *s = s.saturating_sub(1);
            }
        }
        fn settled_round(&self, _: NodeId, s: &u64, heard: BeepSignal) -> Option<SettledRound> {
            if *s == 0 && !heard.on_channel1() {
                Some(SettledRound { signal: BeepSignal::channel1(), draws: 1 })
            } else if *s >= 5 && heard.on_channel1() {
                Some(SettledRound { signal: BeepSignal::silent(), draws: 0 })
            } else {
                None
            }
        }
    }

    fn claimer_pair(g: &Graph, seed: u64) -> (Simulator<'_, Claimer>, Simulator<'_, Claimer>) {
        let init: Vec<u64> = g.nodes().map(|v| (v as u64) % 6).collect();
        let scalar = Simulator::new(g, Claimer, init.clone(), seed);
        let frontier = Simulator::new(g, Claimer, init, seed).with_engine(EngineMode::Frontier);
        (scalar, frontier)
    }

    #[test]
    fn frontier_fallback_threshold_values() {
        // Small networks never fall back (the floor keeps the whole graph
        // under the cutoff); large ones cut over at n/8 dirty nodes.
        assert_eq!(frontier_fallback_threshold(0), 16);
        assert_eq!(frontier_fallback_threshold(16), 16);
        assert_eq!(frontier_fallback_threshold(128), 16);
        assert_eq!(frontier_fallback_threshold(136), 17);
        assert_eq!(frontier_fallback_threshold(65_536), 8_192);
    }

    #[test]
    fn frontier_matches_scalar_past_stabilization() {
        let g = classic::cycle(12);
        let (mut scalar, mut frontier) = claimer_pair(&g, 11);
        for round in 1..=60 {
            let a = scalar.step();
            let b = frontier.step();
            assert_eq!(a, b, "report diverged at round {round}");
            assert_eq!(scalar.states(), frontier.states(), "states diverged at round {round}");
            assert_eq!(scalar.last_sent(), frontier.last_sent());
            assert_eq!(scalar.last_heard(), frontier.last_heard());
        }
    }

    #[test]
    fn frontier_reseeds_dirty_from_events() {
        // Every disturbance source must push the affected nodes back onto
        // the frontier: point corruption, channel noise install/remove,
        // Byzantine plan swaps, churn, and batched edge diffs. The scalar
        // twin receives the identical script, so any missed re-seeding
        // shows up as a state divergence within a round.
        use crate::byzantine::{ByzantineBehavior, ByzantinePlan, Resurrect};
        let g = classic::cycle(10);
        let (mut scalar, mut frontier) = claimer_pair(&g, 23);
        let lockstep = |scalar: &mut Simulator<'_, Claimer>,
                        frontier: &mut Simulator<'_, Claimer>,
                        rounds: u64| {
            for _ in 0..rounds {
                let a = scalar.step();
                let b = frontier.step();
                assert_eq!(a, b, "report diverged at round {}", scalar.round());
                assert_eq!(
                    scalar.states(),
                    frontier.states(),
                    "states diverged at round {}",
                    scalar.round()
                );
            }
        };
        lockstep(&mut scalar, &mut frontier, 25); // settle
        scalar.corrupt_state(3, 0); // point fault
        frontier.corrupt_state(3, 0);
        lockstep(&mut scalar, &mut frontier, 10);
        let noisy = ChannelFault::reliable().with_drop(0.25);
        scalar.set_channel(noisy.clone()); // noise burst begins
        frontier.set_channel(noisy);
        lockstep(&mut scalar, &mut frontier, 8);
        scalar.set_channel(ChannelFault::reliable()); // burst ends: resync
        frontier.set_channel(ChannelFault::reliable());
        lockstep(&mut scalar, &mut frontier, 10);
        let reboot = || {
            ByzantinePlan::new().with_behavior(
                7,
                ByzantineBehavior::CrashRestart {
                    period: 3,
                    resurrect: Resurrect::new(|_, _, _| 0),
                },
            )
        };
        scalar.set_byzantine(reboot()); // crash-restart radio appears
        frontier.set_byzantine(reboot());
        lockstep(&mut scalar, &mut frontier, 8);
        scalar.set_byzantine(ByzantinePlan::new()); // and is repaired
        frontier.set_byzantine(ByzantinePlan::new());
        lockstep(&mut scalar, &mut frontier, 10);
        scalar.node_leave(5).unwrap(); // churn out…
        frontier.node_leave(5).unwrap();
        lockstep(&mut scalar, &mut frontier, 8);
        scalar.node_join(5, &[4, 6], 2).unwrap(); // …and back in
        frontier.node_join(5, &[4, 6], 2).unwrap();
        lockstep(&mut scalar, &mut frontier, 8);
        // Motion-style batched diff: rewire a chord, drop a cycle edge.
        let added = [(0usize, 5usize)];
        let removed = [(8usize, 9usize)];
        assert_eq!(scalar.apply_edge_diff(&added, &removed).unwrap(), (1, 1));
        assert_eq!(frontier.apply_edge_diff(&added, &removed).unwrap(), (1, 1));
        lockstep(&mut scalar, &mut frontier, 12);
    }

    #[test]
    fn frontier_checkpoint_materializes_pending_draws() {
        // Checkpoint deep in quiescence, when settled claimers hold long
        // lazily-accounted draw backlogs: the snapshot must bake those
        // draws into the captured streams so a restored run (which rebuilds
        // the frontier from scratch) continues bit-identically.
        let g = classic::cycle(12);
        let (mut scalar, mut frontier) = claimer_pair(&g, 31);
        scalar.run(40);
        frontier.run(40);
        assert_eq!(scalar.states(), frontier.states());
        let cp = frontier.checkpoint();
        scalar.run(20);
        frontier.run(20);
        let final_states = frontier.states().to_vec();
        assert_eq!(scalar.states(), final_states.as_slice());
        frontier.restore(&cp).unwrap();
        assert_eq!(frontier.round(), 40);
        frontier.run(20);
        assert_eq!(frontier.states(), final_states.as_slice());
        // A perturbation after the restore still matches the scalar twin —
        // the woken streams resume at the exact post-materialization
        // positions.
        let cp2 = frontier.checkpoint();
        let mut scalar2 = scalar; // same round, same states
        frontier.restore(&cp2).unwrap();
        frontier.corrupt_state(6, 0);
        scalar2.corrupt_state(6, 0);
        for _ in 0..15 {
            let a = scalar2.step();
            let b = frontier.step();
            assert_eq!(a, b);
            assert_eq!(scalar2.states(), frontier.states());
        }
    }
}
