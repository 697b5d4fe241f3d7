//! The paper's contribution: **self-stabilizing MIS computation in the
//! beeping model** (Giakkoupis, Turau & Ziccardi, PODC 2024).
//!
//! Two algorithms are implemented, exactly as in the paper's pseudocode:
//!
//! - [`algorithm1::Algorithm1`] — the single-channel self-stabilizing
//!   version of Jeavons, Scott & Xu's algorithm (paper Algorithm 1). Every
//!   node keeps an integer *level* `ℓ ∈ {-ℓmax(v), …, ℓmax(v)}` that drives
//!   its beeping probability (Figure 1) and is updated from the single
//!   heard/not-heard bit each round.
//! - [`algorithm2::Algorithm2`] — the two-channel variant (paper Algorithm
//!   2, Corollary 2.3), where channel 2 is a persistent "I am in the MIS"
//!   signal and `ℓ ∈ {0, …, ℓmax(v)}`.
//!
//! The *knowledge* each vertex has about the topology is captured by
//! [`policy::LmaxPolicy`], with one constructor per theorem:
//! global maximum degree (Thm 2.1), own degree (Thm 2.2), and 1-hop
//! neighborhood maximum degree (Cor 2.3).
//!
//! Beyond the paper, [`adaptive`] explores §8's open question with a
//! knowledge-free variant that learns its level cap from collisions, and
//! [`dynamics`] computes per-round convergence trajectories.
//!
//! [`observer`] mirrors the paper's analysis machinery — the stable sets
//! `I_t`/`S_t`, prominent vertices, platinum and golden rounds, and the
//! potentials `d_t`, `η_t`, `η′_t` — so experiments can measure exactly the
//! quantities the proofs bound. [`runner`] is the high-level "run until
//! stabilized" API used by examples, tests, benches and experiments, and
//! [`recovery`] extends it to unreliable networks: channel noise, jammers
//! and topology churn with per-event re-stabilization tracking. Their stop
//! checks and per-round observables come from [`detector`], which keeps
//! `I_t`/`S_t` counts incrementally instead of rescanning every round.
//! [`containment`] certifies that permanently Byzantine nodes disrupt only
//! a bounded radius around themselves, and [`adversary`] hill-climbs over
//! Byzantine placements and initial configurations for worst cases;
//! [`scenario`] extends that search to moving deployments, jointly over
//! motion speed, churn rate and placement.
//!
//! # Example
//!
//! ```
//! use graphs::generators::random;
//! use mis::algorithm1::Algorithm1;
//! use mis::policy::LmaxPolicy;
//! use mis::runner::{InitialLevels, RunConfig};
//!
//! let g = random::gnp(100, 0.08, 7);
//! let outcome = Algorithm1::new(&g, LmaxPolicy::global_delta(&g))
//!     .run(&g, RunConfig::new(7).with_init(InitialLevels::Random))
//!     .expect("stabilizes well within the default budget");
//! assert!(graphs::mis::is_maximal_independent_set(&g, &outcome.mis));
//! ```

pub mod adaptive;
pub mod adversary;
pub mod algorithm1;
pub mod algorithm2;
pub mod containment;
pub mod detector;
pub mod dynamics;
pub mod invariant;
pub mod levels;
pub mod observer;
pub mod policy;
pub mod recovery;
pub mod resumable;
pub mod runner;
pub mod scenario;
pub mod theory;

pub use adversary::{AdversaryConfig, SearchBehavior, WorstCase};
pub use algorithm1::Algorithm1;
pub use algorithm2::Algorithm2;
pub use containment::{ContainmentConfig, ContainmentOutcome, ContainmentSample};
pub use detector::{Stability, StabilityTracker};
pub use invariant::{InvariantChecker, LevelSpace};
pub use policy::LmaxPolicy;
pub use recovery::{NoisyOutcome, NoisyRunConfig};
pub use resumable::{
    PlanError, ResumableConfig, ResumableOutcome, ResumableRun, ResumeError, RunCheckpoint,
    RunStatus,
};
pub use runner::{InitialLevels, Outcome, RunConfig, StabilizationError};
pub use scenario::{Scenario, ScenarioConfig, ScenarioScore, WorstScenario};
