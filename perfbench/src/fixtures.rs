//! Seeded session plans for the three workloads. The seed picks the
//! session mix, the timing perturbations and the simulator seeds; the
//! aggregate load of each workload stays the same from seed to seed,
//! so figures from different seeds are comparable.

use crate::common::{Rng, Shape};
use gmdf::{ChannelMode, SessionSpec, Workflow};
use gmdf_bench::{fleet_node_system, ring_system};
use gmdf_codegen::{CompileOptions, InstrumentOptions};
use gmdf_comdes::System;
use gmdf_target::SimConfig;

/// One session's inputs: the model, the channel and the platform.
#[derive(Debug, Clone)]
pub struct Plan {
    pub system: System,
    pub channel: ChannelMode,
    pub sim: SimConfig,
}

impl Plan {
    /// Workflow steps 1-5 up to a buildable spec (model export,
    /// abstraction, command settings). Part of set-up.
    pub fn spec(&self) -> SessionSpec {
        let instrument = match self.channel {
            ChannelMode::Active => InstrumentOptions::behavior(),
            ChannelMode::Passive { .. } => InstrumentOptions::none(),
        };
        Workflow::from_system(self.system.clone())
            .expect("generated systems are valid")
            .default_abstraction()
            .default_commands()
            .into_spec(
                self.channel,
                CompileOptions {
                    instrument,
                    faults: vec![],
                },
                self.sim,
            )
    }
}

const JTAG: ChannelMode = ChannelMode::Passive {
    poll_period_ns: 200_000,
    tck_hz: 10_000_000,
};

/// `live_fleet`: RS-232 ring sessions of varied size and dwell, a
/// quarter of them on passive JTAG. Each dwell class holds one ring of
/// every size from 3 to 6 states; the seed picks which ring of each
/// class is passive (a passive ring reports state changes only, so one
/// per class keeps the fleet's event rate seed-independent), perturbs
/// every dwell by up to ±5 % and deals the sessions out in a seeded
/// order. Dwells sit halfway between release instants, so the
/// perturbation never moves a transition to another release.
pub fn live_plans(seed: u64, shape: Shape) -> Vec<Plan> {
    let mut rng = Rng::new(seed ^ 0x11);
    let dwells: &[f64] = match shape {
        Shape::Full => &[0.0005, 0.0015, 0.0025, 0.0035],
        Shape::Tiny => &[0.0015],
    };
    let mut kinds: Vec<(usize, f64, bool)> = Vec::new();
    for &dwell_s in dwells {
        let passive = rng.below(4) as usize;
        kinds.extend((0..4).map(|i| (3 + i, dwell_s, i == passive)));
    }
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|(states, dwell_s, passive)| Plan {
            system: ring_system(states, dwell_s * rng.unit_range(0.95, 1.05), 1_000_000),
            channel: if passive { JTAG } else { ChannelMode::Active },
            sim: SimConfig {
                seed: rng.next_u64(),
                ..SimConfig::default()
            },
        })
        .collect()
}

/// `sparse_fleet`: multi-node fleet sessions with mostly quiescent
/// conditioning tasks and clock jitter on. The shape is fixed; the
/// seed drives the jitter pattern (and the stimuli, see
/// [`sparse_stimulus`]).
pub fn sparse_plans(seed: u64, shape: Shape) -> Vec<Plan> {
    let mut rng = Rng::new(seed ^ 0x22);
    let (sessions, nodes, gains, scale) = match shape {
        Shape::Full => (2, 24, 15, 8),
        Shape::Tiny => (1, 3, 3, 4),
    };
    (0..sessions)
        .map(|_| Plan {
            system: fleet_node_system(nodes, gains, scale),
            channel: ChannelMode::Active,
            sim: SimConfig {
                clock_jitter_ns: 300_000,
                seed: rng.next_u64(),
                ..SimConfig::default()
            },
        })
        .collect()
}

/// The seeded stimulus for `sparse_fleet` round `round` of session
/// `session`: the initial plateau at round 0, then a step of `u` to a
/// seeded value at a seeded instant inside every sixth round. The steps
/// come on a fixed cadence (the two sessions three rounds apart), so
/// every window of rounds holds the same share of rounds that wake the
/// conditioning tasks, and the round-latency quantiles do not jump
/// between the quiet and the woken rounds from one window to the next.
pub fn sparse_stimulus(seed: u64, session: usize, round: u64, round_ns: u64) -> Option<(u64, f64)> {
    let mut rng = Rng::new(seed ^ 0x33 ^ ((session as u64) << 40) ^ round.wrapping_mul(0x9e37));
    let value = (rng.unit_range(0.5, 4.0) * 8.0).round() / 8.0;
    if round == 0 {
        return Some((0, value));
    }
    (round + 3 * session as u64)
        .is_multiple_of(6)
        .then(|| (round * round_ns + rng.below(round_ns), value))
}

/// `time_travel`: dense ring sessions hosted durably. The seed picks
/// each ring's size and perturbs its dwell by up to ±5 % (between
/// release instants, as in [`live_plans`]).
pub fn travel_plans(seed: u64, shape: Shape) -> Vec<Plan> {
    let mut rng = Rng::new(seed ^ 0x44);
    let sessions = match shape {
        Shape::Full => 2,
        Shape::Tiny => 1,
    };
    (0..sessions)
        .map(|_| Plan {
            system: ring_system(
                4 + rng.below(3) as usize,
                0.000625 * rng.unit_range(0.95, 1.05),
                250_000,
            ),
            channel: ChannelMode::Active,
            sim: SimConfig {
                seed: rng.next_u64(),
                ..SimConfig::default()
            },
        })
        .collect()
}
