//! Seeded inputs, and the client that reads what the ship serves.
//!
//! Every input a workload feeds the program — plant faults, the fault
//! campaign, client requests — is drawn from a
//! [`Rng`] derived from the workload seed alone.

use crate::stats::Samples;
use mpros_core::derive_salted_seed;
use mpros_fleet::FleetRequest;
use mpros_gateway::GatewayRequest;

/// splitmix64: a small, seedable stream for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `salt` of the workload seed `seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(derive_salted_seed(seed, salt, 0xBE7C_4A11_0000_0000))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The single-ship request mix: machine status, ICAS, metrics,
/// counters and a subscription poll. Every run of five requests holds
/// one of each, in a seeded order, so the mix's proportions — and with
/// them the latency quantiles — do not depend on the seed.
pub struct ShipScript {
    rng: Rng,
    machines: u64,
    session: u64,
    round: Vec<GatewayRequest>,
}

impl ShipScript {
    pub fn new(seed: u64, machines: u64, session: u64) -> Self {
        ShipScript {
            rng: Rng::new(seed, 2),
            machines,
            session,
            round: Vec::new(),
        }
    }

    pub fn next(&mut self) -> GatewayRequest {
        if self.round.is_empty() {
            self.round = vec![
                GatewayRequest::GetMachineStatus {
                    machine: 1 + self.rng.below(self.machines),
                },
                GatewayRequest::GetIcas,
                GatewayRequest::GetMetrics,
                GatewayRequest::GetCounters,
                GatewayRequest::Subscribe {
                    session: self.session,
                },
            ];
            shuffle(&mut self.rng, &mut self.round);
        }
        self.round.pop().expect("refilled above")
    }
}

/// The fleet console mix: rollup, ship list, a ship's ICAS, a
/// subscription poll, and the four read-only single-ship requests
/// routed to a ship. Every run of eight holds one of each, in a seeded
/// order, each aimed at a seeded ship.
pub struct FleetScript {
    rng: Rng,
    ships: u64,
    machines: u64,
    session: u64,
    round: Vec<FleetRequest>,
}

impl FleetScript {
    pub fn new(seed: u64, ships: u64, machines: u64, session: u64) -> Self {
        FleetScript {
            rng: Rng::new(seed, 3),
            ships,
            machines,
            session,
            round: Vec::new(),
        }
    }

    pub fn next(&mut self) -> FleetRequest {
        if self.round.is_empty() {
            let machine = 1 + self.rng.below(self.machines);
            let inner = [
                GatewayRequest::GetMachineStatus { machine },
                GatewayRequest::GetIcas,
                GatewayRequest::GetMetrics,
                GatewayRequest::GetCounters,
            ];
            self.round = vec![
                FleetRequest::GetFleetRollup,
                FleetRequest::ListShips,
                FleetRequest::GetShipIcas {
                    ship: self.rng.below(self.ships),
                },
                FleetRequest::Subscribe {
                    session: self.session,
                },
            ];
            for request in inner {
                let ship = self.rng.below(self.ships);
                self.round.push(FleetRequest::ForShip { ship, request });
            }
            shuffle(&mut self.rng, &mut self.round);
        }
        self.round.pop().expect("refilled above")
    }
}

/// Fisher-Yates.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// What the client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Each request's latency.
    pub latency: Samples,
    pub requests: u64,
    pub failed: u64,
    /// Responses whose version was older than one seen before.
    pub regressions: u64,
    pub last_version: u64,
    pub first_failure: Option<String>,
}

impl ClientLog {
    /// Record one response: its version, or the reason it failed.
    pub fn record(&mut self, latency: f64, outcome: Result<u64, String>) {
        self.requests += 1;
        self.latency.push(latency);
        match outcome {
            Ok(version) => {
                if version < self.last_version {
                    self.regressions += 1;
                    self.failed += 1;
                }
                self.last_version = self.last_version.max(version);
            }
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
    }
}
