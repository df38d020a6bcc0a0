//! Proof that `NetworkSim` feeds its invariant checker: a fabric
//! wrapper around `Switch2d` breaks grant legality in one of three ways,
//! and a recording `NetworkSim` must count violations that carry the
//! checker's own messages. The checker's unit tests call its audits
//! directly; these tests pin the wiring between the cycle loop and the
//! audits.

use hirise_core::{
    ConfigError, Fabric, Fault, FaultLog, Grant, InputId, OutputId, Request, Switch2d,
};
use hirise_sim::traffic::UniformRandom;
use hirise_sim::{NetworkSim, SimConfig};

const RADIX: usize = 16;

/// How the wrapper corrupts the inner fabric's answer.
#[derive(Clone, Copy, Debug)]
enum Sabotage {
    /// Adds a second grant to an output that is already granted, for an
    /// input that requested it and lost.
    DoubleGrant,
    /// Grants an idle output that nobody requested to an input that
    /// requested nothing.
    Unrequested,
    /// Grants a requested output that is still mid-transfer.
    BusyOutput,
}

/// `Switch2d` with one bogus grant appended whenever the sabotage finds
/// an opportunity. The bogus grants never reach the inner switch, and
/// `Switch2d::release` ignores an input that holds no connection, so the
/// transfers they start run and end without disturbing it.
struct Saboteur {
    inner: Switch2d,
    sabotage: Sabotage,
}

impl Fabric for Saboteur {
    fn radix(&self) -> usize {
        self.inner.radix()
    }

    fn arbitrate(&mut self, requests: &[Request]) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.arbitrate_into(requests, &mut grants);
        grants
    }

    fn arbitrate_into(&mut self, requests: &[Request], grants: &mut Vec<Grant>) {
        // A busy output must be picked before arbitration: afterwards
        // every granted output reads busy too.
        let busy = requests
            .iter()
            .find(|r| self.inner.output_busy(r.output))
            .copied();
        self.inner.arbitrate_into(requests, grants);
        let granted_input = |input: InputId| grants.iter().any(|g| g.input == input);
        let bogus = match self.sabotage {
            Sabotage::DoubleGrant => requests
                .iter()
                .find(|r| !granted_input(r.input) && grants.iter().any(|g| g.output == r.output))
                .copied(),
            Sabotage::Unrequested => (0..RADIX)
                .map(InputId::new)
                .find(|&i| !granted_input(i) && requests.iter().all(|r| r.input != i))
                .zip((0..RADIX).map(OutputId::new).find(|&o| {
                    !self.inner.output_busy(o) && requests.iter().all(|r| r.output != o)
                }))
                .map(|(input, output)| Request::new(input, output)),
            Sabotage::BusyOutput => busy,
        };
        grants.extend(bogus.map(|r| Grant {
            input: r.input,
            output: r.output,
        }));
    }

    fn release(&mut self, input: InputId) {
        self.inner.release(input)
    }

    fn connection(&self, input: InputId) -> Option<OutputId> {
        self.inner.connection(input)
    }

    fn output_busy(&self, output: OutputId) -> bool {
        self.inner.output_busy(output)
    }

    fn enable_faults(&mut self, seed: u64) -> Result<(), ConfigError> {
        self.inner.enable_faults(seed)
    }

    fn inject_fault(&mut self, fault: Fault) -> Result<(), ConfigError> {
        self.inner.inject_fault(fault)
    }

    fn fault_log(&self) -> Option<&FaultLog> {
        self.inner.fault_log()
    }
}

/// Runs a recording simulation over the sabotaged switch and returns
/// the checker's violation count and recorded messages.
fn run(sabotage: Sabotage) -> (u64, Vec<String>) {
    let cfg = SimConfig::new(RADIX)
        .injection_rate(0.3)
        .warmup(0)
        .measure(500)
        .drain(0)
        .seed(0x5AB0_7A6E)
        .record_invariants(true);
    let fabric = Saboteur {
        inner: Switch2d::new(RADIX),
        sabotage,
    };
    let mut sim = NetworkSim::new(fabric, UniformRandom::new(RADIX), cfg);
    sim.run();
    let checker = sim.checker().expect("recording turns the checker on");
    assert!(
        checker.cycles_checked() >= 500,
        "{sabotage:?}: cycles not audited"
    );
    let messages = checker
        .violations()
        .iter()
        .map(|v| v.message.clone())
        .collect();
    (checker.violation_count(), messages)
}

fn assert_named(sabotage: Sabotage, expected: &str) {
    let (count, messages) = run(sabotage);
    assert!(count > 0, "{sabotage:?}: no violation counted");
    assert!(
        messages.iter().any(|m| m.contains(expected)),
        "{sabotage:?}: no recorded violation says {expected:?}: {messages:#?}"
    );
}

#[test]
fn double_granted_output_is_counted() {
    assert_named(Sabotage::DoubleGrant, "granted twice");
}

#[test]
fn unrequested_grant_is_counted() {
    assert_named(Sabotage::Unrequested, "answers no presented request");
}

#[test]
fn grant_to_busy_output_is_counted() {
    assert_named(Sabotage::BusyOutput, "busy output");
}
