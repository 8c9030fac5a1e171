//! Seeded benchmark inputs.
//!
//! Every circuit comes from `generator::generate` with the single-strip
//! spec below; only the generator seed varies, and it is derived from the
//! workload seed, so the same `--seed` always yields the same inputs.

use rfic_netlist::generator::{generate, CircuitSpec};
use rfic_netlist::{wire, Netlist, Technology};

/// One layout request's input: the netlist and its wire document.
#[derive(Clone)]
pub struct Input {
    pub netlist: Netlist,
    /// `wire::to_json` of the netlist, as sent to `serve`.
    pub doc: String,
}

/// The benchmark circuit family: one device, one bond pad and one
/// microstrip in the tiny circuit's 380 × 320 µm area. Larger members of
/// the tiny family cost 10–67 s per cold flow on a 2-core machine, too
/// long for a run of a few tens of seconds (see NOTES.md).
pub fn spec(seed: u64) -> CircuitSpec {
    CircuitSpec {
        name: format!("micro-{seed:016x}"),
        num_devices: 1,
        num_microstrips: 1,
        num_pads: 1,
        area: (380.0, 320.0),
        reduced_area: None,
        detour_fraction: 0.34,
        double_detours: 0,
        tech: Technology::cmos90(),
        seed,
    }
}

/// SplitMix64 step: a well-mixed 64-bit value from a counter.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform value in `[0, 1)` derived from `(seed, index)`.
pub fn unit(seed: u64, index: u64) -> f64 {
    (mix(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// `count` distinct seeded circuits for workload seed `seed`.
pub fn family(seed: u64, count: usize) -> Vec<Input> {
    (0..count as u64)
        .map(|i| {
            let circuit = generate(&spec(mix(seed, i))).expect("single-strip spec is generable");
            let doc = wire::to_json(&circuit.netlist).to_string();
            Input {
                netlist: circuit.netlist,
                doc,
            }
        })
        .collect()
}

/// The `serve` request line validating `doc`.
pub fn validate_line(doc: &str) -> String {
    format!("{{\"op\":\"validate\",\"netlist\":{doc}}}")
}

/// The `serve` request line submitting `doc`.
pub fn submit_line(doc: &str) -> String {
    format!("{{\"op\":\"submit\",\"netlist\":{doc}}}")
}
