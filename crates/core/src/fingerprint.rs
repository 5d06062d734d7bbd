//! Run identity for the persistent ledger (`symsim runs`).
//!
//! Two runs are comparable when three things match: the design structure,
//! the program image, and the analysis configuration. Each gets its own
//! FNV-1a content hash (`Fnv`, the workspace standard); [`combined`]
//! folds them into the single `fingerprint` the ledger keys baselines on.
//!
//! The config hash folds the *requested* evaluation mode: it is part of
//! a run's identity, so runs in different modes never share a baseline.

use symsim_netlist::Netlist;

use crate::CoAnalysisConfig;

/// 64-bit FNV-1a, the workspace's standard dependency-free hash.
#[derive(Debug)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    /// Folds a byte slice into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds one word into the hash (little-endian bytes).
    pub fn word(&mut self, w: u64) -> &mut Fnv {
        self.bytes(&w.to_le_bytes())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// Content hash of the netlist structure: gates, read-port wiring, and the
/// net count. Net names, memory contents, write ports, and DFF init values
/// stay out, so the same structure hashes the same in every process.
pub(crate) fn structure_hash(netlist: &Netlist) -> u64 {
    let mut h = Fnv::new();
    h.word(netlist.net_count() as u64);
    h.word(netlist.gate_count() as u64);
    for gate in netlist.gates() {
        h.word(gate.kind as u64);
        h.word(gate.inputs.len() as u64);
        for pin in &gate.inputs {
            h.word(u64::from(pin.0));
        }
        h.word(u64::from(gate.output.0));
    }
    h.word(netlist.memories().len() as u64);
    for mem in netlist.memories() {
        h.word(mem.read_ports.len() as u64);
        for rp in &mem.read_ports {
            h.word(rp.addr.len() as u64);
            for pin in &rp.addr {
                h.word(u64::from(pin.0));
            }
            h.word(rp.data.len() as u64);
            for pin in &rp.data {
                h.word(u64::from(pin.0));
            }
        }
    }
    h.finish()
}

/// Content hash of the design structure: gates, read-port wiring, and
/// the net count (the ledger's `design_hash`).
pub fn design_fingerprint(netlist: &Netlist) -> u64 {
    structure_hash(netlist)
}

/// Content hash of a program image.
pub fn program_fingerprint(program: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.word(program.len() as u64);
    for &w in program {
        h.word(u64::from(w));
    }
    h.finish()
}

/// The canonical, human-readable configuration string the config hash is
/// taken over. Key order is fixed; every field that changes analysis
/// behavior (and therefore comparability) appears, and nothing else —
/// metrics/trace sinks are observability plumbing, not identity.
pub fn config_string(config: &CoAnalysisConfig) -> String {
    let prop = match config.sim.policy {
        symsim_logic::PropagationPolicy::Anonymous => "anonymous",
        symsim_logic::PropagationPolicy::Tagged => "tagged",
    };
    format!(
        "mode={},batch_pct={},prop={},attr={},policy={},constraints={},\
         max_cycles={},max_paths={},max_split={},workers={}",
        config.sim.eval_mode.name(),
        config.sim.batch_threshold_pct,
        prop,
        config.sim.attribution,
        config.policy.name(),
        config.constraints.len(),
        config.max_cycles_per_segment,
        config.max_paths,
        config.max_split_signals,
        config.workers,
    )
}

/// The combined run fingerprint: FNV over the design, program, and config
/// hashes.
pub fn combined(design: u64, program: u64, config_str: &str) -> u64 {
    let mut h = Fnv::new();
    h.word(design);
    h.word(program);
    h.bytes(config_str.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsim_sim::EvalMode;

    #[test]
    fn structure_hash_is_stable_and_structure_sensitive() {
        fn tiny() -> Netlist {
            let mut n = Netlist::new("t");
            let a = n.add_net("a");
            let b = n.add_net("b");
            let y = n.add_net("y");
            n.add_input(a);
            n.add_input(b);
            n.add_gate(symsim_netlist::CellKind::And2, &[a, b], y);
            n
        }
        let n = tiny();
        assert_eq!(structure_hash(&n), structure_hash(&tiny()));
        let mut m = tiny();
        let z = m.add_net("z");
        let y = m.find_net("y").unwrap();
        m.add_gate(symsim_netlist::CellKind::Not, &[y], z);
        assert_ne!(structure_hash(&n), structure_hash(&m));
    }

    #[test]
    fn program_hash_is_content_and_length_sensitive() {
        assert_eq!(
            program_fingerprint(&[1, 2, 3]),
            program_fingerprint(&[1, 2, 3])
        );
        assert_ne!(
            program_fingerprint(&[1, 2, 3]),
            program_fingerprint(&[1, 2, 4])
        );
        assert_ne!(
            program_fingerprint(&[1, 2]),
            program_fingerprint(&[1, 2, 0])
        );
        assert_ne!(program_fingerprint(&[]), program_fingerprint(&[0]));
    }

    #[test]
    fn config_string_tracks_behavioral_fields() {
        let base = CoAnalysisConfig::default();
        let s = config_string(&base);
        assert!(s.contains("mode=hybrid"), "{s}");
        assert!(s.contains("workers=1"), "{s}");
        let mut other = CoAnalysisConfig::default();
        other.sim.eval_mode = EvalMode::Event;
        assert_ne!(s, config_string(&other));
        assert_ne!(combined(1, 2, &s), combined(1, 2, &config_string(&other)));
        // observability plumbing is not identity
        let mut traced = CoAnalysisConfig::default();
        traced.sim.profile_phases = true;
        assert_eq!(s, config_string(&traced));
    }
}
