//! The (processor, benchmark) pairs of the paper's Tables 3-4, their golden
//! instruction-set models, and the seeded generator of application inputs.

use symsim_cpu::{bm32, dr5, omsp16, Benchmark, Cpu, BENCHMARK_NAMES};

/// Concrete inputs generated per pair on `concrete-validate`.
pub const INPUTS_PER_PAIR: usize = 16;

/// The three evaluation processors, in the paper's column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bm32,
    Omsp16,
    Dr5,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Bm32, Kind::Omsp16, Kind::Dr5];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Bm32 => "bm32",
            Kind::Omsp16 => "omsp16",
            Kind::Dr5 => "dr5",
        }
    }

    pub fn build(self) -> Cpu {
        match self {
            Kind::Bm32 => bm32::build(),
            Kind::Omsp16 => omsp16::build(),
            Kind::Dr5 => dr5::build(),
        }
    }

    pub fn benchmark(self, name: &str) -> Benchmark {
        match self {
            Kind::Bm32 => bm32::benchmark(name),
            Kind::Omsp16 => omsp16::benchmark(name),
            Kind::Dr5 => dr5::benchmark(name),
        }
    }

    /// Assembles a benchmark source; the Table 1 sources are known-good.
    pub fn assemble(self, src: &str) -> Vec<u32> {
        match self {
            Kind::Bm32 => bm32::assemble(src),
            Kind::Omsp16 => omsp16::assemble(src),
            Kind::Dr5 => dr5::assemble(src),
        }
        .expect("Table 1 benchmark source assembles")
    }
}

/// One (processor, benchmark) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub kind: Kind,
    pub bench: &'static str,
}

impl Pair {
    /// `cpu/bench`, as the CLI and the oracle file name it.
    pub fn label(&self) -> String {
        format!("{}/{}", self.kind.name(), self.bench)
    }

    /// Position in the full 3 x 6 matrix; seeds each pair's input stream,
    /// so a pair's inputs do not depend on which other pairs run.
    pub fn index(&self) -> usize {
        let k = Kind::ALL.iter().position(|&k| k == self.kind).unwrap();
        let b = BENCHMARK_NAMES
            .iter()
            .position(|&b| b == self.bench)
            .unwrap();
        k * BENCHMARK_NAMES.len() + b
    }
}

/// All 18 Table 3/4 pairs, processor-major.
pub fn matrix() -> Vec<Pair> {
    Kind::ALL
        .iter()
        .flat_map(|&kind| {
            BENCHMARK_NAMES
                .iter()
                .map(move |&bench| Pair { kind, bench })
        })
        .collect()
}

/// Looks up `cpu/bench` in the matrix.
pub fn parse_pair(label: &str) -> Option<Pair> {
    matrix().into_iter().find(|p| p.label() == label)
}

/// Architectural end state of a concrete run: every register in
/// [`Cpu::reg_nets`] order and every data-memory word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub regs: Vec<u64>,
    pub mem: Vec<u64>,
}

/// Runs the processor's golden ISS on one input. `None` if it does not halt
/// within the benchmark's cycle budget.
pub fn golden(kind: Kind, program: &[u32], bench: &Benchmark, inputs: &[u64]) -> Option<Expected> {
    let writes = bench.data.concrete.iter().copied().chain(
        bench
            .data
            .inputs
            .iter()
            .copied()
            .zip(inputs.iter().copied()),
    );
    let (regs, mem): (Vec<u64>, Vec<u64>) = match kind {
        Kind::Bm32 => {
            let mut iss = bm32::Iss::new(program);
            writes.for_each(|(a, v)| iss.write_mem(a, v as u32));
            if !iss.run(bench.max_cycles) {
                return None;
            }
            (widen(&iss.regs), widen(&iss.mem))
        }
        Kind::Omsp16 => {
            let mut iss = omsp16::Iss::new(program);
            writes.for_each(|(a, v)| iss.write_mem(a, v as u16));
            if !iss.run(bench.max_cycles) {
                return None;
            }
            (widen(&iss.regs), widen(&iss.mem))
        }
        Kind::Dr5 => {
            let mut iss = dr5::Iss::new(program);
            writes.for_each(|(a, v)| iss.write_mem(a, v as u32));
            if !iss.run(bench.max_cycles) {
                return None;
            }
            (widen(&iss.regs), widen(&iss.mem))
        }
    };
    Some(Expected { regs, mem })
}

fn widen<T: Copy + Into<u64>>(words: &[T]) -> Vec<u64> {
    words.iter().map(|&w| w.into()).collect()
}

/// SplitMix64: a small, fixed, seedable generator, so the same seed gives
/// the same inputs on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The [`INPUTS_PER_PAIR`] application inputs of `pair` under `seed`, one
/// value per input address of the benchmark's data image. Each benchmark
/// draws from the domain its program is written for: a non-zero divisor
/// and a quotient the repeated-subtraction loop finishes within budget,
/// keys that both hit and miss the search table, samples around the
/// threshold, 16-bit multiplier operands, and full-width words elsewhere.
pub fn gen_inputs(seed: u64, pair: Pair, bench: &Benchmark, data_width: usize) -> Vec<Vec<u64>> {
    let mask = if data_width >= 64 {
        u64::MAX
    } else {
        (1u64 << data_width) - 1
    };
    let mut rng = Rng::new(seed ^ (pair.index() as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let n = bench.data.inputs.len();
    (0..INPUTS_PER_PAIR)
        .map(|_| match pair.bench {
            "div" => vec![rng.below(256), 1 + rng.below(15)],
            "binsearch" => vec![rng.below(64)],
            "thold" => (0..n).map(|_| rng.below(100)).collect(),
            "mult" => (0..n).map(|_| rng.next() & 0xffff & mask).collect(),
            _ => (0..n).map(|_| rng.next() & mask).collect(),
        })
        .inspect(|v| assert_eq!(v.len(), n, "{}: input shape", pair.label()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_inputs(seed: u64) -> Vec<Vec<Vec<u64>>> {
        matrix()
            .into_iter()
            .map(|p| {
                let b = p.kind.benchmark(p.bench);
                gen_inputs(seed, p, &b, p.kind.build().data_width)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = all_inputs(7);
        assert_eq!(a, all_inputs(7));
        let b = all_inputs(8);
        assert_ne!(a, b);
        // every pair's list moves with the seed, not just some
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y);
        }
    }

    #[test]
    fn matrix_has_eighteen_distinct_pairs() {
        let m = matrix();
        assert_eq!(m.len(), 18);
        let idx: std::collections::BTreeSet<usize> = m.iter().map(Pair::index).collect();
        assert_eq!(idx.len(), 18);
        assert_eq!(parse_pair("dr5/binsearch").unwrap().index(), 14);
        assert!(parse_pair("dr5/nope").is_none());
    }

    #[test]
    fn golden_models_halt_on_generated_inputs() {
        for p in matrix() {
            let b = p.kind.benchmark(p.bench);
            let program = p.kind.assemble(b.source);
            for input in gen_inputs(11, p, &b, p.kind.build().data_width) {
                assert!(
                    golden(p.kind, &program, &b, &input).is_some(),
                    "{}",
                    p.label()
                );
            }
        }
    }
}
